"""Probability vectors, divergences, sampling, and the seeding layer."""

import math
import re

import numpy as np
import pytest

from oracles import sample_iid
from sparse_dist_lab.core import (
    GOLDEN64,
    PackingIndex,
    check_probs,
    chi_square,
    child_keys,
    derive_key,
    enumerate_packing_indices,
    fold_string,
    induced_output_dist,
    keyed_generator,
    make_packing_dist,
    mix64,
    mix64_array,
    packing_reference_dist,
    tv_distance,
    uniform_sparse_stack,
)


def uniform_sparse(k, s, key):
    """One s-sparse uniform target, the one row of uniform_sparse_stack."""
    return uniform_sparse_stack(k, s, [key])[0]


# ---------------------------------------------------------------- tv_distance


def test_tv_identical_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert tv_distance(p, p) == 0.0


def test_tv_disjoint_supports_is_one():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_tv_hand_value():
    assert tv_distance([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.25, abs=1e-15)


def test_tv_length_mismatch():
    with pytest.raises(ValueError):
        tv_distance([1.0], [0.5, 0.5])


def test_tv_is_a_metric_on_random_instances():
    # Symmetry should be exact (|a-b| = |b-a|); triangle inequality gets a
    # float-roundoff allowance.
    gen = np.random.default_rng(11)
    for _ in range(200):
        k = int(gen.integers(2, 8))
        p, q, r = (gen.dirichlet(np.ones(k)) for _ in range(3))
        assert tv_distance(p, q) == tv_distance(q, p)
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
        assert 0.0 <= tv_distance(p, q) <= 1.0


# ----------------------------------------------------------------- chi_square


def test_chisq_identical_is_zero():
    assert chi_square([0.25, 0.75], [0.25, 0.75]) == 0.0


def test_chisq_hand_value():
    # (1-0.5)^2/0.5 + (0-0.5)^2/0.5 = 1
    assert chi_square([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)


def test_chisq_matches_direct_summation():
    gen = np.random.default_rng(5)
    for _ in range(100):
        k = int(gen.integers(2, 10))
        p = gen.dirichlet(np.ones(k))
        q = gen.dirichlet(np.ones(k)) + 1e-3
        q = q / q.sum()
        direct = sum((p[x] - q[x]) ** 2 / q[x] for x in range(k))
        assert chi_square(p, q) == pytest.approx(direct, rel=1e-12)


def test_chisq_support_violation_reports_index():
    with pytest.raises(ValueError, match="index 1"):
        chi_square([0.5, 0.5], [1.0, 0.0])


# ----------------------------------------------------------------- sample_iid


def test_sample_point_mass():
    p = np.array([0.0, 0.0, 1.0, 0.0])
    xs = sample_iid(p, 1000, keyed_generator(derive_key(1, 0)))
    assert np.all(xs == 2)


def test_sample_same_stream_same_sequence():
    a = sample_iid([0.25] * 4, 500, keyed_generator(derive_key(42, 7)))
    b = sample_iid([0.25] * 4, 500, keyed_generator(derive_key(42, 7)))
    assert np.array_equal(a, b)


def test_sample_uniform_frequencies():
    xs = sample_iid([0.25] * 4, 10**6, keyed_generator(derive_key(3, 0)))
    freq = np.bincount(xs, minlength=4) / 10**6
    # 6 sigma for Binomial(1e6, 0.25) is ~0.0026; 0.005 leaves headroom.
    assert np.all(np.abs(freq - 0.25) < 0.005)


def test_sample_empirical_tv_converges():
    # Dvoretzky-style check with a generous constant: TV(emp, p) <= 3 sqrt(k/n).
    k, n = 100, 10**6
    p = uniform_sparse(k, 37, derive_key(9, 0))
    xs = sample_iid(p, n, keyed_generator(derive_key(9, 1)))
    emp = np.bincount(xs, minlength=k) / n
    assert tv_distance(emp, p) <= 3 * math.sqrt(k / n)


def test_sample_zero_length():
    assert sample_iid([1.0], 0, keyed_generator(derive_key(0, 0))).size == 0


# -------------------------------------------------------- distribution makers


def test_uniform_sparse_full_support_is_uniform():
    p = uniform_sparse(6, 6, derive_key(0, 0))
    assert np.allclose(p, 1 / 6)


def test_uniform_sparse_point_mass():
    p = uniform_sparse(10, 1, derive_key(0, 0))
    assert np.count_nonzero(p) == 1
    assert p.max() == 1.0


def test_uniform_sparse_large_scale_support():
    p = uniform_sparse(5000, 64, derive_key(0, 0))
    support = np.nonzero(p)[0]
    assert support.size == 64
    assert np.allclose(p[support], 1 / 64)


def test_uniform_sparse_rejects_bad_s():
    with pytest.raises(ValueError):
        uniform_sparse(5, 0, derive_key(0, 0))
    with pytest.raises(ValueError):
        uniform_sparse(5, 6, derive_key(0, 0))


def test_packing_dist_single_index():
    z = PackingIndex(5, (0,))
    p = make_packing_dist(z, 0.05)
    assert np.allclose(p, [0.6, 0.4, 0, 0, 0, 0])


def test_packing_dist_mass_split():
    z = PackingIndex(9, (1, 4, 7))
    p = make_packing_dist(z, 0.1)
    assert p[0] == pytest.approx(1 - 0.8)
    assert p[1:].sum() == pytest.approx(0.8)


def test_packing_dist_average_is_reference():
    # Averaging p_z over all of Z_{k,s} spreads the 8*alpha mass uniformly.
    k, s, alpha = 7, 3, 0.04
    zs = list(enumerate_packing_indices(k, s))
    assert len(zs) == math.comb(k, s)
    acc = np.zeros(k + 1)
    for z in zs:
        acc += make_packing_dist(z, alpha)
    avg = acc / len(zs)
    assert np.allclose(avg, packing_reference_dist(k, alpha), atol=1e-12)


def test_packing_dist_valid_for_every_index():
    for z in enumerate_packing_indices(12, 4):
        p = make_packing_dist(z, 0.1)
        check_probs(p)
        assert p.size == 13


def test_packing_dist_alpha_range():
    with pytest.raises(ValueError):
        make_packing_dist(PackingIndex(5, (0,)), 0.125)  # 8*alpha == 1
    with pytest.raises(ValueError):
        make_packing_dist(PackingIndex(5, (0,)), 0.0)


# -------------------------------------------------------- induced_output_dist


def test_induced_identity_channel():
    p = np.array([0.1, 0.6, 0.3])
    q = induced_output_dist(np.eye(3), p)
    assert np.allclose(q, p)


def test_induced_constant_channel():
    W = np.tile([0.0, 1.0, 0.0], (4, 1))
    q = induced_output_dist(W, [0.25] * 4)
    assert np.allclose(q, [0, 1, 0])


def test_induced_binary_rr_symmetric():
    e = math.exp(1.0)
    W = np.array([[e / (e + 1), 1 / (e + 1)], [1 / (e + 1), e / (e + 1)]])
    q = induced_output_dist(W, [0.5, 0.5])
    assert np.allclose(q, [0.5, 0.5])


def test_induced_dimension_mismatch():
    with pytest.raises(ValueError):
        induced_output_dist(np.eye(3), [0.5, 0.5])


def test_induced_output_is_checked():
    # an input that is not a distribution gives an output that is not one
    with pytest.raises(ValueError, match="sum to"):
        induced_output_dist(np.eye(2), [0.5, 0.4])


# ------------------------------------------------- check_probs and the types


def test_distribution_rejects_negative():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        check_probs(np.array([1.1, -0.1]))


def test_distribution_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum to 0.9"):
        check_probs(np.array([0.5, 0.4]))
    # each row of a stack is checked on its own
    with pytest.raises(ValueError, match="sum to 0.9"):
        check_probs(np.array([[0.5, 0.5], [0.5, 0.4]]))


def test_distribution_rejects_non_finite():
    # NaN fails every comparison, so range and sum checks alone let it in.
    for bad in ([math.nan, 0.5, 0.5], [math.inf, 0.5], [0.5, 0.5, -math.inf]):
        with pytest.raises(ValueError, match="finite"):
            check_probs(np.array(bad))


def test_packing_index_popcount_enforced():
    z = PackingIndex(8, (2, 5))
    assert z.s == 2
    with pytest.raises(ValueError):
        PackingIndex(8, (2, 2))
    with pytest.raises(ValueError):
        PackingIndex(8, (2, 9))


# -------------------------------------------------------------------- seeding


def test_mix64_is_a_64bit_permutation_sample():
    # Not a full bijectivity proof; just confirm distinct inputs map to
    # distinct outputs on a decent sample and outputs fill 64 bits.
    vals = {mix64(i) for i in range(10000)}
    assert len(vals) == 10000
    assert max(vals) > 2**63


def test_stream_determinism_and_independence():
    a = keyed_generator(derive_key(123, 4)).random(8)
    b = keyed_generator(derive_key(123, 4)).random(8)
    c = keyed_generator(derive_key(123, 5)).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_child_chains():
    key = derive_key(99, 0)
    assert derive_key(key, 3) == derive_key(key, 3)
    assert derive_key(key, 3) != derive_key(key, 4)
    # children of children stay distinct from siblings
    assert derive_key(derive_key(key, 0), 1) != derive_key(key, 1)


@pytest.mark.parametrize("master_seed", [0, 7, 2**64 - 1, 0x9E3779B97F4A7C15])
def test_stream_is_philox_keyed_by_its_key(master_seed):
    # Every output byte rests on the stream of a key being
    # Generator(Philox(key=key)); a NumPy change to how Philox takes its key,
    # or to how keyed_generator re-keys it, must fail here, loudly.
    key = derive_key(master_seed, 3)
    gen = keyed_generator(key)
    ref = np.random.Generator(np.random.Philox(key=key))
    assert gen.bit_generator.state["state"]["key"].tolist() == [key, 0]
    assert ref.bit_generator.state["state"]["key"].tolist() == [key, 0]
    assert np.array_equal(gen.random(17), ref.random(17))
    sizes, probs = [10, 1000, 10**6], [0.5, 0.01, 0.3]
    assert np.array_equal(gen.binomial(sizes, probs), ref.binomial(sizes, probs))
    assert np.array_equal(gen.multinomial(10**5, [0.2, 0.3, 0.5]), ref.multinomial(10**5, [0.2, 0.3, 0.5]))
    assert np.array_equal(gen.choice(1000, size=40, replace=False), ref.choice(1000, size=40, replace=False))


# the edges of the 64-bit range, the golden-ratio step, and random keys
_KEYS = [0, 1, 2**64 - 1, GOLDEN64, *keyed_generator(derive_key(31, 0)).integers(0, 2**64, size=12, dtype=np.uint64).tolist()]


def test_mix64_array_matches_mix64():
    assert mix64_array(np.array(_KEYS, dtype=np.uint64)).tolist() == [mix64(key) for key in _KEYS]
    assert mix64_array(_KEYS).tolist() == [mix64(key) for key in _KEYS]


@pytest.mark.parametrize("stream_id", [0, 1, 3, 2**40])
def test_child_keys_match_derive_key(stream_id):
    # The uint64 products wrap inside arrays, where NumPy does not warn;
    # the test run turns a RuntimeWarning into a failure.
    want = [derive_key(key, stream_id) for key in _KEYS]
    got = child_keys(np.array(_KEYS, dtype=np.uint64), stream_id)
    assert got.dtype == np.uint64
    assert got.tolist() == want
    assert child_keys(_KEYS, stream_id).tolist() == want
    assert child_keys(_KEYS[:1], stream_id).tolist() == want[:1]
    # a Python int key goes through the scalar mix
    assert [child_keys(key, stream_id).tolist() for key in _KEYS] == [[one] for one in want]


def test_child_keys_broadcast_stream_ids():
    ids = [0, 1, 3, 2**40]
    got = child_keys(np.array(_KEYS, dtype=np.uint64)[:, None], ids)
    assert got.tolist() == [[derive_key(key, j) for j in ids] for key in _KEYS]
    assert child_keys(_KEYS[-1], ids).tolist() == [derive_key(_KEYS[-1], j) for j in ids]


def _draw_all(gen):
    return [
        gen.integers(0, 1000, size=3, dtype=np.uint32),  # an odd count of 32-bit draws leaves a spare word
        gen.random(5),  # five 64-bit words: Philox's four-word buffer is left partly used
        gen.binomial([10, 1000, 10**6], [0.5, 0.01, 0.3]),
        gen.multinomial(10**4, [0.2, 0.3, 0.5]),
        gen.choice(1000, size=40, replace=False),
        gen.integers(0, 2**32, size=1, dtype=np.uint32),
    ]


def test_keyed_generator_draws_as_fresh_streams():
    keys = [derive_key(1, 0), derive_key(1, 1), derive_key(2**64 - 1, 3), derive_key(GOLDEN64, 0)]
    # round-robin twice over the keys, so every re-key follows draws under another key
    for key in keys + keys[::-1]:
        gen = keyed_generator(key)
        got = _draw_all(gen)
        state = gen.bit_generator.state
        assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4  # both left dirty
        want = _draw_all(np.random.Generator(np.random.Philox(key=key)))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("key", [0, 2**64 - 1])
def test_keyed_generator_takes_the_whole_key_range(key):
    keyed_generator(7).integers(0, 10, size=3, dtype=np.uint32)  # leave the generator mid-stream
    ref = np.random.Generator(np.random.Philox(key=key))
    assert np.array_equal(keyed_generator(np.uint64(key)).random(9), ref.random(9))


@pytest.mark.parametrize("key", [1.5, -1, 2**64], ids=["float", "negative", "too_large"])
def test_keyed_generator_rejects_a_key_outside_the_64_bit_integers(key):
    with pytest.raises(ValueError, match=re.escape(f"got {key!r}")):
        keyed_generator(key)
    with pytest.raises(ValueError, match="stream key"):
        uniform_sparse_stack(10, 2, [key])


def test_fold_string_stable():
    # FNV-1a over UTF-8; pin one value so accidental re-hashing shows up.
    assert fold_string("") == 0xCBF29CE484222325
    assert fold_string("abc") == fold_string("abc")
    assert fold_string("abc") != fold_string("abd")
