"""Probability vectors, divergences, sampling, and the seeding layer."""

import math
import re

import numpy as np
import pytest

from oracles import (
    PackingIndex,
    chi_square,
    enumerate_packing_indices,
    induced_output_dist,
    make_packing_dist,
    mix64_array,
    packing_reference_dist,
    sample_iid,
)
from sparse_dist_lab.bounds import (
    comm_sample_size,
    comm_stage_sizes,
    expected_chisq_over_packing,
    hamming_ball_count,
    lbit_contraction_ceiling,
    ldp_contraction_ceiling,
    ldp_risk_bound,
    ldp_sample_size,
    packing_gap,
    random_lbit_channel,
    randomized_response_channel,
)
from sparse_dist_lab.comm_hash import effective_ell
from sparse_dist_lab.core import (
    GOLDEN64,
    check_ell,
    check_probs,
    check_sparsity,
    derive_key,
    derive_keys,
    exp_epsilon,
    fold_string,
    keyed_generator,
    mix64,
    tv_distance,
    uniform_sparse_stack,
)
from sparse_dist_lab.hadamard import hadamard_dim
from sparse_dist_lab.hadamard_response import hr_decode_raw
from sparse_dist_lab.harness import Cell
from sparse_dist_lab.projection import top_s_indices
from sparse_dist_lab.rappor import flip_probability


def uniform_sparse(k, s, key):
    """One s-sparse uniform target, the one row of uniform_sparse_stack."""
    return uniform_sparse_stack(k, s, [key])[0]


# ---------------------------------------------------------------- tv_distance


def dense_tv(p, q):
    """tv_distance of two dense vectors or stacks: q held on every symbol."""
    q = np.asarray(q, dtype=np.float64)
    return tv_distance(p, np.broadcast_to(np.arange(q.shape[-1]), q.shape), q)


def test_tv_identical_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert dense_tv(p, p) == 0.0


def test_tv_disjoint_supports_is_one():
    assert dense_tv([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([1.0, 0.0], [1], [1.0]) == 1.0


def test_tv_hand_value():
    assert dense_tv([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.25, abs=1e-15)


def test_tv_length_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        tv_distance([0.5, 0.5], [0, 1], [1.0])
    with pytest.raises(ValueError, match="shape mismatch"):
        tv_distance(np.full((2, 2), 0.5), [[0], [1], [0]], [[1.0], [1.0], [1.0]])
    with pytest.raises(ValueError, match="shape mismatch"):
        tv_distance([0.5, 0.5], [[0], [1]], [[1.0], [1.0]])


@pytest.mark.parametrize("t", [3, 12], ids=["partial_support", "every_symbol"])
def test_tv_on_a_support_equals_the_dense_formula_bitwise(t):
    # The estimate on T, scored against p, is the old dense 0.5 |p - q| sum
    # of the estimate scattered over all k, bit for bit.
    gen = np.random.default_rng(17)
    B, k = 6, 12
    P = gen.dirichlet(np.ones(k), size=B)
    T = np.sort(np.argsort(gen.random((B, k)), axis=1)[:, :t], axis=1)
    values = gen.dirichlet(np.ones(t), size=B)
    q = np.zeros((B, k))
    np.put_along_axis(q, T, values, axis=1)
    want = 0.5 * np.abs(P - q).sum(axis=-1)
    before = P.copy()
    assert np.array_equal(tv_distance(P, T, values), want)
    assert np.array_equal(P, before)  # p is read, not written
    assert [tv_distance(P[i], T[i], values[i]) for i in range(B)] == want.tolist()


def test_tv_is_a_metric_on_random_instances():
    # Symmetry should be exact (|a-b| = |b-a|); triangle inequality gets a
    # float-roundoff allowance.
    gen = np.random.default_rng(11)
    for _ in range(200):
        k = int(gen.integers(2, 8))
        p, q, r = (gen.dirichlet(np.ones(k)) for _ in range(3))
        assert dense_tv(p, q) == dense_tv(q, p)
        assert dense_tv(p, r) <= dense_tv(p, q) + dense_tv(q, r) + 1e-12
        assert 0.0 <= dense_tv(p, q) <= 1.0


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
    assert dense_tv(p, emp) <= 3 * math.sqrt(k / n)


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
# NumPy integers, which the mix reads as their values mod 2^64. The suite
# turns a RuntimeWarning into a failure, so a scalar uint64 product that
# overflows in the mix fails here.
_NUMPY_KEYS = [np.uint64(5), np.uint64(2**64 - 1), np.int64(-1), np.int64(2**63 - 1)]


def test_mix64_array_matches_mix64():
    assert mix64_array(np.array(_KEYS, dtype=np.uint64)).tolist() == [mix64(key) for key in _KEYS]
    assert mix64_array(_KEYS).tolist() == [mix64(key) for key in _KEYS]
    got = [mix64(key) for key in _NUMPY_KEYS]
    assert all(type(z) is int for z in got)
    assert got == mix64_array([int(key) % 2**64 for key in _NUMPY_KEYS]).tolist()


# The NumPy stream ids are read as their values: an int64 or int32 id must
# not overflow a C long, and a uint64 product must not warn.
@pytest.mark.parametrize("stream_id", [0, 1, 3, 2**40, np.int64(3), np.int32(3), np.uint64(3)])
def test_derive_keys_match_derive_key(stream_id):
    ids = [stream_id, stream_id + 1, 0]
    for key in _KEYS + _NUMPY_KEYS:
        want = [derive_key(int(key) % 2**64, int(i)) for i in ids]
        assert derive_keys(key, ids) == want
        assert [derive_key(key, i) for i in ids] == want
        assert all(type(one) is int for one in derive_keys(key, ids) + [derive_key(key, stream_id)])
    assert derive_keys(_KEYS[-1], []) == []
    assert derive_keys(5, np.arange(4)) == derive_keys(5, range(4))


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


# ------------------------------------------------------- the parameter rules

# Every public entry that takes (k, s), called at k = 16 with the given s.
_SPARSITY_ENTRIES = {
    "Cell": lambda s: Cell("rappor", 16, s, 400, 1.0),
    "uniform_sparse_stack": lambda s: uniform_sparse_stack(16, s, [derive_key(0, 0)]),
    "top_s_indices": lambda s: top_s_indices(np.arange(16.0), s),
    "expected_chisq_over_packing": lambda s: expected_chisq_over_packing(randomized_response_channel(17, 1.0), 16, s, 0.05),
    "hamming_ball_count": lambda s: hamming_ball_count(16, s, 2),
    "packing_gap": lambda s: packing_gap(16, s, diagnostic=True),
    "ldp_risk_bound": lambda s: ldp_risk_bound(16, s, 1.0, 1000),
    "comm_sample_size": lambda s: comm_sample_size(16, s, 0.2, 3),
    "ldp_sample_size": lambda s: ldp_sample_size(16, s, 0.2, 1.0),
    "comm_stage_sizes": lambda s: comm_stage_sizes(16, s, 0.2, 3),
}


@pytest.mark.parametrize("s", [0, 17], ids=["s=0", "s=k+1"])
@pytest.mark.parametrize("entry", sorted(_SPARSITY_ENTRIES))
def test_every_sparsity_entry_gives_the_one_message(entry, s):
    with pytest.raises(ValueError, match=f"^{re.escape(f'require 1 <= s <= k (got s={s}, k=16)')}$"):
        _SPARSITY_ENTRIES[entry](s)


# Every public entry that takes a bit count ell, called with the given ell.
_ELL_ENTRIES = {
    "Cell": lambda ell: Cell("comm_hash", 16, 2, 1000, ell),
    "effective_ell": lambda ell: effective_ell(ell, 2),
    "lbit_contraction_ceiling": lambda ell: lbit_contraction_ceiling(ell, 2, 0.05),
    "random_lbit_channel": lambda ell: random_lbit_channel(7, ell, derive_key(0, 0)),
    "comm_sample_size": lambda ell: comm_sample_size(1000, 8, 0.2, ell),
    "comm_stage_sizes": lambda ell: comm_stage_sizes(1000, 8, 0.2, ell),
}


@pytest.mark.parametrize("entry", sorted(_ELL_ENTRIES))
def test_every_ell_entry_gives_the_one_message(entry):
    with pytest.raises(ValueError, match=f"^{re.escape('ell must be >= 1, got 0')}$"):
        _ELL_ENTRIES[entry](0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: comm_stage_sizes(1000, 8.0, 0.2, 3), "s must be an integer, not 8.0", id="comm_stage_sizes-s"),
        pytest.param(lambda: uniform_sparse_stack(16, 2.5, [1]), "s must be an integer, not 2.5", id="uniform_sparse_stack-s"),
        pytest.param(lambda: hamming_ball_count(10, 2.5, 2), "s must be an integer, not 2.5", id="hamming_ball_count-s"),
        pytest.param(lambda: ldp_risk_bound(1000, 2.5, 1.0, 1000), "s must be an integer, not 2.5", id="ldp_risk_bound-s"),
        pytest.param(lambda: comm_stage_sizes(1000, 8, 0.2, 2.5), "ell must be an integer, not 2.5", id="comm_stage_sizes-ell"),
        pytest.param(lambda: top_s_indices(np.arange(16.0), True), "s must be an integer, not True", id="top_s_indices-s-bool"),
        pytest.param(lambda: effective_ell(True, 2), "ell must be an integer, not True", id="effective_ell-ell-bool"),
    ],
)
def test_sparsity_and_ell_rules_refuse_a_non_integer(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Every public entry that takes a privacy budget epsilon, called with the given epsilon.
_EPSILON_ENTRIES = {
    "exp_epsilon": exp_epsilon,
    "flip_probability": flip_probability,
    "hr_decode_raw": lambda eps: hr_decode_raw(np.full(16, 0.5), eps, 10),
    "ldp_contraction_ceiling": lambda eps: ldp_contraction_ceiling(eps, 2, 0.05),
    "ldp_risk_bound": lambda eps: ldp_risk_bound(1000, 8, eps, 10),
    "ldp_sample_size": lambda eps: ldp_sample_size(1000, 8, 0.2, eps),
}


@pytest.mark.parametrize("epsilon", [None, True, "1.0"], ids=["None", "True", "str"])
@pytest.mark.parametrize("entry", sorted(_EPSILON_ENTRIES))
def test_every_epsilon_entry_refuses_a_non_number(entry, epsilon):
    # each raised a bare TypeError, or read True as 1
    with pytest.raises(ValueError, match=f"^{re.escape(f'epsilon must be a real number, not {epsilon!r}')}$"):
        _EPSILON_ENTRIES[entry](epsilon)


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(lambda s: effective_ell(5, s), np.int64(4), id="effective_ell"),
        pytest.param(lambda s: comm_stage_sizes(1000, s, 0.2, 5), np.int64(4), id="comm_stage_sizes"),
        pytest.param(hadamard_dim, np.int64(1000), id="hadamard_dim"),
        pytest.param(hadamard_dim, 2.5, id="hadamard_dim-float"),
        pytest.param(hadamard_dim, True, id="hadamard_dim-bool"),
    ],
)
def test_bit_length_entries_read_any_integer_and_only_integers(call, value):
    # each called .bit_length() on its argument: a NumPy integer raised
    # AttributeError, a float too, and True was read as 1
    if isinstance(value, np.integer):
        assert call(value) == call(int(value))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(f'k must be an integer, not {value!r}')}$"):
            call(value)


def test_sparsity_and_ell_rules_take_numpy_integers():
    check_sparsity(16, np.int64(2))
    check_ell(np.uint8(3))
    assert uniform_sparse_stack(16, np.int64(2), [1]).shape == (1, 16)
    assert ldp_risk_bound(1000, np.int64(8), 1.0, 1000) == ldp_risk_bound(1000, 8, 1.0, 1000)
