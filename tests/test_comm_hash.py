"""Public-coin hashing scheme: PRF, preimage counts, two-stage decode."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hash_eval
from sparse_dist_lab.comm_hash import (
    HashScheme,
    b_of,
    comm_encode_batch,
    comm_run_details,
    comm_run_stack,
    effective_ell,
    hash_eval_batch,
    pack_values,
    preimage_counts,
    sample_preimage_counts_hist,
    unpack_values,
)
from sparse_dist_lab.core import RandomStream, sample_iid, tv_distance
from sparse_dist_lab.projection import split_half_decode


def decode(M, N, m2, scheme, k, s):
    """The split-half decode of one row of counts at comm_hash's constants."""
    inv_b = 1 / scheme.num_buckets
    T, raw, out = split_half_decode(np.asarray(M)[None], np.asarray(N)[None], m2, min(2 * s, k), inv_b, 1 - inv_b)
    return T[0], raw[0], out[0]


def test_effective_ell_cap():
    # ceil(log2 s) + 1 bits suffice; raw ell is kept only for reporting.
    assert effective_ell(5, 1) == 1
    assert effective_ell(5, 2) == 2
    assert effective_ell(5, 4) == 3
    assert effective_ell(5, 8) == 4
    assert effective_ell(3, 8) == 3  # ell below the cap is untouched
    assert effective_ell(7, None) == 7  # no sparsity hint


def test_scheme_bucket_count():
    s = HashScheme(123, 3, 100, 8)
    assert s.ell_eff == 3
    assert s.num_buckets == 8
    t = HashScheme(123, 6, 100, 4)
    assert t.ell_eff == 3
    assert t.num_buckets == 8


def test_hash_is_deterministic():
    s = HashScheme(42, 3, 50)
    assert hash_eval(s, 7, 13) == hash_eval(s, 7, 13)
    users = np.arange(20)
    xs = np.full(20, 13)
    batch = hash_eval_batch(s, users, xs)
    assert batch[7] == hash_eval(s, 7, 13)


def test_hash_buckets_near_uniform():
    # 1e6 (user, x) pairs at ell=3: every bucket within 1/8 +- 0.002.
    s = HashScheme(7, 3, 100)
    gen = np.random.default_rng(0)
    users = gen.integers(0, 10**6, 10**6)
    xs = gen.integers(0, 100, 10**6)
    vals = hash_eval_batch(s, users, xs)
    freq = np.bincount(vals, minlength=8) / 10**6
    assert np.all(np.abs(freq - 0.125) < 0.002)


def test_hash_seed_sensitivity():
    # Distinct public seeds should disagree on almost all probes at ell=8
    # (collision chance 2^-8 per pair).
    a = HashScheme(1, 8, 1000)
    b = HashScheme(2, 8, 1000)
    users = np.arange(10**4)
    xs = np.tile(np.arange(100), 100)
    frac_diff = np.mean(hash_eval_batch(a, users, xs) != hash_eval_batch(b, users, xs))
    assert frac_diff >= 0.99


def test_encode_range_and_value():
    s = HashScheme(11, 1, 10)
    values = comm_encode_batch(np.arange(10), s, first_user=3)  # user 3 + x holds x
    for x in range(10):
        assert values[x] in (0, 1)
        assert values[x] == hash_eval(s, 3 + x, x)
    with pytest.raises(ValueError):
        hash_eval(s, 3, 10)


def test_b_of_values():
    assert b_of(0.0, 3) == pytest.approx(1 / 8, abs=1e-15)
    assert b_of(1.0, 3) == pytest.approx(1.0, abs=1e-15)
    assert b_of(0.5, 1) == pytest.approx(0.75, abs=1e-15)


def test_preimage_counts_empty():
    s = HashScheme(5, 2, 6)
    none = np.array([], dtype=np.int64)
    assert np.array_equal(preimage_counts((none, none), s, 6), np.zeros(6, dtype=np.int64))


def test_preimage_counts_injective_regime():
    # ell=16 on k=4: cross-symbol collisions have probability 2^-16, so
    # counts equal plain multiplicities at this seed.
    k = 4
    s = HashScheme(9, 16, k)  # no sparsity hint: full 16 bits
    xs = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3] * 5)
    values = comm_encode_batch(xs, s, first_user=0)
    counts = preimage_counts((np.arange(xs.size), values), s, k)
    assert np.array_equal(counts, np.bincount(xs, minlength=k))


def test_preimage_counts_against_direct_scan():
    # Small-scale oracle: count matches per message per symbol by definition.
    k, m = 16, 200
    s = HashScheme(3, 2, k)
    gen = np.random.default_rng(1)
    xs = gen.integers(0, k, m)
    values = comm_encode_batch(xs, s, first_user=0)
    got = preimage_counts((np.arange(m), values), s, k)
    want = np.zeros(k, dtype=np.int64)
    for i in range(m):
        for x in range(k):
            if hash_eval(s, i, x) == values[i]:
                want[x] += 1
    assert np.array_equal(got, want)


def test_preimage_counts_total_mass():
    # Each message's preimage has expected size 1 + (k-1) 2^-ell.
    k, m, ell = 100, 20000, 3
    s = HashScheme(21, ell, k)
    gen = np.random.default_rng(2)
    xs = gen.integers(0, k, m)
    values = comm_encode_batch(xs, s, first_user=0)
    total = preimage_counts((np.arange(m), values), s, k).sum()
    want = m * (1 + (k - 1) / 2**ell)
    sigma = math.sqrt(m * (k - 1) * (1 / 2**ell) * (1 - 1 / 2**ell))
    assert abs(total - want) <= 4 * sigma


def test_decode_exact_counts_invert():
    # N(x) = m2 * b(p(x)) exactly -> raw estimate equals p on T.
    k, s_sp, ell, m2 = 12, 2, 3, 4096
    scheme = HashScheme(3, ell, k, s_sp)
    assert scheme.ell_eff == 2  # capped at ceil(log2 s) + 1
    inv_b = 1 / scheme.num_buckets
    p = np.zeros(k)
    p[[2, 9]] = [0.25, 0.75]
    M = np.zeros(k)
    M[[2, 9, 0, 5]] = [40, 60, 10, 5]
    N = m2 * (p * (1 - inv_b) + inv_b)
    T, raw, out = decode(M, N, m2, scheme, k, s_sp)
    assert set(T) == {0, 2, 5, 9}
    assert np.allclose(raw[[2, 9]], [0.25, 0.75], atol=1e-12)
    assert np.allclose(out, p, atol=1e-9)


def test_decode_full_preimage_means_one():
    k, s_sp = 6, 1
    scheme = HashScheme(3, 2, k, s_sp)
    m2 = 100
    M = np.arange(k, dtype=float)
    N = np.full(k, m2, dtype=float)
    _, raw, _ = decode(M, N, m2, scheme, k, s_sp)
    on_T = raw[np.nonzero(raw)]
    assert np.allclose(on_T, 1.0, atol=1e-12)


def test_decode_clamps_support_to_k():
    k, s_sp = 3, 2  # 2s > k
    T, _, _ = comm_run_stack(np.full((1, k), 1 / k), 200, 2, s_sp, [RandomStream(3, 0)])
    assert sorted(T[0].tolist()) == [0, 1, 2]


def test_decode_from_messages_roundtrip():
    k, s_sp, ell, n = 32, 2, 4, 4000
    scheme = HashScheme(17, ell, k, s_sp)
    p = np.zeros(k)
    p[[5, 20]] = 0.5
    stream = RandomStream(3, 0)
    xs1 = sample_iid(p, n // 2, stream.child(0))
    xs2 = sample_iid(p, n // 2, stream.child(1))
    users1 = np.arange(n // 2)
    users2 = n // 2 + users1
    M = preimage_counts((users1, comm_encode_batch(xs1, scheme, first_user=0)), scheme, k)
    N = preimage_counts((users2, comm_encode_batch(xs2, scheme, first_user=n // 2)), scheme, k)
    _, _, out = decode(M, N, n // 2, scheme, k, s_sp)
    assert tv_distance(out, p) <= 0.1


def test_hist_sampler_matches_expectation():
    # M(x) ~ c(x) + Binom(m - c(x), 1/buckets): check the mean over draws.
    k, m, ell = 5, 400, 2
    scheme = HashScheme(31, ell, k)
    c = np.array([100, 100, 100, 100, 0])
    draws = 400
    acc = np.zeros(k)
    for t in range(draws):
        acc += sample_preimage_counts_hist(c, m, scheme, RandomStream(t, 9))
    mean = acc / draws
    want = c + (m - c) / 4
    sigma = np.sqrt((m - c) * 0.25 * 0.75) / math.sqrt(draws)
    assert np.all(np.abs(mean - want) <= 4 * sigma)


def test_sampler_agrees_with_scan_in_distribution():
    # Same symbol batch pushed through the explicit PRF scan and through the
    # ideal-hash sampler: means within 4 sigma of each other's common target.
    k, m, ell = 10, 2000, 2
    scheme = HashScheme(8, ell, k)
    gen = np.random.default_rng(12)
    xs = gen.integers(0, k, m)
    c = np.bincount(xs, minlength=k)
    draws = 200
    acc_scan = np.zeros(k)
    acc_hist = np.zeros(k)
    for t in range(draws):
        sch = HashScheme(1000 + t, ell, k)  # fresh public coins per draw
        values = comm_encode_batch(xs, sch, first_user=0)
        acc_scan += preimage_counts((np.arange(m), values), sch, k)
        acc_hist += sample_preimage_counts_hist(c, m, scheme, RandomStream(t, 13))
    want = c + (m - c) / 4
    sigma = np.sqrt((m - c) * 0.25 * 0.75) / math.sqrt(draws)
    assert np.all(np.abs(acc_scan / draws - want) <= 4 * sigma)
    assert np.all(np.abs(acc_hist / draws - want) <= 4 * sigma)


def test_unbiasedness_on_support():
    # Average raw estimates over repeated runs; supp(p) coordinates match p.
    k, s_sp, ell, n, trials = 16, 2, 3, 4096, 300
    p = np.zeros(k)
    p[[3, 12]] = [0.3, 0.7]
    acc = np.zeros(k)
    captured = 0
    for t in range(trials):
        T, raw, _ = comm_run_details(p, n, ell, s_sp, RandomStream(t, 21))
        if {3, 12} <= set(T):
            captured += 1
        acc += raw
    assert captured == trials
    mean = acc / trials
    m2 = n // 2
    for x, px in ((3, 0.3), (12, 0.7)):
        b = b_of(px, effective_ell(ell, s_sp))
        buckets = 2 ** effective_ell(ell, s_sp)
        sigma = (
            buckets
            * math.sqrt(b * (1 - b) / m2)
            / (buckets - 1)
            / math.sqrt(trials)
        )
        assert abs(mean[x] - px) <= 4 * sigma


def test_more_bits_do_not_hurt():
    k, s_sp, n, trials = 64, 4, 20000, 10

    def mean_tv(ell):
        total = 0.0
        for t in range(trials):
            supp = RandomStream(50 + t, 0).gen.choice(k, size=s_sp, replace=False)
            p = np.zeros(k)
            p[supp] = 1 / s_sp
            total += tv_distance(comm_run_details(p, n, ell, s_sp, RandomStream(t, ell))[2], p)
        return total / trials

    assert mean_tv(3) < mean_tv(1)


def test_run_deterministic_and_public_seed_matters():
    # The ideal-hash counts law has no public coins left to vary; the
    # trial's stream is the only seed, and changing it changes the run.
    p = np.zeros(20)
    p[[1, 15]] = 0.5
    a = comm_run_details(p, 2000, 3, 2, RandomStream(5, 0))[2]
    b = comm_run_details(p, 2000, 3, 2, RandomStream(5, 0))[2]
    c = comm_run_details(p, 2000, 3, 2, RandomStream(6, 0))[2]
    assert np.array_equal(a.probs, b.probs)
    assert not np.array_equal(a.probs, c.probs)


def test_run_rejects_tiny_n():
    with pytest.raises(ValueError):
        comm_run_details([1.0], 1, 1, 1, RandomStream(0, 0))


def test_pack_unpack_roundtrip_basic():
    vals = np.array([0, 1, 2, 3, 4, 5, 6, 7])
    data = pack_values(vals, 3)
    assert len(data) == math.ceil(8 * 3 / 8)
    assert np.array_equal(unpack_values(data, 3, 8), vals)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_pack_unpack_roundtrip_property(ell, data):
    count = data.draw(st.integers(min_value=0, max_value=50))
    vals = np.array(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**ell - 1),
                min_size=count,
                max_size=count,
            )
        ),
        dtype=np.int64,
    )
    packed = pack_values(vals, ell)
    assert len(packed) == math.ceil(count * ell / 8)
    assert np.array_equal(unpack_values(packed, ell, count), vals)
