"""Public-coin hashing scheme: the hash oracle's preimage scan, the counts law, two-stage decode."""

import math

import numpy as np
import pytest

from oracles import comm_encode_batch, hash_eval, hash_eval_batch, preimage_counts, sample_iid
from sparse_dist_lab.comm_hash import comm_run_stack, effective_ell
from sparse_dist_lab.core import derive_key, keyed_generator, tv_distance
from sparse_dist_lab.projection import split_half_counts, split_half_decode, top_s_indices


def decode(M, N, m2, buckets, k, s):
    """The split-half decode of one row of counts at comm_hash's constants."""
    T = top_s_indices(np.asarray(M), min(2 * s, k))
    raw, out = split_half_decode(T[None], np.asarray(N)[T][None], k, m2, 0.0, 1 / buckets)
    return T, raw[0], out[0]


def test_effective_ell_cap():
    # ceil(log2 s) + 1 bits suffice; raw ell is kept only for reporting.
    assert effective_ell(5, 1) == 1
    assert effective_ell(5, 2) == 2
    assert effective_ell(5, 4) == 3
    assert effective_ell(5, 8) == 4
    assert effective_ell(3, 8) == 3  # ell below the cap is untouched
    assert effective_ell(7, None) == 7  # no sparsity hint


def test_hash_is_deterministic():
    assert hash_eval(42, 8, 7, 13) == hash_eval(42, 8, 7, 13)
    users = np.arange(20)
    xs = np.full(20, 13)
    batch = hash_eval_batch(42, 8, users, xs)
    assert batch[7] == hash_eval(42, 8, 7, 13)


def test_hash_buckets_near_uniform():
    # 1e6 (user, x) pairs at ell=3: every bucket within 1/8 +- 0.002.
    gen = np.random.default_rng(0)
    users = gen.integers(0, 10**6, 10**6)
    xs = gen.integers(0, 100, 10**6)
    vals = hash_eval_batch(7, 8, users, xs)
    freq = np.bincount(vals, minlength=8) / 10**6
    assert np.all(np.abs(freq - 0.125) < 0.002)


def test_hash_seed_sensitivity():
    # Distinct public seeds should disagree on almost all probes at ell=8
    # (collision chance 2^-8 per pair).
    users = np.arange(10**4)
    xs = np.tile(np.arange(100), 100)
    frac_diff = np.mean(hash_eval_batch(1, 256, users, xs) != hash_eval_batch(2, 256, users, xs))
    assert frac_diff >= 0.99


def test_encode_range_and_value():
    values = comm_encode_batch(np.arange(10), 11, 2, first_user=3)  # user 3 + x holds x
    for x in range(10):
        assert values[x] in (0, 1)
        assert values[x] == hash_eval(11, 2, 3 + x, x)


def test_preimage_counts_empty():
    none = np.array([], dtype=np.int64)
    assert np.array_equal(preimage_counts(none, none, 5, 4, 6), np.zeros(6, dtype=np.int64))


def test_preimage_counts_injective_regime():
    # ell=16 on k=4: cross-symbol collisions have probability 2^-16, so
    # counts equal plain multiplicities at this seed.
    k = 4
    xs = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3] * 5)
    values = comm_encode_batch(xs, 9, 2**16)
    counts = preimage_counts(np.arange(xs.size), values, 9, 2**16, k)
    assert np.array_equal(counts, np.bincount(xs, minlength=k))


def test_preimage_counts_against_direct_scan():
    # Small-scale oracle: count matches per message per symbol by definition.
    k, m = 16, 200
    gen = np.random.default_rng(1)
    xs = gen.integers(0, k, m)
    values = comm_encode_batch(xs, 3, 4)
    got = preimage_counts(np.arange(m), values, 3, 4, k)
    want = np.zeros(k, dtype=np.int64)
    for i in range(m):
        for x in range(k):
            if hash_eval(3, 4, i, x) == values[i]:
                want[x] += 1
    assert np.array_equal(got, want)


def test_preimage_counts_total_mass():
    # Each message's preimage has expected size 1 + (k-1) 2^-ell.
    k, m, ell = 100, 20000, 3
    gen = np.random.default_rng(2)
    xs = gen.integers(0, k, m)
    values = comm_encode_batch(xs, 21, 2**ell)
    total = preimage_counts(np.arange(m), values, 21, 2**ell, k).sum()
    want = m * (1 + (k - 1) / 2**ell)
    sigma = math.sqrt(m * (k - 1) * (1 / 2**ell) * (1 - 1 / 2**ell))
    assert abs(total - want) <= 4 * sigma


def test_decode_exact_counts_invert():
    # N(x) = m2 * b(p(x)) exactly -> raw estimate equals p on T.
    k, s_sp, ell, m2 = 12, 2, 3, 4096
    assert effective_ell(ell, s_sp) == 2  # capped at ceil(log2 s) + 1
    buckets = 2 ** effective_ell(ell, s_sp)
    inv_b = 1 / buckets
    p = np.zeros(k)
    p[[2, 9]] = [0.25, 0.75]
    M = np.zeros(k)
    M[[2, 9, 0, 5]] = [40, 60, 10, 5]
    N = m2 * (p * (1 - inv_b) + inv_b)
    T, raw, out = decode(M, N, m2, buckets, k, s_sp)
    assert set(T) == {0, 2, 5, 9}
    assert np.allclose(raw[[2, 9]], [0.25, 0.75], atol=1e-12)
    assert np.allclose(out, p, atol=1e-9)


def test_decode_full_preimage_means_one():
    k, s_sp = 6, 1
    m2 = 100
    M = np.arange(k, dtype=float)
    N = np.full(k, m2, dtype=float)
    _, raw, _ = decode(M, N, m2, 2 ** effective_ell(2, s_sp), k, s_sp)
    on_T = raw[np.nonzero(raw)]
    assert np.allclose(on_T, 1.0, atol=1e-12)


def test_decode_clamps_support_to_k():
    k, s_sp = 3, 2  # 2s > k
    T, _, _ = comm_run_stack(np.full((1, k), 1 / k), 200, 2, s_sp, [derive_key(3, 0)])
    assert sorted(T[0].tolist()) == [0, 1, 2]


def test_decode_from_messages_roundtrip():
    k, s_sp, ell, n = 32, 2, 4, 4000
    buckets = 2 ** effective_ell(ell, s_sp)
    p = np.zeros(k)
    p[[5, 20]] = 0.5
    key = derive_key(3, 0)
    xs1 = sample_iid(p, n // 2, keyed_generator(derive_key(key, 0)))
    xs2 = sample_iid(p, n // 2, keyed_generator(derive_key(key, 1)))
    users1 = np.arange(n // 2)
    users2 = n // 2 + users1
    M = preimage_counts(users1, comm_encode_batch(xs1, 17, buckets), 17, buckets, k)
    N = preimage_counts(users2, comm_encode_batch(xs2, 17, buckets, first_user=n // 2), 17, buckets, k)
    _, _, out = decode(M, N, n // 2, buckets, k, s_sp)
    assert tv_distance(out, p) <= 0.1


def test_hist_sampler_matches_expectation():
    # M(x) ~ c(x) + Binom(m - c(x), 1/buckets): check the mean over draws.
    k, m, ell = 5, 400, 2
    c = np.array([100, 100, 100, 100, 0])
    draws = 400
    acc = np.zeros(k)
    for t in range(draws):
        acc += split_half_counts(c, m, 0.0, 1 / 2**ell, keyed_generator(derive_key(t, 9)))
    mean = acc / draws
    want = c + (m - c) / 4
    sigma = np.sqrt((m - c) * 0.25 * 0.75) / math.sqrt(draws)
    assert np.all(np.abs(mean - want) <= 4 * sigma)


def test_sampler_agrees_with_scan_in_distribution():
    # Same symbol batch pushed through the explicit PRF scan and through the
    # ideal-hash sampler: means within 4 sigma of each other's common target.
    k, m, ell = 10, 2000, 2
    gen = np.random.default_rng(12)
    xs = gen.integers(0, k, m)
    c = np.bincount(xs, minlength=k)
    draws = 200
    acc_scan = np.zeros(k)
    acc_hist = np.zeros(k)
    for t in range(draws):
        seed = 1000 + t  # fresh public coins per draw
        acc_scan += preimage_counts(np.arange(m), comm_encode_batch(xs, seed, 2**ell), seed, 2**ell, k)
        acc_hist += split_half_counts(c, m, 0.0, 1 / 2**ell, keyed_generator(derive_key(t, 13)))
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
        T, raw, _ = (rows[0] for rows in comm_run_stack(p[None], n, ell, s_sp, [derive_key(t, 21)]))
        if {3, 12} <= set(T):
            captured += 1
        acc += raw
    assert captured == trials
    mean = acc / trials
    m2 = n // 2
    buckets = 2 ** effective_ell(ell, s_sp)
    for x, px in ((3, 0.3), (12, 0.7)):
        b = px * (1 - 1 / buckets) + 1 / buckets  # P(a message is consistent with x)
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
            supp = keyed_generator(derive_key(50 + t, 0)).choice(k, size=s_sp, replace=False)
            p = np.zeros(k)
            p[supp] = 1 / s_sp
            total += tv_distance(comm_run_stack(p[None], n, ell, s_sp, [derive_key(t, ell)])[2][0], p)
        return total / trials

    assert mean_tv(3) < mean_tv(1)


def test_run_deterministic_and_public_seed_matters():
    # The ideal-hash counts law has no public coins left to vary; the
    # trial's key is the only seed, and changing it changes the run.
    p = np.zeros(20)
    p[[1, 15]] = 0.5
    a = comm_run_stack(p[None], 2000, 3, 2, [derive_key(5, 0)])[2]
    b = comm_run_stack(p[None], 2000, 3, 2, [derive_key(5, 0)])[2]
    c = comm_run_stack(p[None], 2000, 3, 2, [derive_key(6, 0)])[2]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_rejects_tiny_n():
    with pytest.raises(ValueError):
        comm_run_stack(np.ones((1, 1)), 1, 1, 1, [derive_key(0, 0)])
