"""Per-bit randomized flipping and the two-stage sparse estimator."""

import math

import numpy as np
import pytest

from oracles import column_sums, rappor_encode, rappor_encode_batch
from sparse_dist_lab.bounds import verify_ldp
from sparse_dist_lab.core import derive_key, keyed_generator, tv_distance
from sparse_dist_lab.projection import split_half_counts, split_half_decode, top_s_indices
from sparse_dist_lab.rappor import flip_probability, rappor_channel_matrix, rappor_run_stack


def decode(M, N, m2, s, eps):
    """The split-half decode of one row of counts at rappor's constants."""
    q = flip_probability(eps)
    T = top_s_indices(np.asarray(M), 2 * s)
    raw, out = split_half_decode(T[None], np.asarray(N)[T][None], len(M), m2, q, q)
    return T, raw[0], out[0]


def run(P, n, eps, s, keys):
    """rappor_run_stack's projected estimates of a (B, k) stack."""
    return rappor_run_stack(P, n, eps, s, keys)[2]


def test_flip_probability_values():
    # e^{eps/2} = 3 gives flip probability 1/4.
    assert flip_probability(2 * math.log(3)) == pytest.approx(0.25, abs=1e-15)
    assert flip_probability(0.5) == pytest.approx(1 / (math.exp(0.25) + 1), abs=1e-15)


def test_encode_high_epsilon_is_one_hot():
    # At eps=40 the flip probability is ~2e-9; a thousand encodings of k=8
    # bits make ~1.7e-5 expected flips, so demanding zero is safe.
    gen = np.random.Generator(np.random.Philox(key=derive_key(2, 0)))
    for t in range(1000):
        msg = rappor_encode(3, 40.0, 8, gen)
        want = np.zeros(8, dtype=np.uint8)
        want[3] = 1
        assert np.array_equal(msg, want)


def test_encode_empirical_flip_rates():
    # 1e5 encodings of the same symbol; every bit's 1-rate within 3 sigma.
    k, x = 6, 2
    eps = 2 * math.log(3)
    bits = rappor_encode_batch(np.full(10**5, x), eps, k, keyed_generator(derive_key(3, 0)))
    rates = bits.mean(axis=0)
    for b in range(k):
        want = 0.75 if b == x else 0.25
        sigma = math.sqrt(want * (1 - want) / 10**5)
        assert abs(rates[b] - want) <= 3 * sigma


def test_encode_batch_matches_scalar_law():
    msg = rappor_encode(1, 1.0, 5, keyed_generator(derive_key(9, 0)))
    assert msg.shape == (5,)
    assert set(np.unique(msg)) <= {0, 1}


def test_estimate_noiseless_fixture():
    # If second-half rates equal gamma*p + beta exactly on a support that
    # the first half ranks on top, the estimator returns p itself.
    k, s, eps, m2 = 10, 2, 1.0, 1000
    q = flip_probability(eps)
    beta, gamma = q, 1 - 2 * q
    p = np.zeros(k)
    p[[1, 7]] = [0.4, 0.6]
    M = np.zeros(k)
    M[[1, 7, 3, 5]] = [50, 60, 10, 5]  # top-2s = {1,3,5,7}
    N = m2 * (gamma * p + beta)
    T, raw, out = decode(M, N, m2, s, eps)
    assert set(T) == {1, 3, 5, 7}
    assert np.allclose(raw[[1, 7]], [0.4, 0.6], atol=1e-12)
    assert np.allclose(out, p, atol=1e-9)


def test_point_mass_recovery_rate():
    # Point mass, k=100, s=1, n=1e5: the point is captured and TV <= 0.05 in
    # at least 95 of 100 seeded trials.
    k, s, eps, n = 100, 1, 1.0, 10**5
    p = np.zeros(k)
    p[42] = 1.0
    out = run(np.tile(p, (100, 1)), n, eps, s, [derive_key(t, 1) for t in range(100)])
    hits = sum(tv_distance(row, p) <= 0.05 for row in out)
    assert hits >= 95


def test_user_permutation_within_half_is_irrelevant():
    gen = np.random.default_rng(4)
    k, s, eps = 12, 2, 1.0
    first = rappor_encode_batch(gen.integers(0, k, 60), eps, k, keyed_generator(derive_key(5, 0)))
    second = rappor_encode_batch(gen.integers(0, k, 60), eps, k, keyed_generator(derive_key(5, 1)))
    base = decode(column_sums(first), column_sums(second), 60, s, eps)[2]
    perm1 = first[gen.permutation(60)]
    perm2 = second[gen.permutation(60)]
    shuffled = decode(column_sums(perm1), column_sums(perm2), 60, s, eps)[2]
    assert np.array_equal(base, shuffled)


def test_estimate_rejects_oversized_support():
    with pytest.raises(ValueError, match="2s=6 would exceed k=5"):
        run(np.full((1, 5), 0.2), 10, 1.0, 3, [derive_key(0, 0)])


def test_estimate_rejects_empty_half():
    # one user leaves the first half empty
    with pytest.raises(ValueError, match="at least two users"):
        run(np.full((1, 4), 0.25), 1, 1.0, 1, [derive_key(0, 0)])


def test_channel_is_ldp_exactly():
    # Exact 2^k-output channel for small k; passes at eps, fails at 0.99 eps.
    for eps in (0.5, 1.0, 2.0):
        for k in (2, 3, 4):
            W = rappor_channel_matrix(eps, k)
            assert W.shape == (k, 2**k)
            assert verify_ldp(W, eps)
            assert not verify_ldp(W, 0.99 * eps)


def test_unbiasedness_on_support():
    # Average the raw per-coordinate estimates over 200 runs; the mean on
    # supp(p) must sit within 4 sigma of p (binomial variance of N/m2
    # propagated through the affine inversion).
    k, s, eps, n, trials = 20, 2, 1.0, 20000, 200
    m2 = n // 2
    q = flip_probability(eps)
    p = np.zeros(k)
    p[[4, 11]] = [0.35, 0.65]
    T, raw, _ = rappor_run_stack(np.tile(p, (trials, 1)), n, eps, s, [derive_key(t, 2) for t in range(trials)])
    assert all({4, 11} <= set(row) for row in T)  # easy support at this n
    mean = raw.mean(axis=0)
    gamma = 1 - 2 * q
    for x, px in ((4, 0.35), (11, 0.65)):
        b = gamma * px + q
        sigma = math.sqrt(b * (1 - b) / m2) / gamma / math.sqrt(trials)
        assert abs(mean[x] - px) <= 4 * sigma


def test_error_shrinks_with_sparsity():
    # Fixed n: smaller support should be easier. Compare s=1 vs s=16 means
    # over 10 trials with a generous separation requirement.
    k, eps, n, trials = 64, 1.0, 30000, 10

    def mean_tv(s):
        P = np.zeros((trials, k))
        for t in range(trials):
            P[t, keyed_generator(derive_key(200 + t, s)).choice(k, size=s, replace=False)] = 1 / s
        out = run(P, n, eps, s, [derive_key(100 + t, s) for t in range(trials)])
        return tv_distance(out, P).mean()

    assert mean_tv(1) < mean_tv(16)


def test_hist_sampler_matches_expectation():
    # E[M(x)] = c(x)(1-q) + (m-c(x))q; average 400 draws, 4 sigma.
    k, m, eps = 6, 500, 1.0
    q = flip_probability(eps)
    c = np.array([200, 150, 100, 50, 0, 0])
    acc = np.zeros(k)
    draws = 400
    for t in range(draws):
        acc += split_half_counts(c, m, q, q, keyed_generator(derive_key(t, 5)))
    mean = acc / draws
    want = c * (1 - q) + (m - c) * q
    sigma = np.sqrt(c * q * (1 - q) + (m - c) * q * (1 - q)) / math.sqrt(draws)
    assert np.all(np.abs(mean - want) <= 4 * sigma)


def test_sampler_agrees_with_encoder_in_distribution():
    # One symbol batch pushed through per-user encoding plus column sums and
    # through the histogram sampler: both means within 4 sigma of the
    # common target c(1-q) + (m-c)q.
    k, m, eps = 8, 500, 1.0
    q = flip_probability(eps)
    xs = np.random.default_rng(21).integers(0, 5, m)  # symbols 5..7 unused
    c = np.bincount(xs, minlength=k)
    draws = 200
    acc_enc = np.zeros(k)
    acc_hist = np.zeros(k)
    for t in range(draws):
        acc_enc += column_sums(rappor_encode_batch(xs, eps, k, keyed_generator(derive_key(t, 17))))
        acc_hist += split_half_counts(c, m, q, q, keyed_generator(derive_key(t, 19)))
    want = c * (1 - q) + (m - c) * q
    sigma = math.sqrt(m * q * (1 - q)) / math.sqrt(draws)
    assert np.all(np.abs(acc_enc / draws - want) <= 4 * sigma)
    assert np.all(np.abs(acc_hist / draws - want) <= 4 * sigma)


def test_run_deterministic():
    p = np.zeros((1, 16))
    p[0, [0, 9]] = 0.5
    a = run(p, 2000, 1.0, 2, [derive_key(11, 0)])
    b = run(p, 2000, 1.0, 2, [derive_key(11, 0)])
    assert np.array_equal(a, b)
