"""One-bit Hadamard response: encode, aggregate, decode, privacy."""

import math

import numpy as np
import pytest

from oracles import hr_aggregate, hr_encode, hr_encode_batch, in_column_set, scatter
from sparse_dist_lab.bounds import verify_ldp
from sparse_dist_lab.core import derive_key, keyed_generator
from sparse_dist_lab.hadamard import hadamard_dim
from sparse_dist_lab.hadamard_response import (
    hr_channel_matrix,
    hr_decode_raw,
    hr_draw_fractions,
    hr_expected_fractions,
    hr_run_stack,
)
from sparse_dist_lab.projection import project_simplex_vec, top_s_indices


def draw_fractions(p, n, eps, key):
    """The K group fractions of one target, the one row of hr_draw_fractions."""
    return hr_draw_fractions(np.asarray(p, dtype=np.float64)[None], n, eps, [key])[0]


# ------------------------------------------------------------------- encoding


def test_encode_emits_one_bit():
    assert hr_encode(3, 11, 1.0, 8, keyed_generator(derive_key(0, 0))) in (0, 1)


def test_encode_deterministic():
    a = hr_encode(5, 2, 0.7, 8, keyed_generator(derive_key(4, 1)))
    b = hr_encode(5, 2, 0.7, 8, keyed_generator(derive_key(4, 1)))
    assert a == b


def test_encode_batch_monte_carlo_rates():
    # All users hold x=5 at K=8; group j sees 1s at rate 0.75 when 5 is in
    # B_j and 0.25 otherwise (eps = ln 3). Binomial 3-sigma per group.
    K, n, x = 8, 10**5, 5
    eps = math.log(3)
    xs = np.full(n, x)
    bits = hr_encode_batch(xs, eps, K, keyed_generator(derive_key(1, 0)))
    fracs, sizes = hr_aggregate(bits, n, K)
    for j in range(K):
        want = 0.75 if in_column_set(K, j, x) else 0.25
        sigma = math.sqrt(0.75 * 0.25 / sizes[j])
        assert abs(fracs[j] - want) <= 3 * sigma


def test_encode_scalar_rate_smoke():
    # 2000 draws of the in-set cell at eps = ln 3; mean within 4 sigma.
    eps = math.log(3)
    gen = np.random.Generator(np.random.Philox(key=derive_key(8, 0)))
    bits = [hr_encode(0, 0, eps, 2, gen) for _ in range(2000)]
    rate = np.mean(bits)
    assert abs(rate - 0.75) <= 4 * math.sqrt(0.75 * 0.25 / 2000)


# ---------------------------------------------------------------- aggregation


def test_aggregate_all_ones():
    K, n = 4, 12
    fracs, sizes = hr_aggregate(np.ones(n, dtype=np.uint8), n, K)
    assert np.allclose(fracs, 1.0)
    assert sizes.sum() == n


def test_aggregate_two_rounds_split_evenly():
    # n = 2K users, bit = 1 on the first round through the groups and 0 on
    # the second: every group holds exactly one 1 and one 0.
    K = 8
    n = 2 * K
    bits = (np.arange(n) < K).astype(np.uint8)
    fracs, sizes = hr_aggregate(bits, n, K)
    assert np.allclose(fracs, 0.5)
    assert np.all(sizes == 2)


def test_aggregate_requires_full_groups():
    with pytest.raises(ValueError):
        hr_aggregate(np.ones(7, dtype=np.uint8), 7, 8)


def test_fractions_validation():
    for bad in ([0.5, 1.5], [-0.1, 0.5], [0.5, np.nan], [[0.5, 0.5], [0.5, 1.5]]):
        with pytest.raises(ValueError, match=r"fractions must lie in \[0,1\]"):
            hr_decode_raw(np.array(bad), 1.0, 1)


# ------------------------------------------------------------------- decoding


def test_decode_inverts_noiseless_fractions():
    gen = np.random.default_rng(7)
    for k in (5, 7):
        K = hadamard_dim(k)
        assert K == 8
        for eps in (0.5, 1.0, 2.0):
            p = gen.dirichlet(np.ones(k))
            t = hr_expected_fractions(p, eps, K)
            tilde = hr_decode_raw(t, eps, k)
            assert np.allclose(tilde, p, atol=1e-12)


def test_decode_point_mass_both_modes():
    k = 7
    K = hadamard_dim(k)
    p = np.zeros(k)
    p[4] = 1.0
    raw = hr_decode_raw(hr_expected_fractions(p[None], 1.0, K), 1.0, k)
    for s in (k, 1):
        T = top_s_indices(raw, s)
        out = scatter(T, project_simplex_vec(np.take_along_axis(raw, T, axis=1)), k)[0]
        assert np.allclose(out, p, atol=1e-9)


def test_decode_trial_average_tracks_p():
    # 50 trials at n=1e6; the averaged pre-projection estimate should sit
    # within 3 sigma of p coordinatewise, using the sub-Gaussian proxy
    # 2 (e^eps+1)^2 / (n (e^eps-1)^2) for a single trial.
    k, s, eps, n, trials = 8, 2, 1.0, 10**6, 50
    gen = np.random.default_rng(13)
    p = np.zeros(k)
    p[[2, 6]] = gen.dirichlet(np.ones(s))
    acc = np.zeros(k)
    for t in range(trials):
        fr = draw_fractions(p, n, eps, derive_key(1000 + t, 0))
        acc += hr_decode_raw(fr, eps, k)
    mean = acc / trials
    e = math.exp(eps)
    sigma_mean = math.sqrt(2 / (n * trials)) * (e + 1) / (e - 1)
    assert np.all(np.abs(mean - p) <= 3 * sigma_mean)


def test_end_to_end_unbiasedness():
    # 200 cheap trials; coordinatewise |mean - p| <= 4 sigma / sqrt(trials).
    k, eps, n, trials = 8, 1.0, 20000, 200
    p = np.zeros(k)
    p[[0, 5]] = [0.3, 0.7]
    acc = np.zeros(k)
    for t in range(trials):
        fr = draw_fractions(p, n, eps, derive_key(t, 3))
        acc += hr_decode_raw(fr, eps, k)
    mean = acc / trials
    e = math.exp(eps)
    tol = 4 * math.sqrt(2 / n) * (e + 1) / (e - 1) / math.sqrt(trials)
    assert np.all(np.abs(mean - p) <= tol)


def test_decode_raw_rejects_oversized_k():
    with pytest.raises(ValueError):
        hr_decode_raw(np.full(8, 0.5), 1.0, 9)


def test_run_recovers_sparse_target():
    p = np.zeros(50)
    p[[3, 30]] = 0.5
    T, _, est = hr_run_stack(p[None], 200000, 1.0, 2, [derive_key(5, 0)])
    tv = 0.5 * np.abs(scatter(T, est, 50)[0] - p).sum()
    assert tv <= 0.05


def test_sampler_agrees_with_encoder_in_distribution():
    # A symbol batch laid out so every group holds exactly n_j * p of each
    # symbol goes through per-user encoding plus aggregation; the binomial
    # sampler draws from p directly. Both mean fractions must sit within
    # 4 sigma of the noiseless t = hr_expected_fractions(p).
    k, eps, reps, draws = 6, 1.0, 50, 200
    K = hadamard_dim(k)
    rounds = np.array([0, 0, 0, 1, 1, 2, 3, 4])  # one cycle: p = (3,2,1,1,1,0)/8
    p = np.bincount(rounds, minlength=k) / rounds.size
    xs = np.repeat(np.tile(rounds, reps), K)  # user i holds rounds[(i // K) % 8]
    n = xs.size
    t_want = hr_expected_fractions(p, eps, K)
    acc_enc = np.zeros(K)
    acc_sim = np.zeros(K)
    for t in range(draws):
        acc_enc += hr_aggregate(hr_encode_batch(xs, eps, K, keyed_generator(derive_key(t, 17))), n, K)[0]
        acc_sim += draw_fractions(p, n, eps, derive_key(t, 19))
    sigma = np.sqrt(t_want * (1 - t_want) / (n // K)) / math.sqrt(draws)
    assert np.all(np.abs(acc_enc / draws - t_want) <= 4 * sigma)
    assert np.all(np.abs(acc_sim / draws - t_want) <= 4 * sigma)


def test_simulate_fractions_tolerates_round_off_past_one():
    # At eps=40 the in-set response rate rounds to 1.0, and this p's
    # noiseless fraction for group 0 then lands one ulp above 1.
    p = np.random.default_rng(3).dirichlet(np.ones(21))
    assert hr_expected_fractions(p, 40.0, 32).max() > 1
    fracs = draw_fractions(p, 3200, 40.0, derive_key(0, 0))
    assert np.all(fracs <= 1)


def test_simulate_fractions_requires_full_groups():
    with pytest.raises(ValueError, match="K=8"):
        draw_fractions([0.25] * 4, 7, 1.0, derive_key(0, 0))


def test_simulate_fractions_deterministic():
    P = np.array([[0.25] * 4, [0.7, 0.1, 0.1, 0.1]])
    keys = [derive_key(7, 7), derive_key(7, 8)]
    a = hr_draw_fractions(P, 1000, 1.0, keys)
    b = hr_draw_fractions(P, 1000, 1.0, keys)
    assert np.array_equal(a, b)
    assert a.shape == (2, hadamard_dim(4))
    # a row's fractions depend only on its own target and key
    assert np.array_equal(a[1], draw_fractions(P[1], 1000, 1.0, keys[1]))


# -------------------------------------------------------------------- privacy


def test_channel_matrix_group_zero_is_constant():
    W = hr_channel_matrix(1.0, 8, 0)
    assert np.allclose(W, W[0])


def test_channel_matrix_rows_are_response_probs():
    eps = math.log(3)
    W = hr_channel_matrix(eps, 8, 3, k=7)
    for x in range(7):
        want1 = 0.75 if in_column_set(8, 3, x) else 0.25
        assert W[x, 1] == pytest.approx(want1, abs=1e-12)
        assert W[x].sum() == pytest.approx(1.0, abs=1e-12)


def test_channels_are_ldp_at_their_epsilon():
    for eps in (0.1, 0.5, 1.0, 2.0):
        for j in (1, 3, 5):
            W = hr_channel_matrix(eps, 8, j)
            assert verify_ldp(W, eps)
            assert not verify_ldp(W, 0.99 * eps)


def test_single_symbol_channel_is_trivially_private():
    # K=2 leaves a one-row channel (k = K-1 = 1); with a single input there
    # is nothing to distinguish, so the check passes at every epsilon.
    W = hr_channel_matrix(1.0, 2, 1)
    assert W.shape == (1, 2)
    assert verify_ldp(W, 0.001)
