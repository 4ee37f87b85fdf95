"""Channel checks, exact chi-squared contraction, packing gap, planning."""

import itertools
import math

import numpy as np
import pytest

from sparse_dist_lab.bounds import (
    BoundReport,
    Channel,
    comm_stage_sizes,
    expected_chisq_over_packing,
    hamming_ball_count,
    implied_sample_lower_bound,
    indicator_response_channel,
    ldp_risk_bound,
    packing_gap,
    planned_sample_size,
    random_lbit_channel,
    randomized_response_channel,
    verification_suite,
    verify_ldp,
)
from sparse_dist_lab.core import (
    chi_square,
    derive_key,
    enumerate_packing_indices,
    induced_output_dist,
    make_packing_dist,
    packing_reference_dist,
)
from sparse_dist_lab.hadamard_response import hr_decode_raw


def slow_expected_chisq(W, k, s, alpha):
    """Reference oracle: average chi-square term by term over all z.

    Walks the packing family through the library's own one-distribution
    helpers (make_packing_dist -> induced_output_dist -> chi_square) instead of the
    production routine's vectorized row arithmetic.
    """
    q0 = induced_output_dist(W, packing_reference_dist(k, alpha))
    total = 0.0
    count = 0
    for z in enumerate_packing_indices(k, s):
        qz = induced_output_dist(W, make_packing_dist(z, alpha))
        total += chi_square(qz, q0)
        count += 1
    return total / count


# ------------------------------------------------------------------- channels


def test_channel_rejects_bad_rows():
    with pytest.raises(ValueError):
        Channel(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        Channel(np.array([[1.1, -0.1]]))
    # a NaN passes both the sign and the row-sum comparisons
    with pytest.raises(ValueError, match="finite"):
        Channel(np.array([[np.nan, 1.0], [0.5, 0.5]]))


def test_rr_channel_is_ldp_exactly():
    for eps in (0.5, 1.0, 2.0):
        W = randomized_response_channel(5, eps)
        assert verify_ldp(W, eps)
        assert not verify_ldp(W, 0.99 * eps)


def test_identity_channel_never_ldp():
    W = Channel(np.eye(3))
    for eps in (0.1, 1.0, 10.0, 100.0, 800.0):
        assert not verify_ldp(W, eps)


def test_verify_ldp_sets_no_limit_when_exponential_overflows():
    # e^800 overflows a float, so any ratio between positive entries passes.
    assert verify_ldp(randomized_response_channel(3, 1.0), 800.0)
    assert verify_ldp(Channel(np.array([[1 - 1e-300, 1e-300], [1e-300, 1 - 1e-300]])), 800.0)
    assert not verify_ldp(Channel(np.array([[1.0, 0.0], [0.5, 0.5]])), 800.0)


def test_indicator_channel_is_ldp():
    member = np.array([1, 0, 1, 0, 0, 1, 0])
    for eps in (0.5, 1.0, 2.0):
        W = indicator_response_channel(7, eps, member)
        assert verify_ldp(W, eps)
        assert not verify_ldp(W, 0.99 * eps)


def test_random_lbit_channel_shape():
    W = random_lbit_channel(7, 3, derive_key(0, 0))
    assert W.matrix.shape == (7, 8)
    assert np.allclose(W.matrix.sum(axis=1), 1.0, atol=1e-9)


# ------------------------------------------------- chi-squared over the packing


def test_constant_channel_contracts_to_zero():
    W = Channel(np.tile([0.3, 0.7], (7, 1)))
    assert expected_chisq_over_packing(W, 6, 2, 0.05) == pytest.approx(0.0, abs=1e-15)


def test_ldp_channel_meets_explicit_constant():
    k, s, alpha = 6, 2, 0.05
    for eps in (0.5, 1.0, 2.0):
        W = randomized_response_channel(k + 1, eps)
        val = expected_chisq_over_packing(W, k, s, alpha)
        bound = 64 * alpha**2 * (math.exp(eps) - 1) ** 2 / s
        assert val <= bound + 1e-9


def test_lbit_channels_meet_bucket_bound():
    k, s, alpha = 6, 2, 0.05
    key = derive_key(0, 20)
    for ell in (1, 2, 3):
        bound = 8 * alpha * 2**ell / s
        for trial in range(20):
            W = random_lbit_channel(k + 1, ell, derive_key(key, ell * 100 + trial))
            assert expected_chisq_over_packing(W, k, s, alpha) <= bound + 1e-9


def test_two_oracles_agree():
    k, s, alpha = 6, 2, 0.05
    channels = [
        randomized_response_channel(k + 1, 1.0),
        random_lbit_channel(k + 1, 2, derive_key(4, 0)),
        random_lbit_channel(k + 1, 1, derive_key(4, 1)),
    ]
    for W in channels:
        fast = expected_chisq_over_packing(W, k, s, alpha)
        slow = slow_expected_chisq(W, k, s, alpha)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_enumeration_budget_guard():
    W = randomized_response_channel(41, 1.0)
    with pytest.raises(ValueError):
        expected_chisq_over_packing(W, 40, 20, 0.01)  # C(40,20) >> 1e6


# ------------------------------------------------------ information arithmetic


def test_implied_sample_lower_bound():
    gap = 10.0
    chisq = 0.001
    want = (0.9 * gap - math.log(2)) / chisq
    assert implied_sample_lower_bound(gap, chisq) == pytest.approx(want, rel=1e-12)
    # consistency with the mutual-information form I <= n * chi2: at n =
    # bound the info budget is exactly the packing requirement
    n = implied_sample_lower_bound(gap, chisq)
    assert n * chisq == pytest.approx(0.9 * gap - math.log(2), rel=1e-12)


# ---------------------------------------------------------------- packing gap


def test_packing_gap_known_pairs():
    cases = {
        (128, 1): (math.log(128) / 8, 1),
        (200, 2): ((2 / 8) * math.log(100), 1),
        (400, 4): ((4 / 8) * math.log(100), 1585),
        (1000, 8): (math.log(125), 13770945),
    }
    for (k, s), (bound, ball) in cases.items():
        rep = packing_gap(k, s)
        gap = math.log(math.comb(k, s)) - math.log(ball)
        assert rep.value == pytest.approx(gap, rel=1e-12)
        assert rep.bound == pytest.approx(bound, rel=1e-12)
        assert rep.context["ball"] == ball
        assert rep.satisfied and rep.direction == "ge"


def test_packing_gap_enforces_regime():
    with pytest.raises(ValueError):
        packing_gap(24, 4)
    rep = packing_gap(24, 4, diagnostic=True)
    assert rep.context["diagnostic"]


def test_hamming_ball_count_brute_force():
    # Enumerate all s-subsets of [k] as bitmasks and count neighbours within
    # Hamming radius t; the closed form must match the true maximum.
    k, s = 10, 3
    masks = [sum(1 << i for i in c) for c in itertools.combinations(range(k), s)]
    arr = np.array(masks, dtype=np.uint32)
    for t in (0.0, 1.0, 2.0, 3.0, 4.0):
        dist = np.bitwise_count(arr[:, None] ^ arr[None, :])
        counts = (dist <= t).sum(axis=1)
        assert counts.max() == hamming_ball_count(k, s, t)
        assert counts.min() == counts.max()  # family is transitive


def test_hamming_ball_never_exceeds_closed_upper_bound():
    # the analysis caps the half-s ball by C(s, s/2) * C(k - s/2, s/2)
    for k, s in ((100, 4), (200, 8), (1000, 10)):
        h = s // 2
        assert hamming_ball_count(k, s, s / 2) <= math.comb(s, h) * math.comb(k - h, h)


# ------------------------------------------------------------ sample planning


def test_comm_planning_log_floor():
    # k=2, s=1: log(k/s) < 1 floors to 1 and min{2^ell, s} = 1, so the
    # support stage is exactly C1 / alpha^2.
    alpha = 0.5
    n1, n2 = comm_stage_sizes(2, 1, alpha, 1)
    assert n1 == math.ceil(700000 / alpha**2)
    assert n2 == math.ceil(6400 / alpha**2)
    assert planned_sample_size("comm", 2, 1, alpha, ell=1) == 2 * max(n1, n2)


def test_comm_planning_fixture():
    assert planned_sample_size("comm", 1000, 8, 0.2, ell=3) == 1351927848


def test_comm_planning_past_the_bucket_cap_builds_no_power():
    # min(2^ell, s) = s from ell = 4 at s = 8; a huge ell must not build 2^ell
    assert comm_stage_sizes(1000, 8, 0.1, 10**8) == comm_stage_sizes(1000, 8, 0.1, 4)


def test_ldp_planning_scales_inverse_square_in_eps():
    # The 1/eps^2 law is exact only in the small-eps limit where
    # (e^eps+1)/(e^eps-1) ~ 2/eps; check the ratio there.
    k, s, alpha = 1000, 8, 0.2
    n1 = planned_sample_size("ldp", k, s, alpha, epsilon=1e-4)
    n2 = planned_sample_size("ldp", k, s, alpha, epsilon=2e-4)
    assert n1 / n2 == pytest.approx(4.0, rel=1e-3)


def test_ldp_planning_fixture():
    assert planned_sample_size("ldp", 1000, 8, 0.2, epsilon=1.0) == 66189604


def test_planning_monotonicity():
    base = planned_sample_size("comm", 1000, 8, 0.2, ell=3)
    assert planned_sample_size("comm", 1000, 16, 0.2, ell=3) >= base
    assert planned_sample_size("comm", 2000, 8, 0.2, ell=3) >= base
    assert planned_sample_size("comm", 1000, 8, 0.4, ell=3) <= base
    assert planned_sample_size("comm", 1000, 8, 0.2, ell=4) <= base
    lbase = planned_sample_size("ldp", 1000, 8, 0.2, epsilon=1.0)
    assert planned_sample_size("ldp", 1000, 8, 0.2, epsilon=2.0) <= lbase
    assert planned_sample_size("ldp", 1000, 16, 0.2, epsilon=1.0) >= lbase


def test_planning_result_is_even():
    for ell in (1, 2, 5):
        assert planned_sample_size("comm", 500, 4, 0.3, ell=ell) % 2 == 0
    assert planned_sample_size("ldp", 500, 4, 0.3, epsilon=0.7) % 2 == 0


def test_planning_validates_inputs():
    with pytest.raises(ValueError):
        planned_sample_size("comm", 1000, 8, 0.2)  # missing ell
    with pytest.raises(ValueError):
        planned_sample_size("ldp", 1000, 8, -0.2, epsilon=1.0)
    with pytest.raises(ValueError):
        planned_sample_size("other", 1000, 8, 0.2, epsilon=1.0)


def test_bounds_reject_epsilon_whose_exponential_overflows():
    # e^800 overflows a float; each must name epsilon, not raise OverflowError.
    calls = (
        lambda: planned_sample_size("ldp", 1000, 8, 0.2, epsilon=800.0),
        lambda: ldp_risk_bound(1000, 8, 800.0, 10**6),
        lambda: randomized_response_channel(5, 800.0),
        lambda: indicator_response_channel(2, 800.0, np.array([1, 0])),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"epsilon=800.0 is too large"):
            call()


def test_inversions_reject_epsilon_whose_exponential_rounds_to_one():
    # e^1e-17 == 1.0, so each would divide by e^eps - 1 = 0.
    calls = (
        lambda: planned_sample_size("ldp", 1000, 8, 0.2, epsilon=1e-17),
        lambda: ldp_risk_bound(1000, 8, 1e-17, 10**6),
        lambda: hr_decode_raw(np.full(16, 0.5), 1e-17, 10),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"epsilon=1e-17 is too small: e\^epsilon rounds to 1"):
            call()
    assert planned_sample_size("ldp", 1000, 8, 0.2, epsilon=1e-15) > 10**30
    assert math.isfinite(ldp_risk_bound(1000, 8, 1e-15, 10**6))


def test_ldp_risk_bound_formula():
    k, s, eps, n = 1000, 8, 1.0, 200000
    e = math.exp(eps)
    want = 40 * s * math.sqrt(math.log(2 * k / s)) / math.sqrt(n) * (e + 1) / (e - 1)
    assert ldp_risk_bound(k, s, eps, n) == pytest.approx(want, rel=1e-12)


# -------------------------------------------------------------------- reports


def test_bound_report_satisfaction():
    assert BoundReport(1.0, 2.0, "le", {}).satisfied
    assert BoundReport(2.0, 2.0, "le", {}).satisfied
    assert not BoundReport(2.1, 2.0, "le", {}).satisfied
    assert BoundReport(2.1, 2.0, "ge", {}).satisfied
    assert not BoundReport(1.9, 2.0, "ge", {}).satisfied
    d = BoundReport(1.0, 2.0, "le", {"k": 5}).to_dict()
    assert d["satisfied"] and d["context"]["k"] == 5


def test_verification_suite_all_green():
    reports = verification_suite(master_seed=0)
    assert len(reports) == 13
    assert all(r.satisfied for r in reports)
    kinds = {r.context["kind"] for r in reports}
    assert kinds == {"ldp_chisq_contraction", "lbit_chisq_contraction", "packing_gap"}
