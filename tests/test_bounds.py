"""Channel matrix checks, exact chi-squared contraction, packing gap, planning."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PackingIndex,
    chi_square,
    enumerate_packing_indices,
    induced_output_dist,
    ldp_holds,
    make_packing_dist,
    packing_reference_dist,
)
from sparse_dist_lab.bounds import (
    BoundReport,
    comm_stage_sizes,
    expected_chisq_over_packing,
    hamming_ball_count,
    implied_sample_lower_bound,
    indicator_response_channel,
    lbit_contraction_ceiling,
    ldp_contraction_ceiling,
    ldp_risk_bound,
    packing_gap,
    planned_sample_size,
    random_lbit_channel,
    randomized_response_channel,
    verification_suite,
    verify_ldp,
)
from sparse_dist_lab.core import derive_key, keyed_generator
from sparse_dist_lab.hadamard_response import hr_channel_matrix, hr_decode_raw
from sparse_dist_lab.rappor import rappor_channel_matrix


def slow_expected_chisq(W, k, s, alpha):
    """Reference oracle: average chi-square term by term over all z.

    Walks the packing family through the oracles' one-distribution helpers
    (make_packing_dist -> induced_output_dist -> chi_square) instead of the
    production routine's closed form.
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
    # each matrix has k + 1 = 2 rows (the 1-d one 2 entries), so only the
    # channel check can refuse it
    bad = [
        ([[0.5, 0.4], [0.5, 0.5]], "sum to 0.9"),
        ([[1.1, -0.1], [0.5, 0.5]], r"lie in \[0, 1\]"),
        # a NaN passes both the sign and the row-sum comparisons
        ([[np.nan, 1.0], [0.5, 0.5]], "finite"),
        ([0.5, 0.5], "2-d and nonempty"),
        (np.zeros((0, 2)), "2-d and nonempty"),
        # check_probs allows an entry down to -SUM_TOL; a channel allows none
        ([[-1e-12, 1 + 1e-12], [0.5, 0.5]], "nonnegative"),
    ]
    for W, message in bad:
        with pytest.raises(ValueError, match=message):
            verify_ldp(W, 1.0)
        with pytest.raises(ValueError, match=message):
            expected_chisq_over_packing(W, 1, 1, 0.05)


def test_channel_constructors_reject_size_zero():
    calls = (
        lambda: randomized_response_channel(0, 1.0),
        lambda: indicator_response_channel(0, 1.0, np.zeros(0, dtype=bool)),
        lambda: random_lbit_channel(0, 2, derive_key(0, 0)),
        lambda: rappor_channel_matrix(1.0, 0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="2-d and nonempty"):
            call()
    with pytest.raises(ValueError, match="k out of range"):
        hr_channel_matrix(1.0, 8, 1, k=0)


def test_channel_constructors_return_checked_float_arrays():
    for W in (
        randomized_response_channel(5, 1.0),
        indicator_response_channel(3, 1.0, np.array([1, 0, 1])),
        random_lbit_channel(4, 2, derive_key(0, 1)),
        hr_channel_matrix(1.0, 8, 3),
        rappor_channel_matrix(1.0, 3),
    ):
        assert isinstance(W, np.ndarray) and W.dtype == np.float64 and W.ndim == 2
        assert W.min() >= 0 and np.allclose(W.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_rr_channel_is_ldp_exactly():
    for eps in (0.5, 1.0, 2.0):
        W = randomized_response_channel(5, eps)
        assert verify_ldp(W, eps)
        assert not verify_ldp(W, 0.99 * eps)


def test_identity_channel_never_ldp():
    W = np.eye(3)
    for eps in (0.1, 1.0, 10.0, 100.0, 800.0):
        assert not verify_ldp(W, eps)


def test_verify_ldp_sets_no_limit_when_exponential_overflows():
    # e^800 overflows a float, so any ratio between positive entries passes.
    assert verify_ldp(randomized_response_channel(3, 1.0), 800.0)
    assert verify_ldp(np.array([[1 - 1e-300, 1e-300], [1e-300, 1 - 1e-300]]), 800.0)
    assert not verify_ldp(np.array([[1.0, 0.0], [0.5, 0.5]]), 800.0)


def test_verify_ldp_rejects_nan_epsilon():
    # every comparison with a NaN limit is False, which would pass any channel
    with pytest.raises(ValueError, match="epsilon must be a number, got nan"):
        verify_ldp(np.eye(2), math.nan)


def test_verify_ldp_equals_the_column_loop():
    # channels with scattered zeros and all-zero columns, at epsilon values
    # that set no limit, every limit, and the channel's own ratio
    gen = np.random.default_rng(3)
    for i in range(300):
        W = gen.random((int(gen.integers(1, 6)), int(gen.integers(1, 6))))
        W[gen.random(W.shape) < 0.2 * (i % 3)] = 0.0
        W[:, gen.integers(W.shape[1])] *= i % 2
        W[W.sum(axis=1) == 0, -1] = 1.0
        W /= W.sum(axis=1, keepdims=True)
        epsilons = [-math.inf, -1.0, 0.0, 0.5, 2.0, 800.0, math.inf]
        if W.min() > 0:
            ratio = math.log(float(np.max(W.max(0) / W.min(0))))
            epsilons += [ratio, ratio * (1 - 1e-12), ratio * 0.999]
        for eps in epsilons:
            assert verify_ldp(W, eps) == ldp_holds(W, eps), (W, eps)


def test_indicator_channel_is_ldp():
    member = np.array([1, 0, 1, 0, 0, 1, 0])
    for eps in (0.5, 1.0, 2.0):
        W = indicator_response_channel(7, eps, member)
        assert verify_ldp(W, eps)
        assert not verify_ldp(W, 0.99 * eps)


def test_random_lbit_channel_shape():
    W = random_lbit_channel(7, 3, derive_key(0, 0))
    assert W.shape == (7, 8)
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-9)


# ------------------------------------------------- chi-squared over the packing


def test_constant_channel_contracts_to_zero():
    W = np.tile([0.3, 0.7], (7, 1))
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


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=8), st.data())
def test_closed_form_equals_enumeration(k, outputs, data):
    # integer weights give rows with exact zeros and zero output columns,
    # so the reference-support mask is exercised too
    s = data.draw(st.integers(min_value=1, max_value=k))
    alpha = data.draw(st.floats(min_value=1e-6, max_value=0.125, exclude_max=True))
    row = st.lists(st.integers(min_value=0, max_value=4), min_size=outputs, max_size=outputs)
    weights = np.array(data.draw(st.lists(row, min_size=k + 1, max_size=k + 1)), dtype=np.float64)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    W = weights / weights.sum(axis=1, keepdims=True)
    want = slow_expected_chisq(W, k, s, alpha)
    assert expected_chisq_over_packing(W, k, s, alpha) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_closed_form_at_experiment_scale_on_hr_channels():
    # C(1000, 8) ~ 2.4e17 indices: no enumeration reaches this instance, so
    # the closed form is checked against a seeded Monte-Carlo mean of the
    # per-index chi-squared over random supports.
    k, s, alpha, eps, draws = 1000, 8, 0.05, 0.9, 3000
    ceiling = ldp_contraction_ceiling(eps, s, alpha)
    for j in (1, 6, 513, 1023):
        W = hr_channel_matrix(eps, 1024, j, k + 1)
        value = expected_chisq_over_packing(W, k, s, alpha)
        assert 0 < value <= ceiling
        q0 = induced_output_dist(W, packing_reference_dist(k, alpha))
        gen = keyed_generator(derive_key(17, j))
        supports = [gen.choice(k, size=s, replace=False) for _ in range(draws)]
        chisq = [chi_square(induced_output_dist(W, make_packing_dist(PackingIndex(k, z), alpha)), q0) for z in supports]
        stderr = np.std(chisq, ddof=1) / math.sqrt(draws)
        assert abs(value - np.mean(chisq)) <= 5 * stderr


def test_expected_chisq_rejects_s_outside_one_to_k():
    W = randomized_response_channel(7, 1.0)
    for s in (0, 7, -1):
        with pytest.raises(ValueError, match=rf"1 <= s <= k \(got s={s}, k=6\)"):
            expected_chisq_over_packing(W, 6, s, 0.05)
    # s = k is the one-index family, k = s = 1 among them
    assert expected_chisq_over_packing(W, 6, 6, 0.05) == 0.0
    assert expected_chisq_over_packing(randomized_response_channel(2, 1.0), 1, 1, 0.05) == 0.0


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
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="per-user chi-squared must be positive"):
            implied_sample_lower_bound(gap, bad)


def test_bound_formulas_reject_arguments_they_cannot_take():
    # each raised ZeroDivisionError or OverflowError, or returned a number
    calls = (
        (lambda: ldp_contraction_ceiling(1.0, 0, 0.05), "s must be >= 1, got 0"),
        (lambda: lbit_contraction_ceiling(1, 0, 0.05), r"s >= 1 and ell >= 1 \(got s=0, ell=1\)"),
        (lambda: lbit_contraction_ceiling(0, 2, 0.05), r"s >= 1 and ell >= 1 \(got s=2, ell=0\)"),
        (lambda: lbit_contraction_ceiling(1024, 2, 0.05), r"ell=1024 is too large: 2\^ell overflows a float"),
        (lambda: lbit_contraction_ceiling(2000, 2, 0.05), r"ell=2000 is too large: 2\^ell overflows a float"),
        (lambda: ldp_risk_bound(1000, 0, 1.0, 10**6), r"\(got s=0, k=1000, n=1000000\)"),
        (lambda: ldp_risk_bound(1000, 1500, 1.0, 10**6), r"\(got s=1500, k=1000, n=1000000\)"),
        (lambda: ldp_risk_bound(1000, 8, 1.0, 0), r"\(got s=8, k=1000, n=0\)"),
    )
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            call()
    # the largest ell whose 2^ell is a float gives a finite ceiling
    assert lbit_contraction_ceiling(1023, 2, 0.05) == 8 * 0.05 * 2.0**1023 / 2
    assert lbit_contraction_ceiling(3, 2, 0.05) == 8 * 0.05 * 2**3 / 2


@pytest.mark.parametrize("alpha", [-0.5, 0.0, math.nan, math.inf])
def test_contraction_ceilings_reject_an_alpha_that_is_not_finite_and_positive(alpha):
    # at -0.5 they returned 23.62 and -8.0, and at NaN nan; 8 alpha < 1 is
    # left unchecked, as lower_bounds_demo.py calls them at alpha = 0.2
    message = re.escape(f"alpha must be a finite positive number, got {alpha!r}")
    with pytest.raises(ValueError, match=message):
        ldp_contraction_ceiling(1.0, 2, alpha)
    with pytest.raises(ValueError, match=message):
        lbit_contraction_ceiling(2, 2, alpha)


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
        lambda: ldp_contraction_ceiling(800.0, 2, 0.05),
        lambda: randomized_response_channel(5, 800.0),
        lambda: indicator_response_channel(2, 800.0, np.array([1, 0])),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"epsilon=800.0 is too large"):
            call()
    # e^400 is a float but (e^400 - 1)^2 is not: the ceiling is inf, not an OverflowError
    assert ldp_contraction_ceiling(400.0, 2, 0.05) == math.inf


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
