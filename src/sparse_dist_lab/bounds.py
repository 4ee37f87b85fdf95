"""Executable lower-bound machinery and sample-size planning.

The hardness argument for constrained estimation is a chi-squared
contraction: pick a packing family of hard distributions, push each through
the per-user channel, and bound the average chi-squared divergence to the
family's mean output distribution. Everything in that chain is computed
exactly here: channel privacy checking, the expected divergence over the
packing family (in closed form, at any (k, s)), the counting ("how many
packing indices are close to each other") gap that feeds the information
inequality, and the sample-size formulas implied by the upper-bound
analyses.

Channels are explicit row-stochastic matrices, so results are exact rather
than Monte-Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .comm_hash import effective_ell
from .core import check_ell, check_master_seed, check_number, check_probs, check_sparsity, derive_key, exp_epsilon, invertible_exp_epsilon, keyed_generator
from .hadamard_response import indicator_response_probs

REPORT_TOL = 1e-9

# Stage constants of the hashing scheme's two phases (support identification,
# then per-coordinate estimation), as fixed by the analysis.
C1_SUPPORT = 700000
C2_ESTIMATE = 6400
# The constant of the one-bit private scheme's proven risk bound.
C_LDP_RISK = 40


def _channel(W) -> np.ndarray:
    """W as a float64 channel matrix, row x = P(. | x).

    Raises ValueError unless W is 2-d and nonempty, passes check_probs and
    has no entry below 0 (check_probs allows down to -SUM_TOL).
    """
    mat = np.asarray(W, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"a channel matrix must be 2-d and nonempty, got shape {mat.shape}")
    check_probs(mat)
    if mat.min() < 0:
        raise ValueError("channel entries must be nonnegative")
    return mat


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: a computed value against its stated bound.

    direction "le" asserts value <= bound, "ge" asserts value >= bound, in
    both cases with REPORT_TOL slack. ``satisfied`` is derived, never passed.
    """

    value: float
    bound: float
    direction: str = "le"
    context: dict = field(default_factory=dict)
    satisfied: bool = field(init=False)

    def __post_init__(self):
        if self.direction not in ("le", "ge"):
            raise ValueError("direction must be 'le' or 'ge'")
        if self.direction == "le":
            ok = self.value <= self.bound + REPORT_TOL
        else:
            ok = self.value >= self.bound - REPORT_TOL
        object.__setattr__(self, "satisfied", bool(ok))

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "bound": self.bound,
            "direction": self.direction,
            "satisfied": self.satisfied,
            "context": dict(self.context),
        }


def verify_ldp(W: np.ndarray, epsilon: float) -> bool:
    """Check the privacy constraint: sup_y,x,x' W(y|x)/W(y|x') <= e^epsilon.

    A column mixing zero and positive entries has an unbounded ratio and
    fails for every finite epsilon; an all-zero column constrains nothing.
    The comparison carries 1e-9 relative slack so channels sitting exactly
    at their privacy level pass. An e^epsilon that overflows a float sets no
    limit. Raises ValueError unless W is a channel matrix (see _channel), and
    naming epsilon unless it is a real number (check_number: not None, not a
    bool) or if it is NaN, which no ratio could be compared with.
    """
    mat = _channel(W)
    check_number("epsilon", epsilon, integral=False)
    if math.isnan(epsilon):
        raise ValueError(f"epsilon must be a number, got {epsilon!r}")
    try:
        limit = math.exp(epsilon)
    except OverflowError:
        limit = math.inf
    top, bottom = mat.max(0), mat.min(0)
    live = top > 0  # an all-zero column constrains nothing
    top, bottom = top[live], bottom[live]
    # bottoms are checked first: limit * 0 is NaN when limit is inf
    return bool(np.all(bottom > 0) and np.all(top <= limit * bottom * (1 + 1e-9)))


def expected_chisq_over_packing(W: np.ndarray, k: int, s: int, alpha: float) -> float:
    """Exact E_Z[chi2(p_Z W, p_0 W)] over the full packing family, in closed form.

    W acts on k+1 symbols, the heavy one at index 0. With a = z/s - 1/k,
    p_z W - p_0 W = 8 alpha sum_x a_x W[x+1]; as sum_x a_x = 0, centring the
    rows on their mean cancels the all-ones part of E[a a^T], which is
    (k-s)/(s k (k-1)) I + c J for z uniform of weight s. So E_Z[chi2] =
    64 alpha^2 (k-s)/(s k (k-1)) ||D||_F^2, D[x, y] = (W[x+1, y] - mean_x
    W[x+1, y]) / sqrt(q0(y)) over the outputs where q0 = p_0 W > 0 (for
    0 < 8 alpha < 1, q0(y) = 0 makes every row 0 at y). Costs O(k |Y|).
    Raises ValueError unless W is a channel matrix (see _channel) and
    1 <= s <= k (check_sparsity).
    """
    mat = _channel(W)
    if not 0 < 8 * alpha < 1:
        raise ValueError("require 0 < 8*alpha < 1")
    if mat.shape[0] != k + 1:
        raise ValueError(f"channel has {mat.shape[0]} inputs, expected k+1={k + 1}")
    check_sparsity(k, s)

    symbol_rows = mat[1:]
    q0 = (1 - 8 * alpha) * mat[0] + (8 * alpha / k) * symbol_rows.sum(axis=0)
    mask = q0 > 0
    rows = symbol_rows[:, mask]
    centred = (rows - rows.mean(axis=0)) / np.sqrt(q0[mask])
    # k - 1 is 0 only at k = s = 1, the one-index family, where k - s is 0 too
    weight = (k - s) / (s * k * max(k - 1, 1))
    return 64 * alpha**2 * weight * float((centred * centred).sum())


def ldp_contraction_ceiling(epsilon: float, s: int, alpha: float) -> float:
    """Ceiling 64 alpha^2 (e^epsilon - 1)^2 / s on expected_chisq_over_packing for any epsilon-LDP channel.

    64 is the explicit constant the privacy-contraction proof carries.
    Raises ValueError naming epsilon unless e^epsilon is a finite float, and
    naming s or alpha as _check_ceiling_args does.
    """
    _check_ceiling_args(s, alpha)
    e = exp_epsilon(epsilon)
    # a product, not a power: past epsilon ~ 355, (e - 1) ** 2 raises OverflowError where this is inf
    return 64 * alpha**2 * (e - 1) * (e - 1) / s


def lbit_contraction_ceiling(ell: int, s: int, alpha: float) -> float:
    """Ceiling 8 alpha 2^ell / s on expected_chisq_over_packing for any channel with 2^ell outputs.

    Raises ValueError naming s or alpha as _check_ceiling_args does, and
    naming ell unless ell >= 1 (check_ell) and when 2^ell overflows a float.
    """
    _check_ceiling_args(s, alpha)
    check_ell(ell)
    if ell >= 1024:  # 2^1024 is past the largest float
        raise ValueError(f"ell={ell!r} is too large: 2^ell overflows a float")
    return 8 * alpha * 2.0**ell / s


def _check_ceiling_args(s: int, alpha: float) -> None:
    """Raise ValueError naming s unless it is an integer >= 1, and naming alpha unless it is finite and positive.

    A float or bool s is refused by check_number. The ceilings take no k,
    so s has no upper limit here, and they do not require 8 alpha < 1, as
    expected_chisq_over_packing does: they are formulas and hold as such.
    """
    check_number("s", s)
    if not s >= 1:
        raise ValueError(f"s must be >= 1, got {s!r}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite positive number, got {alpha!r}")


def implied_sample_lower_bound(gap: float, per_user_chisq: float) -> float:
    """Sample-size lower bound from the information chain.

    Recovering the packing index with error probability <= 0.1 forces
    n * chi2 >= 0.9 * gap - log 2, so n must be at least the returned value.
    Raises ValueError naming the gap unless it is a real number
    (check_number: not a string, not a bool) and finite, and naming the
    per-user chi-squared unless it is a real number and positive.
    """
    check_number("gap", gap, integral=False)
    if not math.isfinite(gap):
        raise ValueError(f"gap must be {'a number' if math.isnan(gap) else 'finite'}, got {gap!r}")
    check_number("per-user chi-squared", per_user_chisq, integral=False)
    if not per_user_chisq > 0:  # NaN fails too
        raise ValueError(f"per-user chi-squared must be positive, got {per_user_chisq!r}")
    return (0.9 * gap - math.log(2)) / per_user_chisq


def hamming_ball_count(k: int, s: int, t: float) -> int:
    """Packing indices within Hamming distance t of a fixed weight-s index.

    Two weight-s binary vectors at Hamming distance 2j differ in exactly j
    swapped positions, so distances are even and the ball size is
    sum_{j=0}^{floor(t/2)} C(s,j) * C(k-s,j). Exact integer arithmetic.
    Raises ValueError unless 1 <= s <= k (check_sparsity), and naming t
    unless it is a real number (check_number: not a string, not a bool),
    finite and >= 0.
    """
    check_sparsity(k, s)
    check_number("t", t, integral=False)
    if not 0 <= t < math.inf:  # NaN fails too
        raise ValueError(f"t must be a finite number >= 0, got {t!r}")
    return sum(math.comb(s, j) * math.comb(k - s, j) for j in range(int(t // 2) + 1))


def packing_gap(k: int, s: int, diagnostic: bool = False) -> BoundReport:
    """log |packing family| - log (max half-s Hamming ball), exactly.

    The gap must be at least (s/8) * log(k/s); the report records both
    sides. Requires s <= k/100 unless diagnostic mode relaxes the
    precondition for small sanity instances. Raises ValueError unless
    1 <= s <= k (check_sparsity).
    """
    check_sparsity(k, s)
    if not diagnostic and s > k / 100:
        raise ValueError(f"packing gap needs s <= k/100 (got s={s}, k={k}); use diagnostic=True to relax")
    ball = hamming_ball_count(k, s, s / 2)
    gap = math.log(math.comb(k, s)) - math.log(ball)
    bound = (s / 8) * math.log(k / s)
    return BoundReport(
        value=gap,
        bound=bound,
        direction="ge",
        context={"kind": "packing_gap", "k": k, "s": s, "ball": ball, "diagnostic": diagnostic},
    )


def comm_stage_sizes(k: int, s: int, alpha: float, ell: int) -> tuple[int, int]:
    """Per-half sample sizes of the hashing scheme's two stages.

    Raises ValueError unless 1 <= s <= k and 0 < alpha < 1 (_check_plan)
    and ell >= 1 (check_ell, through effective_ell), and naming alpha when
    a size is not a finite number.
    """
    _check_plan(k, s, alpha)
    # min(2^ell, s): where effective_ell caps ell, 2^ell and 2^cap both pass s, so a large ell builds no 2^ell
    buckets = min(1 << effective_ell(ell, s), s)
    denom = alpha * alpha * buckets or math.nan  # alpha^2 can underflow to 0
    stage1 = _ceil_size(C1_SUPPORT * s * s * max(math.log(k / s), 1.0) / denom, alpha)
    stage2 = _ceil_size(C2_ESTIMATE * s * s / denom, alpha)
    return stage1, stage2


def comm_sample_size(k: int, s: int, alpha: float, ell: int) -> int:
    """Users the hashing scheme needs for TV error alpha with ell bits per user: both halves get the larger stage.

    The stages need C1*s^2*max(log(k/s),1) / (alpha^2*min(2^ell,s)) and
    C2*s^2 / (alpha^2*min(2^ell,s)) users (comm_stage_sizes, whose
    ValueErrors these are).
    """
    return 2 * max(comm_stage_sizes(k, s, alpha, ell))


def _check_plan(k: int, s: int, alpha: float) -> None:
    """Raise ValueError unless 1 <= s <= k (check_sparsity) and alpha lies in (0, 1): the planner's rules."""
    check_sparsity(k, s)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _ceil_size(size: float, alpha: float) -> int:
    """math.ceil(size), or a ValueError naming alpha when size is not a finite number."""
    if not math.isfinite(size):
        raise ValueError(f"alpha={alpha!r} is too small: the planned sample size is not a finite number")
    return math.ceil(size)


def ldp_risk_bound(k: int, s: int, epsilon: float, n: int) -> float:
    """The proven accuracy of the one-bit scheme at sample size n; ValueError unless 1 <= s <= k (check_sparsity) and n is an integer >= 1."""
    check_sparsity(k, s)
    check_number("n", n)
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    e = invertible_exp_epsilon(epsilon)
    return C_LDP_RISK * s * math.sqrt(math.log(2 * k / s) / n) * (e + 1) / (e - 1)


def ldp_sample_size(k: int, s: int, alpha: float, epsilon: float) -> int:
    """Users the one-bit private scheme needs for TV error alpha, rounded up even.

    Inverts the risk bound C_LDP_RISK*s*sqrt(log(2k/s))/sqrt(n) *
    (e^eps+1)/(e^eps-1) at accuracy alpha. Raises ValueError unless
    1 <= s <= k and 0 < alpha < 1 (_check_plan), naming epsilon when
    invertible_exp_epsilon refuses it, and naming alpha when the size is not
    a finite number.
    """
    _check_plan(k, s, alpha)
    e = invertible_exp_epsilon(epsilon)
    root = C_LDP_RISK * s * math.sqrt(math.log(2 * k / s)) * (e + 1) / ((e - 1) * alpha)
    n = _ceil_size(root * root, alpha)
    return n + (n % 2)


def randomized_response_channel(num_symbols: int, epsilon: float) -> np.ndarray:
    """Symbol-preserving randomized response over a num_symbols alphabet.

    Keeps the input with probability e^eps/(e^eps+D-1), otherwise moves to a
    uniformly random other symbol; the classic epsilon-LDP channel.
    """
    e = exp_epsilon(epsilon)
    off = 1 / (e + num_symbols - 1)
    mat = np.full((num_symbols, num_symbols), off)
    np.fill_diagonal(mat, e * off)
    return _channel(mat)


def indicator_response_channel(num_symbols: int, epsilon: float, member: np.ndarray) -> np.ndarray:
    """Two-output randomized response to membership of x in a fixed set: Hadamard response's bit law as a channel."""
    q_in, q_out = indicator_response_probs(epsilon)
    member = np.asarray(member, dtype=bool)
    if member.size != num_symbols:
        raise ValueError("membership vector length mismatch")
    ones = np.where(member, q_in, q_out)
    return _channel(np.column_stack([1 - ones, ones]))


def random_lbit_channel(num_symbols: int, ell: int, key: int) -> np.ndarray:
    """A random channel with 2^ell outputs (rows drawn flat on the simplex by the stream of key).

    Raises ValueError unless ell >= 1 (check_ell).
    """
    check_ell(ell)
    rows = keyed_generator(key).dirichlet(np.ones(2**ell), size=num_symbols)
    return _channel(rows)


def verification_suite(master_seed: int = 0) -> list[BoundReport]:
    """Run the standard checks and return their reports.

    Covers the privacy-contraction bound for explicit LDP channels and the
    communication contraction bound for random few-bit channels (at k=6,
    s=2), and the packing gap at representative (k, s) pairs. Deterministic
    given the seed; raises ValueError naming master_seed unless it lies in
    [0, 2^64).
    """
    check_master_seed(master_seed)
    k, s, alpha = 6, 2, 0.05
    reports: list[BoundReport] = []

    for eps in (0.5, 1.0, 2.0):
        for name, channel in (
            ("randomized_response", randomized_response_channel(k + 1, eps)),
            ("indicator_response", indicator_response_channel(k + 1, eps, np.arange(k + 1) % 2 == 0)),
        ):
            value = expected_chisq_over_packing(channel, k, s, alpha)
            reports.append(
                BoundReport(
                    value=value,
                    bound=ldp_contraction_ceiling(eps, s, alpha),
                    context={
                        "kind": "ldp_chisq_contraction",
                        "channel": name,
                        "epsilon": eps,
                        "k": k,
                        "s": s,
                        "alpha": alpha,
                        "ldp_verified": verify_ldp(channel, eps),
                    },
                )
            )

    key = derive_key(master_seed, 20)
    for ell in (1, 2, 3):
        worst = 0.0
        for trial in range(20):
            channel = random_lbit_channel(k + 1, ell, derive_key(key, ell * 100 + trial))
            worst = max(worst, expected_chisq_over_packing(channel, k, s, alpha))
        reports.append(
            BoundReport(
                value=worst,
                bound=lbit_contraction_ceiling(ell, s, alpha),
                context={
                    "kind": "lbit_chisq_contraction",
                    "ell": ell,
                    "channels": 20,
                    "k": k,
                    "s": s,
                    "alpha": alpha,
                    "statistic": "worst_of_20",
                },
            )
        )

    for gk, gs in ((128, 1), (200, 2), (400, 4), (1000, 8)):
        reports.append(packing_gap(gk, gs))

    return reports
