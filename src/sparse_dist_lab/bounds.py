"""Executable lower-bound machinery and sample-size planning.

The hardness argument for constrained estimation is a chi-squared
contraction: pick a packing family of hard distributions, push each through
the per-user channel, and bound the average chi-squared divergence to the
family's mean output distribution. Everything in that chain is computable
exactly at small scale, and this module does so: channel privacy checking,
exact enumeration of the expected divergence over the packing family, the
counting ("how many packing indices are close to each other") gap that feeds
the information inequality, and the sample-size formulas implied by the
upper-bound analyses.

All instances here are small - channels are explicit row-stochastic
matrices, packings are enumerated - so results are exact rather than
Monte-Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .core import RandomStream, exp_epsilon, invertible_exp_epsilon

ROW_TOL = 1e-9
REPORT_TOL = 1e-9

# Stage constants of the hashing scheme's two phases (support identification,
# then per-coordinate estimation), as fixed by the analysis.
C1_SUPPORT = 700000
C2_ESTIMATE = 6400

ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class Channel:
    """An explicit stochastic matrix W with W[x, y] = P(output y | input x)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("channel matrix must be 2-d and nonempty")
        if not np.isfinite(mat).all():
            raise ValueError("channel entries must be finite")
        if np.any(mat < 0):
            raise ValueError("channel entries must be nonnegative")
        sums = mat.sum(axis=1)
        if np.any(np.abs(sums - 1) > ROW_TOL):
            bad = int(np.argmax(np.abs(sums - 1)))
            raise ValueError(f"row {bad} sums to {sums[bad]!r}, not 1")

    @property
    def num_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.matrix.shape[1]


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


def verify_ldp(W: Channel, epsilon: float) -> bool:
    """Check the privacy constraint: sup_y,x,x' W(y|x)/W(y|x') <= e^epsilon.

    A column mixing zero and positive entries has an unbounded ratio and
    fails for every finite epsilon; an all-zero column constrains nothing.
    The comparison carries 1e-9 relative slack so channels sitting exactly
    at their privacy level pass. An e^epsilon that overflows a float sets no
    limit.
    """
    mat = W.matrix
    try:
        limit = math.exp(epsilon)
    except OverflowError:
        limit = math.inf
    for y in range(mat.shape[1]):
        col = mat[:, y]
        top = float(col.max())
        if top == 0.0:
            continue
        bottom = float(col.min())
        if bottom == 0.0:
            return False
        if top > limit * bottom * (1 + 1e-9):
            return False
    return True


def expected_chisq_over_packing(W: Channel, k: int, s: int, alpha: float) -> float:
    """Exact E_Z[chi2(p_Z W, p_0 W)] over the full packing family.

    Enumerates all C(k,s) packing indices, pushes each hard distribution
    through W (the channel acts on k+1 symbols, the heavy one at index 0),
    and averages the chi-squared divergence to the pushforward of the
    reference distribution p_0. Exact up to float round-off; refuses
    instances beyond the enumeration budget.
    """
    if not 0 < 8 * alpha < 1:
        raise ValueError("require 0 < 8*alpha < 1")
    if W.num_inputs != k + 1:
        raise ValueError(f"channel has {W.num_inputs} inputs, expected k+1={k + 1}")
    count = math.comb(k, s)
    if count > ENUMERATION_BUDGET:
        raise ValueError(f"C({k},{s}) = {count} exceeds the enumeration budget")

    mat = W.matrix
    base = (1 - 8 * alpha) * mat[0]  # heavy-symbol contribution, shared by all z
    symbol_rows = mat[1:]
    q0 = base + (8 * alpha / k) * symbol_rows.sum(axis=0)
    mask = q0 > 0
    q0m = q0[mask]

    total = 0.0
    combo_iter = combinations(range(k), s)
    while True:
        block = list(islice(combo_iter, 65536))
        if not block:
            break
        idx = np.asarray(block, dtype=np.int64)
        qz = base + (8 * alpha / s) * symbol_rows[idx].sum(axis=1)
        if np.any(qz[:, ~mask] > 0):
            raise ValueError("packing outputs escape the reference support")
        diff = qz[:, mask] - q0m
        total += float((diff * diff / q0m).sum())
    return total / count


def ldp_contraction_ceiling(epsilon: float, s: int, alpha: float) -> float:
    """Ceiling 64 alpha^2 (e^epsilon - 1)^2 / s on expected_chisq_over_packing for any epsilon-LDP channel.

    64 is the explicit constant the privacy-contraction proof carries.
    """
    return 64 * alpha**2 * (math.exp(epsilon) - 1) ** 2 / s


def lbit_contraction_ceiling(ell: int, s: int, alpha: float) -> float:
    """Ceiling 8 alpha 2^ell / s on expected_chisq_over_packing for any channel with 2^ell outputs."""
    return 8 * alpha * 2**ell / s


def mutual_info_bound(n: int, per_user_chisq: float) -> float:
    """n-user information bound: I(Z; all messages) <= n * per-user chi2."""
    if n < 0 or per_user_chisq < 0:
        raise ValueError("inputs must be nonnegative")
    return n * per_user_chisq


def implied_sample_lower_bound(gap: float, per_user_chisq: float) -> float:
    """Sample-size lower bound from the information chain.

    Recovering the packing index with error probability <= 0.1 forces
    n * chi2 >= 0.9 * gap - log 2, so n must be at least the returned value.
    """
    if per_user_chisq <= 0:
        raise ValueError("per-user chi-squared must be positive")
    return (0.9 * gap - math.log(2)) / per_user_chisq


def hamming_ball_count(k: int, s: int, t: float) -> int:
    """Packing indices within Hamming distance t of a fixed weight-s index.

    Two weight-s binary vectors at Hamming distance 2j differ in exactly j
    swapped positions, so distances are even and the ball size is
    sum_{j=0}^{floor(t/2)} C(s,j) * C(k-s,j). Exact integer arithmetic.
    """
    if not 1 <= s <= k:
        raise ValueError("require 1 <= s <= k")
    return sum(math.comb(s, j) * math.comb(k - s, j) for j in range(int(t // 2) + 1))


def hamming_ball_upper_bound(k: int, s: int) -> int:
    """The coarse closed-form cap on the half-s ball used by the analysis."""
    h = s // 2
    return math.comb(s, h) * math.comb(k - h, h)


def packing_gap(k: int, s: int, diagnostic: bool = False) -> BoundReport:
    """log |packing family| - log (max half-s Hamming ball), exactly.

    The gap must be at least (s/8) * log(k/s); the report records both
    sides. Requires s <= k/100 unless diagnostic mode relaxes the
    precondition for small sanity instances.
    """
    if not 1 <= s <= k:
        raise ValueError("require 1 <= s <= k")
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


def planned_sample_size(scheme: str, k: int, s: int, alpha: float, epsilon: float | None = None, ell: int | None = None) -> int:
    """Sample size at which the scheme's guarantee kicks in, rounded up even.

    For the hashing scheme ("comm") the two stages need
    C1*s^2*max(log(k/s),1) / (alpha^2*min(2^ell,s)) and
    C2*s^2 / (alpha^2*min(2^ell,s)) users respectively; both halves get the
    larger of the two. For the private scheme ("ldp") the risk bound
    40*s*sqrt(log(2k/s))/sqrt(n) * (e^eps+1)/(e^eps-1) is inverted at
    accuracy alpha.
    """
    if k < 1 or not 1 <= s <= k or not 0 < alpha < 1:
        raise ValueError("invalid parameters")
    if scheme == "comm":
        if ell is None or ell < 1:
            raise ValueError("comm scheme needs ell >= 1")
        stage1, stage2 = comm_stage_sizes(k, s, alpha, ell)
        return 2 * max(stage1, stage2)
    if scheme == "ldp":
        if epsilon is None or epsilon <= 0:
            raise ValueError("ldp scheme needs epsilon > 0")
        e = invertible_exp_epsilon(epsilon)
        root = 40 * s * math.sqrt(math.log(2 * k / s)) * (e + 1) / ((e - 1) * alpha)
        n = math.ceil(root * root)
        return n + (n % 2)
    raise ValueError(f"unknown scheme {scheme!r}")


def comm_stage_sizes(k: int, s: int, alpha: float, ell: int) -> tuple[int, int]:
    """Per-half sample sizes of the hashing scheme's two stages."""
    denom = alpha * alpha * min(2**ell, s)
    stage1 = math.ceil(C1_SUPPORT * s * s * max(math.log(k / s), 1.0) / denom)
    stage2 = math.ceil(C2_ESTIMATE * s * s / denom)
    return stage1, stage2


def ldp_risk_bound(k: int, s: int, epsilon: float, n: int) -> float:
    """The proven accuracy of the one-bit scheme at sample size n."""
    e = invertible_exp_epsilon(epsilon)
    return 40 * s * math.sqrt(math.log(2 * k / s) / n) * (e + 1) / (e - 1)


def randomized_response_channel(num_symbols: int, epsilon: float) -> Channel:
    """Symbol-preserving randomized response over a num_symbols alphabet.

    Keeps the input with probability e^eps/(e^eps+D-1), otherwise moves to a
    uniformly random other symbol; the classic epsilon-LDP channel.
    """
    e = exp_epsilon(epsilon)
    off = 1 / (e + num_symbols - 1)
    mat = np.full((num_symbols, num_symbols), off)
    np.fill_diagonal(mat, e * off)
    return Channel(mat)


def indicator_response_channel(num_symbols: int, epsilon: float, member: np.ndarray) -> Channel:
    """Two-output randomized response to membership of x in a fixed set."""
    e = exp_epsilon(epsilon)
    q_in, q_out = e / (e + 1), 1 / (e + 1)
    member = np.asarray(member, dtype=bool)
    if member.size != num_symbols:
        raise ValueError("membership vector length mismatch")
    ones = np.where(member, q_in, q_out)
    return Channel(np.column_stack([1 - ones, ones]))


def random_lbit_channel(num_symbols: int, ell: int, stream: RandomStream) -> Channel:
    """A random channel with 2^ell outputs (rows drawn flat on the simplex)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    rows = stream.gen.dirichlet(np.ones(2**ell), size=num_symbols)
    return Channel(rows)


def verification_suite(master_seed: int = 0) -> list[BoundReport]:
    """Run the standard small-instance checks and return their reports.

    Covers the privacy-contraction bound for explicit LDP channels, the
    communication contraction bound for random few-bit channels, and the
    packing gap at representative (k, s) pairs. Deterministic given the
    seed.
    """
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

    stream = RandomStream(master_seed, stream_id=20)
    for ell in (1, 2, 3):
        worst = 0.0
        for trial in range(20):
            channel = random_lbit_channel(k + 1, ell, stream.child(ell * 100 + trial))
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
