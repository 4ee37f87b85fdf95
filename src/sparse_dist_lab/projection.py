"""Euclidean projection onto the probability simplex and its s-sparse subset,
and the split-half estimator built on them.

Decoders produce signed intermediate estimates; these projections turn them
into valid distributions. The plain simplex projection is the usual
sort-and-threshold method (find the largest j for which shifting the top-j
entries to sum to 1 keeps them positive). The sparse variant restricts to the
s largest entries first and projects the restriction, which is the standard
greedy selection for this constraint set.

Tie-breaking on equal values prefers the smaller index, so outputs are fully
deterministic - seeded experiment replays depend on this.

rappor and comm_hash share one two-stage estimator (split_half_estimate):
per-symbol counts of the first half of the users rank the symbols and pick
a candidate support T, and the second half's counts, whose mean is affine in
p, are inverted on T and projected onto the simplex over T. Each scheme is
described by its channel's two probabilities: a user's message counts for
the user's own symbol with probability 1 - drop and for any other symbol
with probability noise. The count law (split_half_counts) and the affine
decode constants both follow from that pair, here and nowhere else.
"""

from __future__ import annotations

import numpy as np

from .core import Distribution, RandomStream


def _as_rows(v) -> np.ndarray:
    """v as a finite float64 (B, k) stack; a vector becomes one row."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError("input must be a nonempty vector or (B, k) stack")
    if not np.isfinite(v).all():
        raise ValueError("input must be finite")
    return v.reshape(-1, v.shape[-1])


def simplex_threshold(v: np.ndarray) -> np.ndarray:
    """Per row of a (B, k) stack, the shift tau with sum(max(row - tau, 0)) = 1."""
    B, k = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    cumsum = u.cumsum(axis=1)
    feasible = u - (cumsum - 1) / np.arange(1, k + 1) > 0
    rho = k - 1 - feasible[:, ::-1].argmax(axis=1)  # largest feasible j (0-based)
    return (cumsum[np.arange(B), rho] - 1) / (rho + 1)


def project_simplex_vec(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex, as an array.

    A (B, k) stack is projected row by row.
    """
    rows = _as_rows(v)
    out = np.maximum(rows - simplex_threshold(rows)[:, None], 0.0)
    # kill the float dust so the result is a valid distribution bit-for-bit
    out /= out.sum(axis=1, keepdims=True)
    return out.reshape(np.shape(v))


def project_simplex(v: np.ndarray) -> Distribution:
    """Euclidean projection of v onto the probability simplex."""
    return Distribution(project_simplex_vec(v))


def top_s_indices(v: np.ndarray, s: int) -> np.ndarray:
    """Indices of the s largest entries of v, ties broken by smaller index.

    Returned in increasing index order; for a (B, k) stack, one such row of
    s indices per row of v.
    """
    v = np.asarray(v)
    if v.ndim not in (1, 2):
        raise ValueError(f"input must be a vector or (B, k) stack, got shape {v.shape}")
    rows = v.reshape(-1, v.shape[-1])
    k = rows.shape[1]
    if not 1 <= s <= k:
        raise ValueError(f"require 1 <= s <= {k}, got s={s}")
    # each row's s-th largest value is its cut: keep everything above it,
    # then the entries equal to it in index order until s are taken
    cut = np.partition(rows, k - s, axis=1)[:, k - s, None]
    above = rows > cut
    ties = rows == cut
    wanted = s - above.sum(axis=1, keepdims=True)
    keep = above | (ties & (ties.cumsum(axis=1) <= wanted))
    return keep.nonzero()[1].reshape(v.shape[:-1] + (s,))


def project_sparse_simplex_vec(v: np.ndarray, s: int) -> np.ndarray:
    """Projection onto the s-sparse simplex, as an array (row-wise on a stack)."""
    rows = _as_rows(v)
    k = rows.shape[1]
    if not 1 <= s <= k:
        raise ValueError(f"require 1 <= s <= {k}, got s={s}")
    if s == k:
        return project_simplex_vec(v)
    at = np.arange(rows.shape[0])[:, None], top_s_indices(rows, s)
    out = np.zeros_like(rows)
    out[at] = project_simplex_vec(rows[at])
    return out.reshape(np.shape(v))


def project_sparse_simplex(v: np.ndarray, s: int) -> Distribution:
    """Euclidean projection of v onto distributions with at most s atoms.

    Selects the s largest entries of v (by value, smaller index on ties),
    projects the restricted vector onto the s-simplex, and zeros the rest.
    """
    return Distribution(project_sparse_simplex_vec(v, s))


def split_half_counts(c: np.ndarray, m: int, drop: float, noise: float, stream: RandomStream) -> np.ndarray:
    """Draw m users' per-symbol counts given their symbol histogram c.

    Symbol x counts each of its c(x) holders with probability 1 - drop and
    each of the other m - c(x) users with probability noise, independently,
    so the count is c - Binomial(c, drop) + Binomial(m - c, noise), drawn in
    that order from stream, in O(k) whatever m is. The subtraction is how
    NumPy draws Binomial(c, 1 - drop) for drop < 0.5 (up to the rounding of
    1 - (1 - drop)), so the counts match a direct draw of the kept bits. At
    drop = 0 the own-symbol draw would take nothing from the stream but
    still cost about a quarter of the noise draw, so it is skipped.
    """
    c = np.asarray(c, dtype=np.int64)
    kept = c - stream.gen.binomial(c, drop) if drop else c
    return kept + stream.gen.binomial(m - c, noise)


def split_half_decode(M: np.ndarray, N: np.ndarray, m2: int, t: int, drop: float, noise: float):
    """The two-stage estimate from each row of (B, k) count stacks.

    T is the top t entries of each row of M (ties to the smaller index). On
    T the raw estimate inverts E[N(x)]/m2 = beta + gamma p(x), with
    beta = noise and gamma = 1 - (drop + noise), and the output is raw
    projected onto the simplex over T; both are zero off T. Returns the
    (B, t) supports and the (B, k) raw and projected estimates.
    """
    # 1 - (drop + noise), not (1 - drop) - noise: for rappor (drop = noise = q)
    # it is 1 - 2q to the last bit
    beta, gamma = noise, 1 - (drop + noise)
    T = top_s_indices(M, t)
    at = np.arange(M.shape[0])[:, None], T
    raw = np.zeros(M.shape)
    raw[at] = (N[at].astype(np.float64) / m2 - beta) / gamma
    out = np.zeros(M.shape)
    out[at] = project_simplex_vec(raw[at])
    return T, raw, out


def split_half_estimate(P: np.ndarray, n: int, drop: float, noise: float, t: int, streams: list[RandomStream]):
    """Split n users in half and run split_half_decode on each row of a (B, k) stack of targets.

    Row i draws the halves' symbol histograms from streams[i].child(0) and
    child(1), then each half's counts by split_half_counts on child(2) and
    child(3). Returns split_half_decode's (T, raw, out).
    """
    P = np.asarray(P, dtype=np.float64)
    m1 = n // 2
    m2 = n - m1
    if m1 == 0:
        raise ValueError("need at least two users")
    M = np.empty(P.shape, dtype=np.int64)
    N = np.empty(P.shape, dtype=np.int64)
    for i, stream in enumerate(streams):
        c1 = stream.child(0).gen.multinomial(m1, P[i])
        c2 = stream.child(1).gen.multinomial(m2, P[i])
        M[i] = split_half_counts(c1, m1, drop, noise, stream.child(2))
        N[i] = split_half_counts(c2, m2, drop, noise, stream.child(3))
    return split_half_decode(M, N, m2, t, drop, noise)
