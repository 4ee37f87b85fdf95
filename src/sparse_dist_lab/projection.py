"""Euclidean projection onto the probability simplex and its s-sparse subset,
and the split-half estimator built on them.

Decoders produce signed intermediate estimates; these projections turn them
into valid distributions. The plain simplex projection is the usual
sort-and-threshold method (find the largest j for which shifting the top-j
entries to sum to 1 keeps them positive). Projecting onto the simplex over
a support T (project_on_support) with T the s largest entries
(top_s_indices) is the standard greedy projection onto the s-sparse simplex.

Tie-breaking on equal values prefers the smaller index, so outputs are fully
deterministic - seeded experiment replays depend on this.

rappor and comm_hash share one two-stage estimator (split_half_estimate):
per-symbol counts of the first half of the users rank the symbols and pick
a candidate support T, and the second half's counts, whose mean is affine in
p, are drawn on T only (sampler 3), inverted on T (split_half_decode) and
projected onto the simplex over T. Each scheme is described by its
channel's two probabilities: a user's message counts for the user's own
symbol with probability 1 - drop and for any other symbol with probability
noise. The count law (split_half_counts) and the affine decode constants
both follow from that pair, here and nowhere else.
"""

from __future__ import annotations

import numpy as np

from .core import child_keys, keyed_generator


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
    if s == k:
        return np.broadcast_to(np.arange(k), v.shape).copy()
    # each row's s-th largest value is its cut: keep everything at or above
    # it, then, in the rows that keep more than s, drop the surplus entries
    # equal to the cut, the last ones in index order
    cut = np.partition(rows, k - s, axis=1)[:, k - s, None]
    keep = rows >= cut
    surplus = keep.sum(axis=1) - s
    over = surplus.nonzero()[0]
    if over.size:
        ties = rows[over] == cut[over]
        from_end = ties[:, ::-1].cumsum(axis=1)[:, ::-1]  # ties at or after each index
        keep[over] &= ~(ties & (from_end <= surplus[over, None]))
    return keep.nonzero()[1].reshape(v.shape[:-1] + (s,))


def project_on_support(rows: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Each row of a (B, k) stack projected onto the simplex over its row of T (distinct indices), and zero off it."""
    if T.shape[1] == rows.shape[1]:
        return project_simplex_vec(rows)
    at = np.arange(rows.shape[0])[:, None], T
    out = np.zeros(rows.shape)
    out[at] = project_simplex_vec(rows[at])
    return out


def split_half_counts(c: np.ndarray, m: int, drop: float, noise: float, gen: np.random.Generator) -> np.ndarray:
    """Draw m users' per-symbol counts given their symbol histogram c.

    Symbol x counts each of its c(x) holders with probability 1 - drop and
    each of the other m - c(x) users with probability noise, independently,
    so the count is c - Binomial(c, drop) + Binomial(m - c, noise), drawn in
    that order from gen, in O(k) whatever m is. The subtraction is how
    NumPy draws Binomial(c, 1 - drop) for drop < 0.5 (up to the rounding of
    1 - (1 - drop)), so the counts match a direct draw of the kept bits. At
    drop = 0 the own-symbol draw would take nothing from gen but
    still cost about a quarter of the noise draw, so it is skipped.
    """
    c = np.asarray(c, dtype=np.int64)
    kept = c - gen.binomial(c, drop) if drop else c
    return kept + gen.binomial(m - c, noise)


def split_half_decode(T: np.ndarray, N: np.ndarray, k: int, m2: int, drop: float, noise: float):
    """The two-stage estimate from the second half's counts on each row's candidate support.

    T is a (B, t) stack of supports and N the (B, t) counts of m2 users on
    them, N[i, j] the count of symbol T[i, j]. On T the raw estimate inverts
    E[N(x)]/m2 = beta + gamma p(x), with beta = noise and
    gamma = 1 - (drop + noise), and the output is raw projected onto the
    simplex over T; both are zero off T. Returns the (B, k) raw and
    projected estimates.
    """
    # 1 - (drop + noise), not (1 - drop) - noise: for rappor (drop = noise = q)
    # it is 1 - 2q to the last bit
    beta, gamma = noise, 1 - (drop + noise)
    raw = np.zeros((T.shape[0], k))
    raw[np.arange(T.shape[0])[:, None], T] = (np.asarray(N, dtype=np.float64) / m2 - beta) / gamma
    return raw, project_on_support(raw, T)


def split_half_estimate(P: np.ndarray, n: int, drop: float, noise: float, t: int, keys):
    """Split n users in half and estimate each row of a (B, k) stack of targets from the halves' counts.

    keys holds one 64-bit stream key per row (a uint64 array or any int
    sequence). Row i draws the halves' symbol histograms c1 and c2 from the
    child streams 0 and 1 of the stream whose key is keys[i], as
    multinomials over the row's support (a zero-probability symbol takes
    nothing from a stream, so these are the counts of a draw over all k).
    It draws the first half's counts M over all k symbols by
    split_half_counts on child 2, takes T, the top t entries of each row
    of M (ties to the smaller index), and draws the second half's counts N
    on T only, split_half_counts(c2[T], ...) on child 3 (sampler 3). Given
    c2 the symbols' counts are independent, so N on T has the law of N
    over all k symbols restricted to T. The children's keys are derived
    for the whole stack at once (child_keys), and each draw borrows this
    thread's keyed_generator and finishes before the next re-key. Returns
    T and split_half_decode's raw and projected estimates.
    """
    P = np.asarray(P, dtype=np.float64)
    m1 = n // 2
    m2 = n - m1
    if m1 == 0:
        raise ValueError("need at least two users")
    c1 = np.zeros(P.shape, dtype=np.int64)
    c2 = np.zeros(P.shape, dtype=np.int64)
    M = np.empty(P.shape, dtype=np.int64)
    children = child_keys(np.asarray(keys, dtype=np.uint64)[:, None], range(4)).tolist()
    for i, (key1, key2, key_m, _) in enumerate(children):
        support = P[i].nonzero()[0]
        c1[i, support] = keyed_generator(key1).multinomial(m1, P[i, support])
        c2[i, support] = keyed_generator(key2).multinomial(m2, P[i, support])
        M[i] = split_half_counts(c1[i], m1, drop, noise, keyed_generator(key_m))
    T = top_s_indices(M, t)
    c2_on_T = c2[np.arange(P.shape[0])[:, None], T]
    N = np.empty(T.shape, dtype=np.int64)
    for i, (_, _, _, key_n) in enumerate(children):
        N[i] = split_half_counts(c2_on_T[i], m2, drop, noise, keyed_generator(key_n))
    return (T, *split_half_decode(T, N, P.shape[1], m2, drop, noise))
