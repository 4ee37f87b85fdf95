"""Euclidean projection onto the probability simplex and its s-sparse subset,
and the split-half estimator built on them.

Decoders produce signed intermediate estimates; these projections turn them
into valid distributions. The plain simplex projection is the usual
sort-and-threshold method (find the largest j for which shifting the top-j
entries to sum to 1 keeps them positive). An estimate lives on its support
T: the values on T, gathered and projected onto the simplex over T, and 0
off T. With T the s largest entries (top_s_indices) that is the standard
greedy projection onto the s-sparse simplex; T = every symbol gives the
whole simplex.

Tie-breaking on equal values prefers the smaller index, so outputs are fully
deterministic - seeded experiment replays depend on this.

rappor and comm_hash share one two-stage estimator (split_half_estimate):
n users split into halves of n // 2 and n - n // 2, per-symbol counts of
the first half rank the symbols and pick a candidate support T of
min(2s, k) symbols, and the second half's counts, whose mean is affine in
p, are drawn on T only (sampler 3), inverted on T (split_half_decode) and
projected onto the simplex over T. Each scheme is described by its
channel's two probabilities: a user's message counts for the user's own
symbol with probability 1 - drop and for any other symbol with probability
noise. That pair is all a scheme supplies: the halves, the size of T, the
count law (split_half_counts) and the affine decode constants are decided
here and nowhere else.
"""

from __future__ import annotations

import numpy as np

from .core import check_number, check_sparsity, derive_keys, keyed_generator


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
    s indices per row of v. Raises ValueError unless 1 <= s <= k, the row
    width (check_sparsity), and naming the NaN if v holds one.
    """
    v = np.asarray(v)
    if v.ndim not in (1, 2):
        raise ValueError(f"input must be a vector or (B, k) stack, got shape {v.shape}")
    rows = v.reshape(-1, v.shape[-1])
    k = rows.shape[1]
    check_sparsity(k, s)
    if np.isnan(rows).any():
        raise ValueError("input holds a NaN, which has no rank")
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


def split_half_decode(N: np.ndarray, m2: int, drop: float, noise: float):
    """The two-stage estimate from the second half's counts on each row's candidate support.

    N holds the (B, t) counts of m2 users on a (B, t) stack of supports T,
    N[i, j] the count of symbol T[i, j]. The raw estimate inverts
    E[N(x)]/m2 = beta + gamma p(x), with beta = noise and
    gamma = 1 - (drop + noise), and the estimate is raw projected onto the
    simplex over T. Returns both, (B, t) like N; both are 0 off T.
    """
    # 1 - (drop + noise), not (1 - drop) - noise: for rappor (drop = noise = q)
    # it is 1 - 2q to the last bit
    beta, gamma = noise, 1 - (drop + noise)
    raw = (np.asarray(N, dtype=np.float64) / m2 - beta) / gamma
    return raw, project_simplex_vec(raw)


def split_halves(n: int) -> tuple[int, int]:
    """The users in the two halves of n: n // 2 and n - n // 2.

    The one home of the split-half schemes' user-count rule: raises
    ValueError unless n is an integer (check_number) and n >= 2, so that
    neither half is empty.
    """
    check_number("n", n)
    if n < 2:
        raise ValueError(f"n={n}: a split-half scheme splits users in half and needs n >= 2")
    return n // 2, n - n // 2


def split_half_estimate(P: np.ndarray, n: int, drop: float, noise: float, s: int, keys):
    """Split n users in half and estimate each row of a (B, k) stack of s-sparse targets from the halves' counts.

    The halves hold split_halves(n) users. keys is a sequence of integer
    keys in [0, 2^64), one per row; row i draws from the child streams 0 to 3 of the stream whose key
    is keys[i], in the order 0, 2, 1, 3. Child 0: the first half's symbol
    histogram, a multinomial over the row's support (a zero-probability
    symbol takes nothing from a stream, so these are the counts of a draw
    over all k), drawn into the row of M. Child 2: the first half's counts
    M over all k symbols, by split_half_counts. The candidate support T is
    the top t = min(2s, k) entries of each row of M (ties to the smaller
    index). Child 1: the second half's histogram, into a (k,) buffer of the
    row's own, read on T only. Child 3: the second half's counts N on T
    only, by split_half_counts (sampler 3). Given the histogram the
    symbols' counts are independent, so N on T has the law of N over all k
    symbols restricted to T. M is the one (B, k) stack. Each draw re-keys
    this thread's keyed_generator, so a stream's variates do not depend on
    the order the streams are drawn in. Returns T and split_half_decode's
    (B, t) raw and projected estimates on T. Raises ValueError unless
    n >= 2 (split_halves) and keys holds one key per row.
    """
    P = np.asarray(P, dtype=np.float64)
    if len(keys) != len(P):
        raise ValueError(f"got {len(keys)} keys for {len(P)} targets")
    m1, m2 = split_halves(n)
    M = np.zeros(P.shape, dtype=np.int64)
    children = [derive_keys(key, range(4)) for key in keys]
    supports = [row.nonzero()[0] for row in P]
    for i, (key1, _, key_m, _) in enumerate(children):
        M[i, supports[i]] = keyed_generator(key1).multinomial(m1, P[i, supports[i]])
        M[i] = split_half_counts(M[i], m1, drop, noise, keyed_generator(key_m))
    T = top_s_indices(M, min(2 * s, P.shape[1]))
    N = np.empty(T.shape, dtype=np.int64)
    for i, (_, key2, _, key_n) in enumerate(children):
        c2 = np.zeros(P.shape[1], dtype=np.int64)
        c2[supports[i]] = keyed_generator(key2).multinomial(m2, P[i, supports[i]])
        N[i] = split_half_counts(c2[T[i]], m2, drop, noise, keyed_generator(key_n))
    return (T, *split_half_decode(N, m2, drop, noise))
