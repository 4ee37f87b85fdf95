"""One-bit Hadamard response: private histograms from single-bit messages.

Each user holds a symbol x in [0, k) and sends exactly one bit. Users are
split round-robin into K groups (K the smallest power of two >= k+1); a user
in group j reports a randomized indicator of whether x lies in B_j, the set
of rows where Hadamard column j is +1. Under epsilon-LDP randomized response
the bit is 1 with probability e^eps/(e^eps+1) when x is in B_j and
1/(e^eps+1) otherwise.

The server computes per-group frequencies of ones, recenters them, and
applies the transform once more: because H_K @ H_K = K*I, the group
frequencies are (up to the known affine noise map) one Hadamard transform
away from the padded input distribution, so a single fast transform inverts
the whole pipeline. The signed intermediate estimate is then gathered on its
top s entries T and projected onto the simplex over T, the s-sparse
simplex; s = k gives the whole simplex. Any s can decode the same
fractions, which is how the projection comparison experiments are run.

Protocol runs draw the per-group counts of ones from their exact binomial
law, in O(K) whatever n is. No per-user message is materialized; the tests
hold the per-user encoder and aggregator that law is checked against.
"""

from __future__ import annotations

import numpy as np

from .bounds import indicator_response_channel, indicator_response_probs
from .core import invertible_exp_epsilon, keyed_generator
from .hadamard import fwht, hadamard_dim, membership_parity
from .projection import project_simplex_vec, top_s_indices


def hr_expected_fractions(p, epsilon: float, K: int) -> np.ndarray:
    """Noiseless group fractions t for a known input distribution.

    t_j = P(bit=1 | group j) when users' symbols are drawn from p. Feeding
    this vector to the decoder recovers p exactly (up to float round-off),
    which is the identity the decoder tests pin down. For a (B, k) stack of
    distributions, returns the (B, K) stack of their fractions.
    """
    pv = np.asarray(p, dtype=np.float64)
    k = pv.shape[-1]
    if k > K:
        raise ValueError("distribution does not fit the block size")
    q_in, q_out = indicator_response_probs(epsilon)
    p_K = np.zeros(pv.shape[:-1] + (K,))
    p_K[..., :k] = pv
    member_prob = 0.5 * (1 + fwht(p_K))  # P(X in B_j) for each column j
    return q_out + (q_in - q_out) * member_prob


def hr_decode_raw(fracs, epsilon: float, k: int) -> np.ndarray:
    """Signed intermediate estimate of p (length k), before projection.

    Inverts the response map: recenter the fractions to 2*s_hat - 1, apply
    the transform, rescale by (e^eps+1)/(K(e^eps-1)), truncate to k entries.
    A (B, K) stack of fractions gives a (B, k) stack of estimates. Raises
    ValueError unless every fraction lies in [0, 1].
    """
    s_hat = np.asarray(fracs, dtype=np.float64)
    K = s_hat.shape[-1]
    if k > K:
        raise ValueError("k exceeds block size")
    if not (s_hat.min() >= 0 and s_hat.max() <= 1):  # NaN fails both
        raise ValueError("fractions must lie in [0,1]")
    e = invertible_exp_epsilon(epsilon)
    scale = (e + 1) / (K * (e - 1))
    return scale * fwht(2.0 * s_hat - 1.0)[..., :k]


def hr_group_sizes(n: int, k: int) -> np.ndarray:
    """The users in each of the K = hadamard_dim(k) groups when n users are assigned round-robin.

    The one home of HR's user-count rule: raises ValueError unless n >= K,
    so that no group is empty.
    """
    K = hadamard_dim(k)
    if n < K:
        raise ValueError(f"n={n} is below the block size K={K} of k={k}: HR needs n >= K")
    sizes = np.full(K, n // K, dtype=np.int64)
    sizes[: n % K] += 1
    return sizes


def hr_draw_fractions(P: np.ndarray, n: int, epsilon: float, keys) -> np.ndarray:
    """Draw, for each row of a (B, k) stack of targets, the K per-group fractions of ones of n users.

    keys is a sequence of integer keys in [0, 2^64), one per row, and row i
    draws from the stream whose key is keys[i]. Round-robin assignment
    fixes each group's size, and marginally over its symbol every user in
    group j sends a 1 with probability t_j (see hr_expected_fractions),
    independently of all other users, so ones_j ~ Binomial(n_j, t_j) is the
    exact law of encoding and aggregating every user's bit. Returns the
    (B, K) fractions. Raises ValueError unless keys holds one key per row,
    and unless n >= K (hr_group_sizes).
    """
    if len(keys) != len(P):
        raise ValueError(f"got {len(keys)} keys for {len(P)} targets")
    sizes = hr_group_sizes(n, np.shape(P)[1])
    t = np.clip(hr_expected_fractions(P, epsilon, len(sizes)), 0.0, 1.0)  # round-off can pass 1 at large eps
    ones = np.stack([keyed_generator(key).binomial(sizes, row) for key, row in zip(keys, t)])
    return ones / sizes


def hr_run_stack(P: np.ndarray, n: int, epsilon: float, s: int, keys):
    """One protocol run on each row of a (B, k) stack of targets with its own stream key.

    keys is a sequence of integer keys in [0, 2^64), one per row.
    Row i draws its fractions by hr_draw_fractions, from the stream whose
    key is keys[i]; the transforms and projections then run once over the
    whole stack. The support T is the top s entries of each row's raw
    estimate (s = k gives the whole simplex). Returns the (B, s) supports
    and the (B, s) raw and projected estimates on them.
    """
    raw = hr_decode_raw(hr_draw_fractions(P, n, epsilon, keys), epsilon, np.shape(P)[1])
    T = top_s_indices(raw, s)
    raw_T = np.take_along_axis(raw, T, axis=1)
    return T, raw_T, project_simplex_vec(raw_T)


def hr_channel_matrix(epsilon: float, K: int, j: int, k: int | None = None) -> np.ndarray:
    """The explicit per-user channel of group j, as a k x 2 stochastic matrix.

    Row x is (P(bit=0 | x), P(bit=1 | x)). Used by the bounds machinery to
    check the privacy guarantee numerically; k defaults to K-1, the largest
    domain the block size supports.
    """
    if not 0 <= j < K:
        raise ValueError(f"group {j} out of range for K={K}")
    if k is None:
        k = K - 1
    if not 1 <= k <= K:
        raise ValueError("k out of range")
    member = membership_parity(K, np.full(k, j, dtype=np.int64), np.arange(k, dtype=np.int64))
    return indicator_response_channel(k, epsilon, member)
