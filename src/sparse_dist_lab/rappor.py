"""RAPPOR-style estimator: one-hot encoding with per-bit randomized response.

Each user one-hot encodes their symbol into k bits and flips every bit
independently with probability 1/(e^{eps/2}+1). Flipping with that rate makes
the end-to-end channel exactly epsilon-LDP: the likelihood ratio between two
inputs is largest when the observed bit vector matches one of the one-hot
encodings, where it equals ((1-q)/q)^2 = e^eps.

Estimation is two-stage on split halves of the users. Column sums M(x) of
the first half rank the symbols; the 2s best form the candidate support T.
On the second half, N(x)/(n/2) estimates q + (1-2q) p(x), so inverting that
affine map gives per-coordinate unbiased estimates on T, which are then
projected onto the simplex supported on T. Messages cost k bits per user -
the price paid for needing no public randomness.

Protocol runs draw both halves' column sums from their exact law given the
symbol histograms, in O(k), and decode through the split-half estimator
shared with comm_hash (projection.split_half_estimate). No per-user message
is materialized; the tests hold the per-user encoder that law is checked
against.

Note the inversion constants: with flip probability q = 1/(e^{eps/2}+1) the
unbiased map is (N(x)/(n/2) - beta)/gamma with beta = q and gamma = 1 - 2q.
Pairing this encoder with the (1/(e^eps+1), (e^eps-1)/(e^eps+1)) constants
sometimes quoted for rate-1/(e^eps+1) flipping would bias every coordinate.
"""

from __future__ import annotations

import numpy as np

from .bounds import Channel
from .core import RandomStream, exp_epsilon
from .projection import split_half_estimate


def flip_probability(epsilon: float) -> float:
    """Per-bit flip probability giving an exactly epsilon-LDP channel.

    Raises ValueError naming epsilon when it is not positive or e^(epsilon/2)
    overflows a float.
    """
    return 1 / (exp_epsilon(epsilon, 2) + 1)


def sample_column_sums_hist(sample_counts: np.ndarray, m: int, epsilon: float, stream: RandomStream) -> np.ndarray:
    """Draw message-batch column sums given the users' symbol histogram.

    Column x receives c_x true bits kept with probability 1-q plus flipped
    zeros from the other m-c_x users, and distinct columns are independent
    because every bit flip is, so
    M(x) ~ Binomial(c_x, 1-q) + Binomial(m-c_x, q).
    O(k) instead of the O(m*k) of encoding every user.
    """
    c = np.asarray(sample_counts, dtype=np.int64)
    q = flip_probability(epsilon)
    kept = stream.gen.binomial(c, 1 - q)
    noise = stream.gen.binomial(m - c, q)
    return (kept + noise).astype(np.int64)


def rappor_run_stack(P: np.ndarray, n: int, epsilon: float, s: int, streams: list[RandomStream]):
    """One protocol run on each row of a (B, k) stack of targets with its own stream.

    Both halves' column sums are drawn from sample_column_sums_hist, the
    exact law of encoding every user, and decoded by split_half_estimate on
    a candidate support of 2s symbols with beta = q and gamma = 1 - 2q.
    Returns the (B, 2s) supports and the (B, k) raw and projected estimates.
    """
    k = np.shape(P)[1]
    if 2 * s > k:
        raise ValueError(f"candidate support 2s={2 * s} would exceed k={k}")
    q = flip_probability(epsilon)

    def law(counts, m, stream):
        return sample_column_sums_hist(counts, m, epsilon, stream)

    return split_half_estimate(P, n, law, 2 * s, q, 1 - 2 * q, streams)


def rappor_channel_matrix(epsilon: float, k: int) -> Channel:
    """The full 2^k-output channel, for exact privacy checks at tiny k.

    Output y is read as a bit mask (bit i of y = coordinate i of the
    message); P(y | x) = q^d (1-q)^(k-d) with d the Hamming distance between
    y and the one-hot encoding of x.
    """
    if k > 20:
        raise ValueError("exact channel enumeration is limited to k <= 20")
    q = flip_probability(epsilon)
    ys = np.arange(2**k, dtype=np.int64)
    mat = np.empty((k, 2**k))
    for x in range(k):
        d = np.bitwise_count(ys ^ (1 << x))
        mat[x] = q**d * (1 - q) ** (k - d)
    return Channel(mat)
