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

Protocol runs draw the first half's column sums over all k symbols and the
second half's on T only, each from its exact law given its half's symbol
histogram, in O(k), and decode through the split-half estimator shared with
comm_hash (projection.split_half_estimate, sampler 3). A bit is set for the
user's own symbol with probability 1 - q and for any other symbol with
probability q, and bits flip independently, so the column sums on T have
the law of all k column sums restricted to T; the scheme hands that
estimator drop = noise = q, from which it derives the count law and the
inversion constants above. No
per-user message is materialized; the tests hold the per-user encoder that
law is checked against.
"""

from __future__ import annotations

import numpy as np

from .bounds import _channel
from .core import invertible_exp_epsilon
from .projection import split_half_estimate


def flip_probability(epsilon: float) -> float:
    """Per-bit flip probability giving an exactly epsilon-LDP channel.

    Raises ValueError naming epsilon when it is not positive or e^(epsilon/2)
    overflows a float or rounds to 1, where q = 1/2 and the decoder's
    1 - 2q is 0.
    """
    return 1 / (invertible_exp_epsilon(epsilon, 2) + 1)


def rappor_run_stack(P: np.ndarray, n: int, epsilon: float, s: int, keys):
    """One protocol run on each row of a (B, k) stack of targets with its own stream key.

    Both halves' column sums (the second half's on the candidate support
    only) are drawn from their exact law, that of encoding every user, and
    decoded by split_half_estimate on a candidate support of 2s symbols; a bit flips with probability q either way, so
    drop = noise = q. keys holds one 64-bit key per row (see
    split_half_estimate). Returns the (B, 2s) supports and the (B, 2s) raw
    and projected estimates on them.
    """
    k = np.shape(P)[1]
    if 2 * s > k:
        raise ValueError(f"candidate support 2s={2 * s} would exceed k={k}")
    q = flip_probability(epsilon)
    return split_half_estimate(P, n, q, q, 2 * s, keys)


def rappor_channel_matrix(epsilon: float, k: int) -> np.ndarray:
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
    return _channel(mat)
