"""RAPPOR-style estimator: one-hot encoding with per-bit randomized response.

Each user one-hot encodes their symbol into k bits and flips every bit
independently with probability 1/(e^{eps/2}+1). Flipping with that rate makes
the end-to-end channel exactly epsilon-LDP: the likelihood ratio between two
inputs is largest when the observed bit vector matches one of the one-hot
encodings, where it equals ((1-q)/q)^2 = e^eps.

A protocol run is the split-half estimate shared with comm_hash
(projection.split_half_estimate), which splits the users, picks the
candidate support T and draws and decodes the counts. rappor's part is its
channel pair: a bit is set for the user's own symbol with probability 1 - q
and for any other symbol with probability q, independently across bits, so
drop = noise = q. Messages cost k bits per user - the price paid for needing
no public randomness. No per-user message is materialized; the tests hold
the per-user encoder the count law is checked against, and the exact
2^k-output channel the privacy claim is checked against at tiny k.
"""

from __future__ import annotations

import numpy as np

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

    split_half_estimate with drop = noise = q, the flip probability at
    epsilon; keys holds one 64-bit key per row. Returns the (B, min(2s, k))
    supports and the raw and projected estimates on them, of the same shape.
    """
    q = flip_probability(epsilon)
    return split_half_estimate(P, n, q, q, s, keys)
