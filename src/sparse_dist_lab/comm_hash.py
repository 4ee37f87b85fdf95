"""Public-coin hashing scheme for estimation under a bits-per-message budget.

Every user compresses their symbol through their own random hash function
h_i: [k] -> [2^ell] and sends only the hashed value. Shared (public)
randomness lets the server re-evaluate any user's hash, so each received
value carves out a preimage set; counting, for each symbol x, how many users'
messages are consistent with x gives the statistic everything else is built
on. A symbol of probability p(x) is consistent with a random user's message
with probability b(x) = p(x)(1 - 2^-ell) + 2^-ell, hence the affine decoding
step.

When 2^ell exceeds roughly 2s the extra buckets buy nothing, so the scheme
silently hashes into min(ell, ceil(log2 s)+1) bits; the raw ell is kept for
reporting.

A protocol run is the split-half estimate shared with rappor
(projection.split_half_estimate), which splits the users, picks the
candidate support T and draws and decodes the counts. comm_hash's part is
its channel pair: a message is always consistent with its user's symbol
and, under an ideal hash, with any other symbol with probability 2^-ell,
independently across symbols since the hash values of the other symbols are
i.i.d., so drop = 0 and noise = 2^-ell at the effective ell. No per-user
hash or message is materialized; the tests hold the per-user hash and the
preimage scan that the count law is checked against.
"""

from __future__ import annotations

import operator

import numpy as np

from .core import check_ell
from .projection import split_half_estimate


def effective_ell(ell: int, s: int) -> int:
    """Bits the scheme actually uses: min(ell, ceil(log2 s) + 1); ValueError unless ell >= 1 (check_ell)."""
    check_ell(ell)
    return min(ell, (operator.index(s) - 1).bit_length() + 1)


def comm_run_stack(P: np.ndarray, n: int, ell: int, s: int, keys):
    """One full protocol run on each row of a (B, k) stack of targets with its own stream key.

    split_half_estimate with drop = 0 and noise = 2^-effective_ell, one over
    the bucket count; the counts' ideal-hash law does not depend on the
    public coins. keys holds one 64-bit key per row. Returns the
    (B, min(2s, k)) supports and the raw and projected estimates on them,
    of the same shape.
    """
    noise = 1.0 / (1 << effective_ell(ell, s))
    return split_half_estimate(P, n, 0.0, noise, s, keys)
