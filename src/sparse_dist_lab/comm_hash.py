"""Public-coin hashing scheme for estimation under a bits-per-message budget.

Every user compresses their symbol through their own random hash function
h_i: [k] -> [2^ell] and sends only the hashed value. Shared (public)
randomness lets the server re-evaluate any user's hash, so each received
value carves out a preimage set; counting, for each symbol x, how many users'
messages are consistent with x gives the statistic everything else is built
on. A symbol of probability p(x) is consistent with a random user's message
with probability b(x) = p(x)(1 - 2^-ell) + 2^-ell, hence the affine decoding
step.

The protocol again splits users into two halves: consistency counts M(x)
over the first half pick the 2s most plausible symbols as the support
candidate T, then counts N(x) over the fresh second half are unbiased-
inverted on T and projected. When 2^ell exceeds roughly 2s the extra buckets
buy nothing, so the scheme silently hashes into min(ell, ceil(log2 s)+1)
bits; the raw ell is kept for reporting.

Protocol runs draw M over all k symbols and N on T only, each from its
exact ideal-hash law given its half's symbol histogram, in O(k) whatever n
is, and decode through the split-half estimator shared with rappor
(projection.split_half_estimate, sampler 3). A message is always consistent
with its user's symbol and, under an ideal hash, with any other symbol with
probability 2^-ell, independently across symbols since the hash values of
the other symbols are i.i.d.; so N restricted to T has the law of the full
N restricted to T, and the scheme hands that estimator drop = 0 and
noise = 2^-ell at the effective ell. No per-user hash or
message is materialized; the tests hold the per-user hash and the preimage
scan that this law is checked against.
"""

from __future__ import annotations

import numpy as np

from .projection import split_half_estimate


def effective_ell(ell: int, s: int) -> int:
    """Bits the scheme actually uses: min(ell, ceil(log2 s) + 1)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return min(ell, (s - 1).bit_length() + 1)


def comm_run_stack(P: np.ndarray, n: int, ell: int, s: int, keys):
    """One full protocol run on each row of a (B, k) stack of targets with its own stream key.

    Splits the n users in half and draws each half's symbol histogram and
    then its consistency counts (the second half's on the candidate support
    only) from their exact ideal-hash law, which does not depend on the
    public coins; they are decoded by split_half_estimate on a candidate
    support of min(2s, k) symbols with drop = 0 and
    noise = 2^-effective_ell, one over the bucket count. keys
    holds one 64-bit key per row (see split_half_estimate). Returns the
    (B, min(2s, k)) supports and the raw and projected estimates on them,
    of the same shape.
    """
    k = np.shape(P)[1]
    noise = 1.0 / (1 << effective_ell(ell, s))
    return split_half_estimate(P, n, 0.0, noise, min(2 * s, k), keys)

