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

Protocol runs draw (M, N) from their exact ideal-hash law given the halves'
symbol histograms, in O(k) whatever n is, and decode through the split-half
estimator shared with rappor (projection.split_half_estimate). A message is
always consistent with its user's symbol and, under an ideal hash, with any
other symbol with probability 2^-ell, so the scheme hands that estimator
drop = 0 and noise = 2^-ell at the effective ell. No per-user hash or
message is materialized; the tests hold the per-user hash and the preimage
scan that this law is checked against.
"""

from __future__ import annotations

import numpy as np

from .core import Distribution, as_probs
from .projection import split_half_estimate


def effective_ell(ell: int, s: int | None) -> int:
    """Bits the scheme actually uses: min(ell, ceil(log2 s) + 1)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if s is None:
        return ell
    return min(ell, (s - 1).bit_length() + 1)


def comm_run_details(p, n: int, ell: int, s: int, key: int):
    """One full protocol run; returns (T, raw estimate, Distribution).

    Splits the n users in half, draws each half's symbol histogram and then
    its consistency counts from their exact ideal-hash law, and decodes;
    the stream of key draws it all.
    """
    T, raw, out = comm_run_stack(as_probs(p)[None], n, ell, s, [key])
    return T[0], raw[0], Distribution(out[0])


def comm_run_stack(P: np.ndarray, n: int, ell: int, s: int, keys):
    """comm_run_details on each row of a (B, k) stack of targets with its own stream key.

    Both halves' consistency counts are drawn from their exact ideal-hash
    law, which does not depend on the public coins, and decoded by
    split_half_estimate on a candidate support of min(2s, k) symbols with
    drop = 0 and noise = 2^-effective_ell, one over the bucket count. keys
    holds one 64-bit key per row (see split_half_estimate). Returns the
    (B, min(2s, k)) supports and the (B, k) raw and projected estimates.
    """
    k = np.shape(P)[1]
    noise = 1.0 / (1 << effective_ell(ell, s))
    return split_half_estimate(P, n, 0.0, noise, min(2 * s, k), keys)

