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
estimator shared with rappor (projection.split_half_estimate). The batch
encoder and the preimage scan realize the hashes as a 64-bit avalanche mix
of (public seed, user index, symbol) that replays bit-exactly anywhere and,
at the statistics measured here, is indistinguishable from the ideal random
hash; the demos and the tests use them, protocol runs do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ALT64, GOLDEN64, MASK64, Distribution, RandomStream, as_probs, mix64_array
from .projection import split_half_estimate

# Users per block when scanning preimages; keeps the (block x k) hash matrix
# around 32 MB at k = 1000.
_SCAN_BLOCK_CELLS = 1 << 22


def effective_ell(ell: int, s: int | None) -> int:
    """Bits the scheme actually uses: min(ell, ceil(log2 s) + 1)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if s is None:
        return ell
    return min(ell, (s - 1).bit_length() + 1)


@dataclass(frozen=True)
class HashScheme:
    """Shared description of everyone's hash functions.

    ``s`` (the target sparsity) is optional; when present it caps the bucket
    count via effective_ell. All hash evaluations and message values live in
    [0, 2^effective_ell).
    """

    public_seed: int
    ell: int
    k: int
    s: int | None = None

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "public_seed", int(self.public_seed) & MASK64)

    @property
    def ell_eff(self) -> int:
        return effective_ell(self.ell, self.s)

    @property
    def num_buckets(self) -> int:
        return 1 << self.ell_eff


def hash_eval_batch(scheme: HashScheme, users: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """h_u(x) for users u and symbols x, broadcast against each other.

    Each value is a 64-bit avalanche mix of (public seed, u, x) masked to
    the bucket count: deterministic and near-uniform over the buckets.
    """
    u = (np.asarray(users).astype(np.uint64) + np.uint64(1)) * np.uint64(GOLDEN64)
    v = (np.asarray(xs).astype(np.uint64) + np.uint64(1)) * np.uint64(ALT64)
    z = mix64_array(np.uint64(scheme.public_seed) ^ u ^ v)
    return (z & np.uint64(scheme.num_buckets - 1)).astype(np.int64)


def comm_encode_batch(xs: np.ndarray, scheme: HashScheme, first_user: int = 0) -> np.ndarray:
    """Hash symbol xs[i] for user first_user + i; returns the value vector."""
    xs = np.asarray(xs, dtype=np.int64)
    users = first_user + np.arange(xs.size, dtype=np.int64)
    return hash_eval_batch(scheme, users, xs)


def b_of(p_x: float, ell: int) -> float:
    """Probability that a symbol of mass p_x is consistent with a message."""
    if not 0 <= p_x <= 1:
        raise ValueError("p_x must lie in [0,1]")
    return p_x * (1 - 2.0**-ell) + 2.0**-ell


def preimage_counts(messages: tuple[np.ndarray, np.ndarray], scheme: HashScheme, k: int | None = None) -> np.ndarray:
    """For each symbol x, how many messages are consistent with x.

    ``messages`` is a (users, values) pair of arrays. The scan re-evaluates
    every user's hash at every symbol in blocks, so memory stays bounded
    while the work is one big vectorized comparison.
    """
    if k is None:
        k = scheme.k
    users, values = (np.asarray(a, dtype=np.int64) for a in messages)
    counts = np.zeros(k, dtype=np.int64)
    if users.size == 0:
        return counts
    block = max(1, _SCAN_BLOCK_CELLS // k)
    symbols = np.arange(k, dtype=np.int64)
    for lo in range(0, users.size, block):
        hi = min(lo + block, users.size)
        evals = hash_eval_batch(scheme, users[lo:hi, None], symbols[None, :])
        counts += (evals == values[lo:hi, None]).sum(axis=0)
    return counts


def sample_preimage_counts_hist(sample_counts: np.ndarray, m: int, scheme: HashScheme, stream: RandomStream) -> np.ndarray:
    """Draw ideal-hash consistency counts given the users' symbol histogram.

    For a user holding X_i = x the message is always consistent with x; for
    any other symbol the indicator of consistency is Bernoulli(1/buckets),
    independently across users and symbols (the hash evaluates i.i.d.
    uniformly at distinct points). Hence, with c the symbol histogram,
    M(x) ~ c(x) + Binomial(m - c(x), 1/buckets), independent across x.
    O(k) regardless of m.
    """
    c = np.asarray(sample_counts, dtype=np.int64)
    extra = stream.gen.binomial(m - c, 1.0 / scheme.num_buckets)
    return (c + extra).astype(np.int64)


def comm_run_details(p, n: int, ell: int, s: int, stream: RandomStream):
    """One full protocol run; returns (T, raw estimate, Distribution).

    Splits the n users in half, draws each half's symbol histogram and then
    its consistency counts from their exact ideal-hash law, and decodes.
    """
    T, raw, out = comm_run_stack(as_probs(p)[None], n, ell, s, [stream])
    return T[0], raw[0], Distribution(out[0])


def comm_run_stack(P: np.ndarray, n: int, ell: int, s: int, streams: list[RandomStream]):
    """comm_run_details on each row of a (B, k) stack of targets with its own stream.

    Both halves' consistency counts are drawn from
    sample_preimage_counts_hist and decoded by split_half_estimate on a
    candidate support of min(2s, k) symbols, inverting b(x) at the scheme's
    effective bit count: beta = 1/B and gamma = 1 - 1/B for B buckets.
    Returns the (B, min(2s, k)) supports and the (B, k) raw and projected
    estimates.
    """
    k = np.shape(P)[1]
    # The ideal-hash law of the counts does not depend on the public coins.
    scheme = HashScheme(0, ell, k, s)
    inv_buckets = 1.0 / scheme.num_buckets

    def law(counts, m, stream):
        return sample_preimage_counts_hist(counts, m, scheme, stream)

    return split_half_estimate(P, n, law, min(2 * s, k), inv_buckets, 1 - inv_buckets, streams)


def pack_values(values: np.ndarray, ell: int) -> bytes:
    """Serialize ell-bit values into a dense little-endian bit stream.

    Value i occupies bit positions [i*ell, (i+1)*ell); bit position b lands
    in byte b // 8 at in-byte bit b % 8.
    """
    values = np.asarray(values, dtype=np.int64)
    if np.any(values < 0) or (values.size and int(values.max()) >= 1 << ell):
        raise ValueError("value out of range for the declared bit width")
    bits = (values[:, None] >> np.arange(ell)) & 1
    return np.packbits(bits.reshape(-1).astype(np.uint8), bitorder="little").tobytes()


def unpack_values(data: bytes, ell: int, count: int) -> np.ndarray:
    """Inverse of pack_values for a known message count."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    if bits.size < count * ell:
        raise ValueError("buffer too short for the declared count")
    bits = bits[: count * ell].reshape(count, ell).astype(np.int64)
    return (bits << np.arange(ell)).sum(axis=1)
