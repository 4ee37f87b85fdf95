"""Per-user encoders and message-level aggregators: the reference oracles.

Protocol runs never materialize a user's message; they draw each scheme's
sufficient statistic from its exact law. The tests check those laws against
the per-user encoders and aggregators here, which follow the protocol
definitions message by message. Messages are plain ints or arrays.
"""

from __future__ import annotations

import numpy as np

from sparse_dist_lab.comm_hash import HashScheme
from sparse_dist_lab.core import ALT64, GOLDEN64, MASK64, RandomStream, mix64
from sparse_dist_lab.hadamard import entry, membership_parity
from sparse_dist_lab.hadamard_response import HRFractions, hr_flip_probs
from sparse_dist_lab.rappor import flip_probability

# ------------------------------------------------------------ Hadamard response


def in_column_set(K: int, y: int, x: int) -> bool:
    """True iff row x carries +1 in column y (membership in the set B_y)."""
    return entry(K, x, y) == 1


def hr_encode(x: int, user_index: int, epsilon: float, K: int, stream: RandomStream) -> int:
    """Privatize one symbol into a single bit.

    The user's group is user_index mod K; the bit is a randomized response
    to membership of x in that group's column set.
    """
    q_in, q_out = hr_flip_probs(epsilon)
    j = user_index % K
    prob_one = q_in if in_column_set(K, j, x) else q_out
    return int(stream.gen.random() < prob_one)


def hr_encode_batch(xs: np.ndarray, epsilon: float, K: int, stream: RandomStream, first_user: int = 0) -> np.ndarray:
    """Encode symbols for users first_user, first_user+1, ... in one pass.

    Returns a uint8 bit vector aligned with xs. Equivalent in law to calling
    hr_encode per user on independent substreams.
    """
    xs = np.asarray(xs, dtype=np.int64)
    q_in, q_out = hr_flip_probs(epsilon)
    groups = (first_user + np.arange(xs.size, dtype=np.int64)) % K
    member = membership_parity(K, groups, xs)
    prob_one = np.where(member, q_in, q_out)
    return (stream.gen.random(xs.size) < prob_one).astype(np.uint8)


def hr_aggregate(bits: np.ndarray, n: int, K: int) -> HRFractions:
    """Per-group fractions of ones from a full batch of n messages.

    Position i of ``bits`` is user i's bit. Requires n >= K so every group
    is populated (with fewer users some group would be empty and decoding
    undefined).
    """
    if n < K:
        raise ValueError(f"need at least K={K} users, got n={n}")
    if bits.size != n:
        raise ValueError("bit vector length must equal n")
    groups = np.arange(n, dtype=np.int64) % K
    sizes = np.bincount(groups, minlength=K)
    ones = np.bincount(groups, weights=bits.astype(np.float64), minlength=K)
    return HRFractions(ones / sizes, sizes)


# ---------------------------------------------------------------------- RAPPOR


def rappor_encode(x: int, epsilon: float, k: int, stream: RandomStream) -> np.ndarray:
    """One-hot encode x and flip each bit independently."""
    if not 0 <= x < k:
        raise ValueError(f"symbol {x} out of range for k={k}")
    q = flip_probability(epsilon)
    bits = np.zeros(k, dtype=np.uint8)
    bits[x] = 1
    flips = stream.gen.random(k) < q
    return bits ^ flips.astype(np.uint8)


def rappor_encode_batch(xs: np.ndarray, epsilon: float, k: int, stream: RandomStream) -> np.ndarray:
    """Encode many users at once; row i is user i's message."""
    xs = np.asarray(xs, dtype=np.int64)
    q = flip_probability(epsilon)
    bits = np.zeros((xs.size, k), dtype=np.uint8)
    bits[np.arange(xs.size), xs] = 1
    flips = stream.gen.random((xs.size, k)) < q
    return bits ^ flips.astype(np.uint8)


def column_sums(messages: np.ndarray) -> np.ndarray:
    """Total ones per coordinate over a batch of messages, one row per user."""
    return messages.sum(axis=0, dtype=np.int64)


# ------------------------------------------------------------------ comm_hash


def hash_eval(scheme: HashScheme, user_index: int, x: int) -> int:
    """h_{user_index}(x): deterministic, near-uniform over the buckets."""
    if not 0 <= x < scheme.k:
        raise ValueError(f"symbol {x} out of range for k={scheme.k}")
    z = scheme.public_seed ^ ((user_index + 1) * GOLDEN64 & MASK64) ^ ((x + 1) * ALT64 & MASK64)
    return mix64(z) & (scheme.num_buckets - 1)
