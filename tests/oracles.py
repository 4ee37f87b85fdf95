"""Per-user encoders and message-level aggregators: the reference oracles.

Protocol runs never materialize a user's message; they draw each scheme's
sufficient statistic from its exact law. The tests check those laws against
the per-user encoders and aggregators here, which follow the protocol
definitions message by message: Hadamard response's bits and group
fractions, RAPPOR's flipped one-hot vectors, and comm_hash's per-user hash
(a 64-bit avalanche mix of the public seed, the user index and the symbol,
masked to the bucket count) with the preimage scan that counts, for each
symbol, the messages consistent with it. Messages are plain ints or arrays.

The samplers and encoders draw from the generator they are given, going on
from its last draw. A test that calls one repeatedly on one stream owns its
generator, np.random.Generator(np.random.Philox(key=key)); a test that draws
once may borrow keyed_generator(key).
"""

from __future__ import annotations

import numpy as np

from sparse_dist_lab.bounds import indicator_response_probs
from sparse_dist_lab.core import GOLDEN64, MASK64, mix64, mix64_array
from sparse_dist_lab.hadamard import membership_parity
from sparse_dist_lab.rappor import flip_probability

# a second odd multiplier, so the user index and the symbol enter a hash
# through independent constants
ALT64 = 0xD1B54A32D192ED03


def sample_iid(p, n: int, gen: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. symbols from p by inverse-CDF lookup, with gen's next n uniforms."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf[-1] = 1.0  # guard against float round-off at the top end
    return np.searchsorted(cdf, gen.random(n), side="right").astype(np.int64)


# ------------------------------------------------------------ Hadamard response


def entry(K: int, x: int, y: int) -> int:
    """Entry H_K[x, y] in {+1, -1}, equal to (-1)^popcount(x AND y)."""
    if K < 1 or K & (K - 1):
        raise ValueError(f"K must be a power of two, got {K}")
    if not (0 <= x < K and 0 <= y < K):
        raise IndexError(f"indices ({x}, {y}) out of range for K={K}")
    return 1 - 2 * ((x & y).bit_count() & 1)


def in_column_set(K: int, y: int, x: int) -> bool:
    """True iff row x carries +1 in column y (membership in the set B_y)."""
    return entry(K, x, y) == 1


def hr_encode(x: int, user_index: int, epsilon: float, K: int, gen: np.random.Generator) -> int:
    """Privatize one symbol into a single bit.

    The user's group is user_index mod K; the bit is a randomized response
    to membership of x in that group's column set.
    """
    q_in, q_out = indicator_response_probs(epsilon)
    j = user_index % K
    prob_one = q_in if in_column_set(K, j, x) else q_out
    return int(gen.random() < prob_one)


def hr_encode_batch(xs: np.ndarray, epsilon: float, K: int, gen: np.random.Generator, first_user: int = 0) -> np.ndarray:
    """Encode symbols for users first_user, first_user+1, ... in one pass.

    Returns a uint8 bit vector aligned with xs. Equivalent in law to calling
    hr_encode per user.
    """
    xs = np.asarray(xs, dtype=np.int64)
    q_in, q_out = indicator_response_probs(epsilon)
    groups = (first_user + np.arange(xs.size, dtype=np.int64)) % K
    member = membership_parity(K, groups, xs)
    prob_one = np.where(member, q_in, q_out)
    return (gen.random(xs.size) < prob_one).astype(np.uint8)


def hr_aggregate(bits: np.ndarray, n: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-group fractions of ones, and the group sizes, from a full batch of n messages.

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
    return ones / sizes, sizes


# ---------------------------------------------------------------------- RAPPOR


def rappor_encode(x: int, epsilon: float, k: int, gen: np.random.Generator) -> np.ndarray:
    """One-hot encode x and flip each bit independently."""
    if not 0 <= x < k:
        raise ValueError(f"symbol {x} out of range for k={k}")
    q = flip_probability(epsilon)
    bits = np.zeros(k, dtype=np.uint8)
    bits[x] = 1
    flips = gen.random(k) < q
    return bits ^ flips.astype(np.uint8)


def rappor_encode_batch(xs: np.ndarray, epsilon: float, k: int, gen: np.random.Generator) -> np.ndarray:
    """Encode many users at once; row i is user i's message."""
    xs = np.asarray(xs, dtype=np.int64)
    q = flip_probability(epsilon)
    bits = np.zeros((xs.size, k), dtype=np.uint8)
    bits[np.arange(xs.size), xs] = 1
    flips = gen.random((xs.size, k)) < q
    return bits ^ flips.astype(np.uint8)


def column_sums(messages: np.ndarray) -> np.ndarray:
    """Total ones per coordinate over a batch of messages, one row per user."""
    return messages.sum(axis=0, dtype=np.int64)


# ------------------------------------------------------------------ comm_hash


def hash_eval(public_seed: int, buckets: int, user_index: int, x: int) -> int:
    """h_{user_index}(x) in [0, buckets) for a power-of-two bucket count, one pair at a time."""
    z = public_seed ^ ((user_index + 1) * GOLDEN64 & MASK64) ^ ((x + 1) * ALT64 & MASK64)
    return mix64(z) & (buckets - 1)


def hash_eval_batch(public_seed: int, buckets: int, users: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """hash_eval for users u and symbols x, broadcast against each other."""
    u = (np.asarray(users).astype(np.uint64) + np.uint64(1)) * np.uint64(GOLDEN64)
    v = (np.asarray(xs).astype(np.uint64) + np.uint64(1)) * np.uint64(ALT64)
    z = mix64_array(np.uint64(public_seed & MASK64) ^ u ^ v)
    return (z & np.uint64(buckets - 1)).astype(np.int64)


def comm_encode_batch(xs: np.ndarray, public_seed: int, buckets: int, first_user: int = 0) -> np.ndarray:
    """Each user's message: symbol xs[i] hashed by user first_user + i."""
    xs = np.asarray(xs, dtype=np.int64)
    return hash_eval_batch(public_seed, buckets, first_user + np.arange(xs.size), xs)


def preimage_counts(users: np.ndarray, values: np.ndarray, public_seed: int, buckets: int, k: int) -> np.ndarray:
    """For each symbol x in [0, k), how many of the users' messages are consistent with x.

    Re-evaluates every user's hash at every symbol in one (users x k) scan.
    """
    users, values = np.asarray(users, dtype=np.int64), np.asarray(values, dtype=np.int64)
    evals = hash_eval_batch(public_seed, buckets, users[:, None], np.arange(k)[None, :])
    return (evals == values[:, None]).sum(axis=0)
