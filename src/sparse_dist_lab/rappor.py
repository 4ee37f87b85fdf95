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
symbol histograms, in O(k); the per-user encoders and column_sums stay as
the reference oracles that law is tested against.

Note the inversion constants: with flip probability q = 1/(e^{eps/2}+1) the
unbiased map is (N(x)/(n/2) - beta)/gamma with beta = q and gamma = 1 - 2q.
Pairing this encoder with the (1/(e^eps+1), (e^eps-1)/(e^eps+1)) constants
sometimes quoted for rate-1/(e^eps+1) flipping would bias every coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import Channel
from .core import Distribution, RandomStream, as_probs, exp_epsilon
from .projection import project_simplex_vec, top_s_indices


@dataclass(frozen=True)
class RapporMessage:
    """One user's k flipped bits."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=np.uint8)
        object.__setattr__(self, "bits", b)
        if b.ndim != 1 or np.any(b > 1):
            raise ValueError("bits must be a 1-d 0/1 vector")


def flip_probability(epsilon: float) -> float:
    """Per-bit flip probability giving an exactly epsilon-LDP channel.

    Raises ValueError naming epsilon when it is not positive or e^(epsilon/2)
    overflows a float.
    """
    return 1 / (exp_epsilon(epsilon, 2) + 1)


def rappor_encode(x: int, epsilon: float, k: int, stream: RandomStream) -> RapporMessage:
    """One-hot encode x and flip each bit independently."""
    if not 0 <= x < k:
        raise ValueError(f"symbol {x} out of range for k={k}")
    q = flip_probability(epsilon)
    bits = np.zeros(k, dtype=np.uint8)
    bits[x] = 1
    flips = stream.gen.random(k) < q
    return RapporMessage(bits ^ flips.astype(np.uint8))


def rappor_encode_batch(xs: np.ndarray, epsilon: float, k: int, stream: RandomStream) -> np.ndarray:
    """Encode many users at once; row i is user i's message."""
    xs = np.asarray(xs, dtype=np.int64)
    q = flip_probability(epsilon)
    bits = np.zeros((xs.size, k), dtype=np.uint8)
    bits[np.arange(xs.size), xs] = 1
    flips = stream.gen.random((xs.size, k)) < q
    return bits ^ flips.astype(np.uint8)


def column_sums(messages) -> np.ndarray:
    """Total ones per coordinate over a batch of messages."""
    if isinstance(messages, np.ndarray):
        return messages.sum(axis=0, dtype=np.int64)
    return np.sum([m.bits for m in messages], axis=0, dtype=np.int64)


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


def rappor_estimate_details(first_half, second_half, k: int, s: int, epsilon: float):
    """Two-stage estimate from message batches.

    Returns (support T, raw per-coordinate estimate, Distribution). Batches
    are lists of RapporMessage or 2-d bit arrays with one row per user.
    """
    if len(first_half) == 0 or len(second_half) == 0:
        raise ValueError("both halves must be nonempty")
    m2 = second_half.shape[0] if isinstance(second_half, np.ndarray) else len(second_half)
    return rappor_estimate_from_counts(column_sums(first_half), column_sums(second_half), m2, k, s, epsilon)


def rappor_estimate(first_half, second_half, k: int, s: int, epsilon: float) -> Distribution:
    """Two-stage RAPPOR estimate (see rappor_estimate_details)."""
    return rappor_estimate_details(first_half, second_half, k, s, epsilon)[2]


def rappor_estimate_from_counts(M: np.ndarray, N: np.ndarray, m2: int, k: int, s: int, epsilon: float):
    """Counts-first variant; returns (T, raw, Distribution)."""
    T, raw, out = _estimate_stack(np.asarray(M)[None], np.asarray(N)[None], m2, k, s, epsilon)
    return T[0], raw[0], Distribution(out[0])


def _estimate_stack(M: np.ndarray, N: np.ndarray, m2: int, k: int, s: int, epsilon: float):
    """rappor_estimate_from_counts on each row of (B, k) count stacks.

    Returns the (B, 2s) supports and the (B, k) raw and projected estimates.
    """
    if 2 * s > k:
        raise ValueError(f"candidate support 2s={2 * s} would exceed k={k}")
    q = flip_probability(epsilon)
    T = top_s_indices(M, 2 * s)
    at = np.arange(M.shape[0])[:, None], T
    raw = np.zeros((M.shape[0], k))
    raw[at] = (N[at].astype(np.float64) / m2 - q) / (1 - 2 * q)
    out = np.zeros((M.shape[0], k))
    out[at] = project_simplex_vec(raw[at])
    return T, raw, out


def rappor_run(p, n: int, epsilon: float, s: int, stream: RandomStream) -> Distribution:
    """One full protocol run: draw both halves' column sums, estimate.

    Each half's symbol histogram is multinomial and its column sums follow
    from sample_column_sums_hist, which is the exact law of encoding every
    user, so no per-user sample or message is materialized.
    """
    return Distribution(rappor_run_stack(as_probs(p)[None], n, epsilon, s, [stream])[0])


def rappor_run_stack(P: np.ndarray, n: int, epsilon: float, s: int, streams: list[RandomStream]) -> np.ndarray:
    """rappor_run on each row of a (B, k) stack of targets with its own stream.

    Each row draws its counts from its stream's children exactly as
    rappor_run does; support selection and projection then run once over the
    whole stack. Returns the (B, k) estimates.
    """
    P = np.asarray(P, dtype=np.float64)
    m1 = n // 2
    m2 = n - m1
    if m1 == 0:
        raise ValueError("need at least two users")
    M = np.empty(P.shape, dtype=np.int64)
    N = np.empty(P.shape, dtype=np.int64)
    for i, stream in enumerate(streams):
        c1 = stream.child(0).gen.multinomial(m1, P[i])
        c2 = stream.child(1).gen.multinomial(m2, P[i])
        M[i] = sample_column_sums_hist(c1, m1, epsilon, stream.child(2))
        N[i] = sample_column_sums_hist(c2, m2, epsilon, stream.child(3))
    return _estimate_stack(M, N, m2, P.shape[1], s, epsilon)[2]


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
