"""Per-user encoders, message-level aggregators and the packing family: the reference oracles.

Protocol runs never materialize a user's message; they draw each scheme's
sufficient statistic from its exact law, and their estimates live on a
support T (scatter writes one out over all k symbols for the tests that need
a dense estimate). The tests check those laws against the per-user encoders
and aggregators here, which follow the protocol definitions message by
message: Hadamard response's bits and group fractions, RAPPOR's flipped
one-hot vectors, and comm_hash's per-user hash (a 64-bit avalanche mix of
the public seed, the user index and the symbol, masked to the bucket count)
with the preimage scan that counts, for each symbol, the messages consistent
with it. Messages are plain ints or arrays.

verify_ldp is checked against the column-by-column loop ldp_holds. The
lower bounds compute the expected chi-squared divergence over the
packing family in closed form. The tests check it against the family itself:
each hard distribution p_z (PackingIndex, make_packing_dist), listed one by
one (enumerate_packing_indices), pushed through the channel
(induced_output_dist) and compared with the pushforward of the family's mean
(packing_reference_dist) by chi_square.

exact_mean_tv is the exact mean TV error of a cell of any scheme: it lists
every outcome of the scheme's law (Hadamard response's per-group counts;
the split half's first histogram, counts M, candidate support T, second
histogram and counts N on T), weighs it by math.comb pmfs rather than
draws, and scores it with the package's decoder, selection and projection,
so a harness mean over many trials can be checked against it.

The samplers and encoders draw from the generator they are given, going on
from its last draw. A test that calls one repeatedly on one stream owns its
generator, np.random.Generator(np.random.Philox(key=key)); a test that draws
once may borrow keyed_generator(key).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

import numpy as np

from sparse_dist_lab.bounds import indicator_response_probs
from sparse_dist_lab.comm_hash import effective_ell
from sparse_dist_lab.core import _MIX_M1, _MIX_M2, GOLDEN64, MASK64, check_probs, mix64, tv_distance
from sparse_dist_lab.hadamard import hadamard_dim, membership_parity
from sparse_dist_lab.hadamard_response import hr_decode_raw
from sparse_dist_lab.projection import project_simplex_vec, split_half_decode, top_s_indices
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


def scatter(T, values, k: int) -> np.ndarray:
    """The dense estimate over [k] that holds values on T and 0 off T; (B, t) stacks give a (B, k) stack."""
    T = np.asarray(T)
    out = np.zeros(T.shape[:-1] + (k,))
    np.put_along_axis(out, T, values, axis=-1)
    return out


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


def exact_mean_tv(scheme: str, k: int, s: int, n: int, param: float) -> float:
    """The exact mean TV error of a cell, averaged over its C(k, s) uniform targets.

    param is the cell's epsilon, or its ell for comm_hash. Every outcome of
    the scheme's law is listed with its probability from math.comb pmfs and
    scored by the package's own decoder, selection, projection and
    tv_distance: see _hr_mean_tv and _split_half_mean_tv.
    """
    targets = list(combinations(range(k), s))
    mean_tv = _split_half_mean_tv if scheme in ("rappor", "comm_hash") else _hr_mean_tv
    return sum(mean_tv(scheme, k, support, n, param) for support in targets) / len(targets)


def _hr_mean_tv(scheme: str, k: int, support: tuple, n: int, epsilon: float) -> float:
    """The exact mean TV error of an hr_sparse or hr_dense cell at the uniform target on support.

    Group j of the K groups holds n_j round-robin users, and its count of
    ones is Binomial(n_j, t_j), where t_j is q_in when a user's symbol lies
    in column set B_j and q_out when not, averaged over the target. Every
    joint outcome of the K counts is listed, with its probability from
    math.comb pmfs, and decoded (hr_decode_raw), cut to its top t entries,
    projected onto the simplex over them and scored (tv_distance) by the
    package's own functions; t = s for hr_sparse and t = k for hr_dense.
    """
    s = len(support)
    t = {"hr_sparse": s, "hr_dense": k}[scheme]
    K = hadamard_dim(k)
    sizes = [n // K + (j < n % K) for j in range(K)]
    ones = np.array(list(product(*(range(m + 1) for m in sizes))))  # (outcomes, K)
    raw = hr_decode_raw(ones / sizes, epsilon, k)
    T = top_s_indices(raw, t)
    est = project_simplex_vec(np.take_along_axis(raw, T, axis=1))
    q_in, q_out = indicator_response_probs(epsilon)
    p = np.zeros(k)
    p[list(support)] = 1 / s
    prob = np.ones(len(ones))
    for j, m in enumerate(sizes):
        member = sum(in_column_set(K, j, x) for x in support) / s
        prob *= _binomial_pmf(m, q_out + (q_in - q_out) * member)[ones[:, j]]
    return float(prob @ tv_distance(np.broadcast_to(p, raw.shape), T, est))


def _binomial_pmf(m: int, prob: float) -> np.ndarray:
    """P(Binomial(m, prob) = c) for c = 0 .. m, from math.comb."""
    return np.array([math.comb(m, c) * prob**c * (1 - prob) ** (m - c) for c in range(m + 1)])


def _count_pmfs(m: int, drop: float, noise: float) -> np.ndarray:
    """Row c is the pmf over 0 .. m of a symbol's count among m users of whom c hold it.

    The count is c - Binomial(c, drop) + Binomial(m - c, noise), the two
    binomials independent.
    """
    return np.array([np.convolve(_binomial_pmf(c, drop)[::-1], _binomial_pmf(m - c, noise)) for c in range(m + 1)])


def _histograms(m: int, k: int, support: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Every histogram over k symbols of m users who each hold a uniform symbol of support, (H, k), and its probability, (H,)."""
    hists = [h for h in product(range(m + 1), repeat=len(support)) if sum(h) == m]
    full = np.zeros((len(hists), k), dtype=np.int64)
    full[:, support] = hists
    probs = [math.factorial(m) / math.prod(map(math.factorial, h)) / len(support) ** m for h in hists]
    return full, np.array(probs)


def _split_half_mean_tv(scheme: str, k: int, support: tuple, n: int, param: float) -> float:
    """The exact mean TV error of a rappor or comm_hash cell at the uniform target on support.

    The channel pair is drop = noise = the flip probability at epsilon for
    rappor, and drop = 0, noise = 2^-effective_ell for comm_hash. The first
    n // 2 users' histogram is listed; given it, every joint count vector M
    over all k symbols is listed, symbol x's count following _count_pmfs
    independently, and its candidate support T taken with top_s_indices, so
    P(T) sums P(M) over the M that pick T. Given T, the other n - n // 2
    users' histogram is listed and read on T, and every count vector N on T
    is listed the same way, decoded by split_half_decode and scored by
    tv_distance.
    """
    s = len(support)
    if scheme == "rappor":
        drop = noise = flip_probability(param)
    else:
        drop, noise = 0.0, 1 / 2 ** effective_ell(param, s)
    m1, m2 = n // 2, n - n // 2
    first, second = _count_pmfs(m1, drop, noise), _count_pmfs(m2, drop, noise)
    c1, prob_c1 = _histograms(m1, k, support)
    c2, prob_c2 = _histograms(m2, k, support)
    M = np.array(list(product(range(m1 + 1), repeat=k)))  # (outcomes, k)
    Ts, which = np.unique(top_s_indices(M, min(2 * s, k)), axis=0, return_inverse=True)
    prob_T = np.bincount(which.ravel(), prob_c1 @ first[c1[:, None], M].prod(axis=2), len(Ts))
    N = np.array(list(product(range(m2 + 1), repeat=Ts.shape[1])))  # (outcomes, t)
    est = split_half_decode(N, m2, drop, noise)[1]
    p = np.zeros((len(N), k))
    p[:, support] = 1 / s
    total = 0.0
    for T, prob in zip(Ts, prob_T):
        prob_N = prob_c2 @ second[c2[:, T][:, None], N].prod(axis=2)
        total += prob * float(prob_N @ tv_distance(p, np.broadcast_to(T, N.shape), est))
    return total


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


def mix64_array(z) -> np.ndarray:
    """core.mix64 of each entry of a uint64 array (or int sequence), as a new uint64 array.

    The per-user hash is evaluated for users x symbols at once, so it needs
    the mix over arrays. The arithmetic wraps mod 2^64 as mix64's masks do.
    It is done on arrays only: NumPy 2 warns when a scalar uint64 product
    overflows. The Python int operands take the array's dtype (NumPy 2
    promotion).
    """
    z = np.array(z, dtype=np.uint64)
    z ^= z >> 30
    z *= _MIX_M1
    z ^= z >> 27
    z *= _MIX_M2
    z ^= z >> 31
    return z


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


# -------------------------------------------------------------- packing family


@dataclass(frozen=True)
class PackingIndex:
    """A binary vector of length k with exactly s ones, as a support tuple."""

    k: int
    support: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.support)) != len(self.support):
            raise ValueError("support indices must be distinct")
        if any(not 0 <= i < self.k for i in self.support):
            raise ValueError("support index out of range")
        object.__setattr__(self, "support", tuple(sorted(self.support)))

    @property
    def s(self) -> int:
        return len(self.support)


def ldp_holds(W: np.ndarray, epsilon: float) -> bool:
    """verify_ldp column by column: each column's largest entry at most e^epsilon times its smallest.

    An all-zero column constrains nothing, a column mixing zero and positive
    entries fails, the comparison carries 1e-9 relative slack, and an
    e^epsilon that overflows sets no limit. W is a float64 channel matrix
    and epsilon is not NaN.
    """
    try:
        limit = math.exp(epsilon)
    except OverflowError:
        limit = math.inf
    for y in range(W.shape[1]):
        top, bottom = float(W[:, y].max()), float(W[:, y].min())
        if top == 0.0:
            continue
        if bottom == 0.0 or top > limit * bottom * (1 + 1e-9):
            return False
    return True


def chi_square(p, q) -> float:
    """Chi-squared divergence sum((p-q)^2 / q) over the support of q.

    Requires q(x) > 0 wherever p(x) > 0; a violation is reported with the
    first offending index.
    """
    pv, qv = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if pv.shape != qv.shape:
        raise ValueError(f"length mismatch: {pv.shape} vs {qv.shape}")
    bad = (qv == 0) & (pv > 0)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ValueError(f"chi_square undefined: q is zero but p is positive at index {idx}")
    mask = qv > 0
    diff = pv[mask] - qv[mask]
    return float(np.sum(diff * diff / qv[mask]))


def make_packing_dist(z: PackingIndex, alpha: float) -> np.ndarray:
    """The hard distribution indexed by z, over [k] plus a heavy symbol.

    The output lives on k+1 symbols with index 0 the heavy one:
    p(0) = 1 - 8*alpha and p(x) = 8*alpha*z_x/s for x in 1..k.
    """
    if not 0 < 8 * alpha < 1:
        raise ValueError("require 0 < 8*alpha < 1")
    probs = np.zeros(z.k + 1)
    probs[0] = 1 - 8 * alpha
    probs[1 + np.asarray(z.support, dtype=np.int64)] = 8 * alpha / z.s
    return probs


def packing_reference_dist(k: int, alpha: float) -> np.ndarray:
    """The average of make_packing_dist over all indices: 8*alpha/k on [k]."""
    if not 0 < 8 * alpha < 1:
        raise ValueError("require 0 < 8*alpha < 1")
    probs = np.full(k + 1, 8 * alpha / k)
    probs[0] = 1 - 8 * alpha
    return probs


def enumerate_packing_indices(k: int, s: int) -> Iterator[PackingIndex]:
    """All C(k,s) packing indices, in lexicographic support order."""
    for support in combinations(range(k), s):
        yield PackingIndex(k, support)


def induced_output_dist(W, p) -> np.ndarray:
    """Push p through a row-stochastic channel: q(y) = sum_x W(y|x) p(x).

    ``W`` is a 2-d array with one row per input symbol. Raises ValueError
    unless q is a distribution (see check_probs).
    """
    mat = np.asarray(W, dtype=np.float64)
    pv = np.asarray(p, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != pv.size:
        raise ValueError(f"channel has {mat.shape} rows for {pv.size} input symbols")
    q = pv @ mat
    check_probs(q)
    return q
