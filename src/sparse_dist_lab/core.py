"""Distributions, divergences, sampling, and deterministic randomness plumbing.

Everything downstream (the privatization schemes, the lower-bound machinery,
the experiment harness) builds on the primitives here: a validated probability
vector type, total-variation and chi-squared divergences, i.i.d. sampling,
the s-sparse uniform targets used in experiments, the packing family of hard
distributions used by the lower bounds, and counter-based random streams that
make every run replayable regardless of worker count.

Conventions
-----------
* Symbols are 0-indexed: a distribution over [k] lives on indices 0..k-1.
* The lower-bound construction works over [k] with one extra heavy symbol;
  that domain is realized as indices 0..k where index 0 is the heavy symbol.
* All logarithms in bound formulas throughout the package are natural logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

SUM_TOL = 1e-9  # absolute tolerance on sum(probs) == 1

# 64-bit mixing constants (SplitMix64 finalizer plus two independent odd
# multipliers used to decorrelate the separate inputs of keyed hashes).
MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
ALT64 = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit avalanche permutation.

    Bit-exact and platform independent; this single function underlies all
    seed derivation in the package, so two runs (or two implementations)
    agree on every derived stream.
    """
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array (wrapping arithmetic)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_M2)
    z ^= z >> np.uint64(31)
    return z


def derive_key(master_seed: int, stream_id: int) -> int:
    """Map (master_seed, stream_id) to a 64-bit key, injectively in practice."""
    return mix64(mix64(master_seed) ^ ((stream_id + 1) * GOLDEN64 & MASK64))


def fold_string(text: str) -> int:
    """Stable 64-bit FNV-1a hash of a string (unlike builtin hash())."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def exp_epsilon(epsilon: float, divisor: int = 1) -> float:
    """e^(epsilon / divisor) for a privacy budget epsilon.

    Raises ValueError naming epsilon unless epsilon is positive and the
    exponential is a finite float (e^x overflows past x ~ 709.78), so a
    too-large budget fails with a message instead of an OverflowError or NaN
    probabilities.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    try:
        e = math.exp(epsilon / divisor)
    except OverflowError:
        e = math.inf
    if e == math.inf:
        raise ValueError(f"epsilon={epsilon!r} is too large: e^(epsilon/{divisor}) overflows a float")
    return e


def invertible_exp_epsilon(epsilon: float, divisor: int = 1) -> float:
    """exp_epsilon(epsilon, divisor) for a map that divides by e^(epsilon/divisor) - 1.

    Also raises ValueError naming epsilon when that exponential rounds to 1
    (epsilon/divisor below about 1e-16), where the divisor of the map is 0.
    """
    e = exp_epsilon(epsilon, divisor)
    if e == 1.0:
        power = "epsilon" if divisor == 1 else f"(epsilon/{divisor})"
        raise ValueError(f"epsilon={epsilon!r} is too small: e^{power} rounds to 1")
    return e


class RandomStream:
    """A named, replayable source of randomness.

    Wraps a counter-based bit generator (Philox) keyed by an avalanche mix of
    ``(master_seed, stream_id)``. Identical constructor arguments yield
    identical sequences on every platform. Distinct stream_ids give streams
    that are independent for all practical purposes, so per-trial and
    per-purpose substreams can run concurrently without any ordering
    sensitivity. The generator is built on the first read of ``gen``, since
    streams that only parent children never draw.

    A stream is single-owner: share the (master_seed, stream_id) recipe, not
    the object, across threads.
    """

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed) & MASK64
        self.stream_id = int(stream_id)
        self.key = derive_key(self.master_seed, self.stream_id)

    @cached_property
    def gen(self) -> np.random.Generator:
        """The stream's generator, bit for bit ``Generator(Philox(key=self.key))``."""
        from ._philox_key import PhiloxKey

        return np.random.Generator(np.random.Philox(PhiloxKey(self.key)))

    def child(self, substream_id: int) -> "RandomStream":
        """A fresh stream deterministically derived from this one's identity.

        Children of distinct ids never overlap with each other or with the
        parent (the key chain applies the avalanche mix at every level).
        """
        return RandomStream(self.key, substream_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStream(master_seed={self.master_seed}, stream_id={self.stream_id})"


def check_probs(p: np.ndarray) -> None:
    """Raise ValueError unless p, or each row of a (B, k) stack, is a distribution.

    Entries must be finite and in [0, 1], and each row must sum to 1 within
    ``SUM_TOL``. Distribution and the harness's stacked trials share this rule.
    """
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if p.min() < -SUM_TOL or p.max() > 1 + SUM_TOL:
        raise ValueError("probabilities must lie in [0, 1]")
    totals = p.sum(axis=-1, keepdims=True)
    off = np.abs(totals - 1.0) > SUM_TOL
    if off.any():
        raise ValueError(f"probabilities sum to {float(totals[off][0])!r}, not 1")


@dataclass(frozen=True)
class Distribution:
    """A probability vector over a finite 0-indexed alphabet.

    Entries must be in [0,1] and sum to 1 within ``SUM_TOL``.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-d vector")
        check_probs(p)

    @property
    def k(self) -> int:
        return self.probs.size

    def support_size(self) -> int:
        """Number of strictly positive entries."""
        return int(np.count_nonzero(self.probs > 0))

    def __len__(self) -> int:
        return self.probs.size


def as_probs(p) -> np.ndarray:
    """Accept a Distribution or a bare array-like; return the float vector."""
    if isinstance(p, Distribution):
        return p.probs
    return np.asarray(p, dtype=np.float64)


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

    def as_vector(self) -> np.ndarray:
        z = np.zeros(self.k, dtype=np.int8)
        z[list(self.support)] = 1
        return z


def tv_distance(p, q):
    """Total variation distance, half the l1 distance between the vectors.

    Raises on length mismatch. Always in [0, 1]. For two (B, k) stacks,
    returns the B row-wise distances as an array.
    """
    pv, qv = as_probs(p), as_probs(q)
    if pv.shape != qv.shape:
        raise ValueError(f"length mismatch: {pv.shape} vs {qv.shape}")
    tv = 0.5 * np.abs(pv - qv).sum(axis=-1)
    return float(tv) if tv.ndim == 0 else tv


def chi_square(p, q) -> float:
    """Chi-squared divergence sum((p-q)^2 / q) over the support of q.

    Requires q(x) > 0 wherever p(x) > 0; a violation is reported with the
    first offending index.
    """
    pv, qv = as_probs(p), as_probs(q)
    if pv.shape != qv.shape:
        raise ValueError(f"length mismatch: {pv.shape} vs {qv.shape}")
    bad = (qv == 0) & (pv > 0)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ValueError(f"chi_square undefined: q is zero but p is positive at index {idx}")
    mask = qv > 0
    diff = pv[mask] - qv[mask]
    return float(np.sum(diff * diff / qv[mask]))


def sample_iid(p, n: int, stream: RandomStream) -> np.ndarray:
    """Draw n i.i.d. symbols from p; deterministic given the stream.

    Returns an int64 array of symbols in [0, k). Sampling is by inverse-CDF
    lookup, which vectorizes well for large n.
    """
    pv = as_probs(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    cdf = np.cumsum(pv)
    cdf[-1] = 1.0  # guard against float round-off at the top end
    u = stream.gen.random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def make_uniform_sparse(k: int, s: int, stream: RandomStream) -> Distribution:
    """Uniform distribution over a uniformly chosen size-s subset of [k]."""
    return Distribution(uniform_sparse_stack(k, s, [stream])[0])


def uniform_sparse_stack(k: int, s: int, streams: list[RandomStream]) -> np.ndarray:
    """Row i is the make_uniform_sparse target drawn from streams[i]; shape (B, k)."""
    if not 1 <= s <= k:
        raise ValueError("require 1 <= s <= k")
    probs = np.zeros((len(streams), k))
    for row, stream in zip(probs, streams):
        row[stream.gen.choice(k, size=s, replace=False)] = 1.0 / s
    return probs


def make_packing_dist(z: PackingIndex, alpha: float) -> Distribution:
    """The hard distribution indexed by z, over [k] plus a heavy symbol.

    The output lives on k+1 symbols with index 0 the heavy one:
    p(0) = 1 - 8*alpha and p(x) = 8*alpha*z_x/s for x in 1..k.
    """
    if not 0 < 8 * alpha < 1:
        raise ValueError("require 0 < 8*alpha < 1")
    probs = np.zeros(z.k + 1)
    probs[0] = 1 - 8 * alpha
    probs[1 + np.asarray(z.support, dtype=np.int64)] = 8 * alpha / z.s
    return Distribution(probs)


def packing_reference_dist(k: int, alpha: float) -> Distribution:
    """The average of make_packing_dist over all indices: 8*alpha/k on [k]."""
    if not 0 < 8 * alpha < 1:
        raise ValueError("require 0 < 8*alpha < 1")
    probs = np.full(k + 1, 8 * alpha / k)
    probs[0] = 1 - 8 * alpha
    return Distribution(probs)


def enumerate_packing_indices(k: int, s: int) -> Iterator[PackingIndex]:
    """All C(k,s) packing indices, in lexicographic support order."""
    from itertools import combinations

    for support in combinations(range(k), s):
        yield PackingIndex(k, support)


def induced_output_dist(W, p) -> Distribution:
    """Push p through a row-stochastic channel: q(y) = sum_x W(y|x) p(x).

    ``W`` may be a Channel object (anything with a ``matrix`` attribute) or a
    bare 2-d array with one row per input symbol.
    """
    mat = np.asarray(getattr(W, "matrix", W), dtype=np.float64)
    pv = as_probs(p)
    if mat.ndim != 2 or mat.shape[0] != pv.size:
        raise ValueError(f"channel has {mat.shape} rows for {pv.size} input symbols")
    return Distribution(pv @ mat)
