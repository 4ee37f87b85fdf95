"""Distributions, divergences, sampling, and deterministic randomness plumbing.

Everything downstream (the privatization schemes, the lower-bound machinery,
the experiment harness) builds on the primitives here: the check that an
array, or each row of a (B, k) stack, is a probability vector, the
total-variation distance of plain float arrays, the s-sparse uniform targets
used in experiments, and the keyed random streams that make every run
replayable regardless of worker count.

A stream is named by a 64-bit int key and draws what
Generator(Philox(key=key)) draws. Keys come from a master seed and a
stream id (derive_key; child_keys for arrays of keys), so a child's key is
derive_key(parent_key, child_id), and keyed_generator(key) draws a key's
stream through one re-keyed generator per thread.

Conventions
-----------
* Symbols are 0-indexed: a distribution over [k] lives on indices 0..k-1.
* The lower-bound construction works over [k] with one extra heavy symbol;
  that domain is realized as indices 0..k where index 0 is the heavy symbol.
* All logarithms in bound formulas throughout the package are natural logs.
"""

from __future__ import annotations

import math
import operator
import threading

import numpy as np

SUM_TOL = 1e-9  # absolute tolerance on sum(probs) == 1

# 64-bit mixing constants (the SplitMix64 finalizer's two multipliers, and
# the golden-ratio increment that spreads successive stream ids apart).
MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB


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


def mix64_array(z) -> np.ndarray:
    """mix64 of each entry of a uint64 array (or int sequence), as a new uint64 array.

    The arithmetic wraps mod 2^64 as mix64's masks do. It is done on arrays
    only: NumPy 2 warns when a scalar uint64 product overflows. The Python
    int operands take the array's dtype (NumPy 2 promotion).
    """
    z = np.array(z, dtype=np.uint64)
    z ^= z >> 30
    z *= _MIX_M1
    z ^= z >> 27
    z *= _MIX_M2
    z ^= z >> 31
    return z


def derive_key(master_seed: int, stream_id: int) -> int:
    """The 64-bit key of stream stream_id under master_seed (or under a parent stream's key).

    Injective in practice: distinct stream ids give keys whose streams are
    independent for all practical purposes, and children of children never
    collide with their parent's siblings, as the mix applies at every level.
    """
    return mix64(mix64(master_seed) ^ ((stream_id + 1) * GOLDEN64 & MASK64))


def check_master_seed(master_seed: int) -> None:
    """Raise ValueError naming master_seed unless it lies in [0, 2^64).

    mix64 reads a seed mod 2^64, so a seed outside that range would name
    the same streams as one inside it.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed={master_seed} is outside [0, 2^64)")


def child_keys(keys, stream_id) -> np.ndarray:
    """derive_key(key, stream_id) for each of keys, as a uint64 array.

    keys is a uint64 array, an int sequence or one Python int (mixed by the
    scalar mix64). stream_id is a nonnegative int, or an array of them
    broadcast against keys: child_keys(keys[:, None], range(4)) holds row by
    row the keys of each key's children 0 to 3, for the price of one call.
    """
    steps = (np.array(stream_id, dtype=np.uint64, ndmin=1) + 1) * GOLDEN64
    mixed = mix64(keys) if isinstance(keys, int) else mix64_array(keys)
    return mix64_array(mixed ^ steps)


_thread = threading.local()


def keyed_generator(key: int) -> np.random.Generator:
    """This thread's generator, re-keyed to draw the stream of key.

    The re-key sets the Philox counter to 0 and its key to [key, 0], and
    empties its buffer and its spare 32-bit word, so the draws match
    Generator(Philox(key=key)) bit for bit. Each thread builds one
    generator, on its first call (numpy.random is not imported before), and
    every call re-keys it: the generator is borrowed until the next call on
    this thread, and is not for another thread. Raises ValueError naming key
    unless it is an integer (a Python int or a NumPy integer) in [0, 2^64).
    """
    try:
        word = operator.index(key)
    except TypeError:
        word = -1  # not an integer: rejected below
    if not 0 <= word <= MASK64:
        raise ValueError(f"a stream key must be an integer in [0, 2^64), got {key!r}")
    try:
        gen, bit_generator, state = _thread.keyed
    except AttributeError:
        bit_generator = np.random.Philox(key=0)
        gen = np.random.Generator(bit_generator)
        # Python ints, not arrays: the state setter reads them fastest
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        _thread.keyed = gen, bit_generator, state
    state["state"]["key"][0] = word
    bit_generator.state = state
    return gen


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


def check_probs(p: np.ndarray) -> None:
    """Raise ValueError unless p, or each row of a (B, k) stack, is a distribution.

    Entries must be finite and in [0, 1], and each row must sum to 1 within
    ``SUM_TOL``.
    """
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if p.min() < -SUM_TOL or p.max() > 1 + SUM_TOL:
        raise ValueError("probabilities must lie in [0, 1]")
    totals = p.sum(axis=-1, keepdims=True)
    off = np.abs(totals - 1.0) > SUM_TOL
    if off.any():
        raise ValueError(f"probabilities sum to {float(totals[off][0])!r}, not 1")


def tv_distance(p, q):
    """Total variation distance, half the l1 distance between the vectors.

    Raises on length mismatch. Always in [0, 1]. For two (B, k) stacks,
    returns the B row-wise distances as an array.
    """
    pv, qv = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if pv.shape != qv.shape:
        raise ValueError(f"length mismatch: {pv.shape} vs {qv.shape}")
    tv = 0.5 * np.abs(pv - qv).sum(axis=-1)
    return float(tv) if tv.ndim == 0 else tv


def uniform_sparse_stack(k: int, s: int, keys) -> np.ndarray:
    """Row i is uniform over a size-s subset of [k], chosen uniformly by the stream of keys[i]; shape (B, k).

    keys holds one 64-bit stream key per row, as a uint64 array or any int
    sequence.
    """
    if not 1 <= s <= k:
        raise ValueError("require 1 <= s <= k")
    probs = np.zeros((len(keys), k))
    for row, key in zip(probs, keys):
        row[keyed_generator(key).choice(k, size=s, replace=False)] = 1.0 / s
    return probs
