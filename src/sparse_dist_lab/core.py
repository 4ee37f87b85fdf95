"""Distributions, divergences, sampling, and deterministic randomness plumbing.

Everything downstream (the privatization schemes, the lower-bound machinery,
the experiment harness) builds on the primitives here: the check that an
array, or each row of a (B, k) stack, is a probability vector, the
total-variation distance from a target to an estimate held on its support,
the s-sparse uniform targets used in experiments, and the keyed random
streams that make every run replayable regardless of worker count.

A stream is named by a 64-bit int key and draws what
Generator(Philox(key=key)) draws. Keys come from a master seed and a
stream id (derive_key; derive_keys for several ids of one parent), so a
child's key is derive_key(parent_key, child_id), and keyed_generator(key)
draws a key's stream through one re-keyed generator per thread. Keys are
Python ints, and a stack of keys is a sequence of them.

Conventions
-----------
* Symbols are 0-indexed: a distribution over [k] lives on indices 0..k-1.
* The lower-bound construction works over [k] with one extra heavy symbol;
  that domain is realized as indices 0..k where index 0 is the heavy symbol.
* All logarithms in bound formulas throughout the package are natural logs.
"""

from __future__ import annotations

import math
import numbers
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
    """SplitMix64 finalizer: a fixed 64-bit avalanche permutation, as a Python int.

    Bit-exact and platform independent; this single function underlies all
    seed derivation in the package, so two runs (or two implementations)
    agree on every derived stream. z is any integer, a Python int or a
    NumPy integer, read mod 2^64.
    """
    z = operator.index(z) & MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & MASK64
    return z ^ (z >> 31)


def derive_key(master_seed: int, stream_id: int) -> int:
    """The 64-bit key of stream stream_id under master_seed (or under a parent stream's key).

    Injective in practice: distinct stream ids give keys whose streams are
    independent for all practical purposes, and children of children never
    collide with their parent's siblings, as the mix applies at every level.
    stream_id, like master_seed, may be a Python int or a NumPy integer.
    """
    return mix64(mix64(master_seed) ^ ((operator.index(stream_id) + 1) * GOLDEN64 & MASK64))


def derive_keys(key: int, stream_ids) -> list[int]:
    """[derive_key(key, i) for i in stream_ids], mixing key once."""
    mixed = mix64(key)
    return [mix64(mixed ^ ((operator.index(i) + 1) * GOLDEN64 & MASK64)) for i in stream_ids]


def check_master_seed(master_seed: int) -> None:
    """Raise ValueError naming master_seed unless it lies in [0, 2^64).

    mix64 reads a seed mod 2^64, so a seed outside that range would name
    the same streams as one inside it.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed={master_seed} is outside [0, 2^64)")


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


def _exp_text(divisor: int) -> str:
    """The exponential e^(epsilon/divisor) as the epsilon messages write it: e^epsilon at a divisor of 1."""
    return "e^epsilon" if divisor == 1 else f"e^(epsilon/{divisor})"


def exp_epsilon(epsilon: float, divisor: int = 1) -> float:
    """e^(epsilon / divisor) for a privacy budget epsilon.

    Raises ValueError naming epsilon unless epsilon is a real number
    (check_number: not None, not a bool), positive, and its exponential is
    a finite float (e^x overflows past x ~ 709.78), so a too-large budget
    fails with a message instead of an OverflowError or NaN probabilities.
    """
    check_number("epsilon", epsilon, integral=False)
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    try:
        e = math.exp(epsilon / divisor)
    except OverflowError:
        e = math.inf
    if e == math.inf:
        raise ValueError(f"epsilon={epsilon!r} is too large: {_exp_text(divisor)} overflows a float")
    return e


def invertible_exp_epsilon(epsilon: float, divisor: int = 1) -> float:
    """exp_epsilon(epsilon, divisor) for a map that divides by e^(epsilon/divisor) - 1.

    Also raises ValueError naming epsilon when that exponential rounds to 1
    (epsilon/divisor below about 1e-16), where the divisor of the map is 0.
    """
    e = exp_epsilon(epsilon, divisor)
    if e == 1.0:
        raise ValueError(f"epsilon={epsilon!r} is too small: {_exp_text(divisor)} rounds to 1")
    return e


def check_number(name: str, value, integral: bool = True) -> None:
    """Raise ValueError naming the parameter unless value is an integer (or, if not integral, a real number).

    A bool is neither, and a float is no integer; NumPy integers and floats pass.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a real number'}, not {value!r}")


def check_sparsity(k: int, s: int) -> None:
    """Raise ValueError naming s and k unless both are integers and 1 <= s <= k: the one home of the sparsity rule.

    An s-sparse target over [k] needs that, so no k below 1 passes. A float
    or bool s or k is refused by check_number, s first, as `s must be an
    integer, not 2.5` or `k must be an integer, not 2.5`.
    """
    check_number("s", s)
    check_number("k", k)
    if not 1 <= s <= k:
        raise ValueError(f"require 1 <= s <= k (got s={s}, k={k})")


def check_ell(ell: int) -> None:
    """Raise ValueError naming ell unless it is an integer >= 1: the one home of the rule on bits per user.

    A float, bool or None ell is refused by check_number, as `ell must be an integer, not 2.5`.
    """
    check_number("ell", ell)
    if not ell >= 1:
        raise ValueError(f"ell must be >= 1, got {ell!r}")


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


def tv_distance(p, T, values):
    """Total variation distance between p and the estimate that holds values on T and 0 off T.

    T holds distinct indices into p's last axis; a dense q is
    T = arange(k), values = q, and the sum is that of 0.5 * |p - q| bit for
    bit. For a (B, k) stack p, T and values are (B, t) and the B row-wise
    distances come back as an array. Raises ValueError unless T and values
    share a shape whose leading axes are p's.
    """
    diff = np.array(p, dtype=np.float64)
    T, values = np.asarray(T), np.asarray(values, dtype=np.float64)
    if T.shape != values.shape or T.shape[:-1] != diff.shape[:-1]:
        raise ValueError(f"shape mismatch: p {diff.shape}, T {T.shape}, values {values.shape}")
    np.put_along_axis(diff, T, np.take_along_axis(diff, T, axis=-1) - values, axis=-1)
    tv = 0.5 * np.abs(diff).sum(axis=-1)
    return float(tv) if tv.ndim == 0 else tv


def uniform_sparse_stack(k: int, s: int, keys) -> np.ndarray:
    """Row i is uniform over a size-s subset of [k], chosen uniformly by the stream of keys[i]; shape (B, k).

    keys is a sequence of integer keys in [0, 2^64), one per row. Raises
    ValueError unless 1 <= s <= k (check_sparsity).
    """
    check_sparsity(k, s)
    probs = np.zeros((len(keys), k))
    for row, key in zip(probs, keys):
        row[keyed_generator(key).choice(k, size=s, replace=False)] = 1.0 / s
    return probs
