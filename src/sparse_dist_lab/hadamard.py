"""Hadamard column membership and the fast Walsh-Hadamard transform.

The Hadamard response protocol never materializes the K x K matrix: its
channel needs column memberships (a popcount parity) and decoding needs one
matrix-vector product, done in O(K log K) by the butterfly transform below.
K can reach 8192 at full experiment scale, so both operations are kept
allocation-light.

Indexing is 0-based: row/column 0 is the all-ones row/column of the usual
recursive (Sylvester) construction, and for 0 <= x, y < K the entry is
(-1)^popcount(x AND y).
"""

from __future__ import annotations

import numpy as np

from .core import check_number


def hadamard_dim(k: int) -> int:
    """Smallest power of two K with K >= k+1 (the protocol's block size).

    Raises ValueError naming k unless it is an integer (check_number: a
    Python or NumPy integer, not a bool) and positive.
    """
    check_number("k", k)
    if k < 1:
        raise ValueError("k must be positive")
    return 1 << int(k).bit_length()  # k+1 <= 2^ceil(log2(k+1)) = 2^(k.bit_length())


def _check_dim(K: int) -> None:
    if K < 1 or (K & (K - 1)) != 0:
        raise ValueError(f"K must be a power of two, got {K}")


def membership_parity(K: int, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Elementwise B_{y_i} membership of x_i (both arrays), as booleans."""
    _check_dim(K)
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    return (np.bitwise_count(np.bitwise_and(xs, ys)) & 1) == 0


def fwht(v: np.ndarray) -> np.ndarray:
    """Multiply by H_K in place-order: H_K @ v for len(v) = K, row-wise on a (B, K) stack.

    log2(K) levels of paired sums and differences, at strides 1, 2, ..., K/2
    in that order. The transform is its own inverse up to the factor K
    (H_K @ H_K = K * I), which tests exploit.

    With K = 2^m, index i is viewed as i = r*C + c in an R x C matrix
    (R = 2^floor(m/2), C = K/R). The levels of stride h < C pair columns, so they run on a
    transposed (C x R) copy, where each half of a butterfly is one contiguous
    run of h*R values rather than K/2h runs of h; the rest pair rows and run
    in the original layout. Every level adds the same pairs as the textbook
    butterfly, so each row is bit-identical to it.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ValueError(f"fwht takes a vector or a (B, K) stack, got shape {v.shape}")
    K = v.shape[-1]
    _check_dim(K)
    rows = 1 << ((K.bit_length() - 1) // 2)
    cols = K // rows
    low = _butterflies(v.reshape(-1, rows, cols).transpose(0, 2, 1).copy().reshape(-1), 1, cols, rows)
    high = _butterflies(low.reshape(-1, cols, rows).transpose(0, 2, 1).copy().reshape(-1), cols, K, 1)
    return high.reshape(v.shape)


def _butterflies(x: np.ndarray, h: int, stop: int, run: int) -> np.ndarray:
    """Apply the levels of stride h, 2h, ... below stop to the flat buffer x.

    At stride h a value's partner sits h*run places further on. Every block
    of 2*h*run values divides K, so x may hold several K-value rows back to
    back and no block spans two of them. Levels ping-pong between x and one
    spare buffer; returns the one holding the result.
    """
    y = np.empty_like(x)
    while h < stop:
        a = x.reshape(-1, 2, h * run)
        b = y.reshape(-1, 2, h * run)
        np.add(a[:, 0], a[:, 1], out=b[:, 0])
        np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
        x, y = y, x
        h *= 2
    return x


def dense_matrix(K: int) -> np.ndarray:
    """The full K x K matrix as int64, entry (x, y) = (-1)^popcount(x AND y).

    For verification and small-instance channel constructions only; protocol
    paths never call this.
    """
    _check_dim(K)
    idx = np.arange(K)
    parity = (np.bitwise_count(np.bitwise_and.outer(idx, idx)) & 1).astype(np.int64)
    return 1 - 2 * parity
