"""The Hadamard block size and the fast Walsh-Hadamard transform.

The Hadamard response protocol never materializes the K x K matrix: both its
noiseless group fractions and its decoder are one matrix-vector product,
done in O(K log K) by one constant-geometry butterfly recursion. K can reach
8192 at full experiment scale, so the transform is kept allocation-light:
it holds two copies of its input. The dense matrix and the per-pair column
membership parity are test oracles (tests/oracles.py).

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


def fwht(v: np.ndarray) -> np.ndarray:
    """Multiply by H_K in place-order: H_K @ v for len(v) = K, row-wise on a (B, K) stack.

    The transform is its own inverse up to the factor K (H_K @ H_K = K * I),
    which tests exploit.

    Constant geometry: each of the log2(K) rounds writes the sums of the
    adjacent pairs (x[2j], x[2j+1]) to the first half and their differences
    to the second, ping-ponging between two buffers. Round r adds exactly the
    pairs that the textbook butterfly adds at stride 2^r, in the same order,
    so each row is bit-identical to it; every round reads and writes the
    same strides, and the input is copied once and never written.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ValueError(f"fwht takes a vector or a (B, K) stack, got shape {v.shape}")
    K = v.shape[-1]
    _check_dim(K)
    x = v.reshape(-1, K).copy()
    y = np.empty_like(x)
    for _ in range(K.bit_length() - 1):
        np.add(x[:, 0::2], x[:, 1::2], out=y[:, : K // 2])
        np.subtract(x[:, 0::2], x[:, 1::2], out=y[:, K // 2 :])
        x, y = y, x
    return x.reshape(v.shape)
