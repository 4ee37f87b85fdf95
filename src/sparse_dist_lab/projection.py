"""Euclidean projection onto the probability simplex and its s-sparse subset.

Decoders produce signed intermediate estimates; these projections turn them
into valid distributions. The plain simplex projection is the usual
sort-and-threshold method (find the largest j for which shifting the top-j
entries to sum to 1 keeps them positive). The sparse variant restricts to the
s largest entries first and projects the restriction, which is the standard
greedy selection for this constraint set.

Tie-breaking on equal values prefers the smaller index, so outputs are fully
deterministic - seeded experiment replays depend on this.
"""

from __future__ import annotations

import numpy as np

from .core import Distribution


def simplex_threshold(v: np.ndarray) -> float:
    """The shift tau such that sum(max(v - tau, 0)) = 1."""
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    feasible = u - (cumsum - 1) / j > 0
    rho = int(np.nonzero(feasible)[0][-1])  # largest feasible j (0-based)
    return float((cumsum[rho] - 1) / (rho + 1))


def project_simplex_vec(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex, as an array."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("input must be a nonempty vector")
    if not np.isfinite(v).all():
        raise ValueError("input must be finite")
    out = np.maximum(v - simplex_threshold(v), 0.0)
    # kill the float dust so the result is a valid distribution bit-for-bit
    out /= out.sum()
    return out


def project_simplex(v: np.ndarray) -> Distribution:
    """Euclidean projection of v onto the probability simplex."""
    return Distribution(project_simplex_vec(v))


def top_s_indices(v: np.ndarray, s: int) -> np.ndarray:
    """Indices of the s largest entries of v, ties broken by smaller index.

    Returned in increasing index order.
    """
    v = np.asarray(v)
    if not 1 <= s <= v.size:
        raise ValueError(f"require 1 <= s <= {v.size}, got s={s}")
    # the s-th largest value is the cut: keep everything above it, then the
    # entries equal to it in index order until s are taken
    cut = np.partition(v, v.size - s)[v.size - s]
    above = np.flatnonzero(v > cut)
    ties = np.flatnonzero(v == cut)[: s - above.size]
    return np.sort(np.concatenate((above, ties)))


def project_sparse_simplex_vec(v: np.ndarray, s: int) -> np.ndarray:
    """Projection onto the s-sparse simplex, as an array."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("input must be a nonempty vector")
    if not np.isfinite(v).all():
        raise ValueError("input must be finite")
    if not 1 <= s <= v.size:
        raise ValueError(f"require 1 <= s <= {v.size}, got s={s}")
    if s == v.size:
        return project_simplex_vec(v)
    keep = top_s_indices(v, s)
    out = np.zeros_like(v)
    out[keep] = project_simplex_vec(v[keep])
    return out


def project_sparse_simplex(v: np.ndarray, s: int) -> Distribution:
    """Euclidean projection of v onto distributions with at most s atoms.

    Selects the s largest entries of v (by value, smaller index on ties),
    projects the restricted vector onto the s-simplex, and zeros the rest.
    """
    return Distribution(project_sparse_simplex_vec(v, s))
