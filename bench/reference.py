"""An exact-law reference for the program's per-cell TV errors, in NumPy only.

Each scheme's estimate is a function of a sufficient statistic whose law is
known in closed form. The reference draws that statistic directly, decodes
and projects it with code written here, and reports the mean and spread of
the TV error over many trials. It imports nothing from the package and uses
its own seeds, so agreement with the program is evidence that the program
draws from the same law.

* Hadamard response: with users assigned round-robin to K groups, group j
  holds n_j users and ``ones_j ~ Binomial(n_j, t_j)``, where
  ``t_j = q_out + (q_in - q_out) * P(X in B_j)`` and ``P(X in B_j)`` is
  ``(1 + (H p)_j) / 2`` for the Sylvester matrix H.
* RAPPOR: per half, ``c ~ Multinomial(m, p)`` and each column sum is
  ``Binomial(c_x, 1 - q) + Binomial(m - c_x, q)``.
* comm_hash (ideal hash): per half, ``c ~ Multinomial(m, p)`` and each
  consistency count is ``c_x + Binomial(m - c_x, 2^-ell_eff)``.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

# Reference trials per cell, drawn in batches to bound memory.
REFERENCE_TRIALS = 100
_BATCH = 50

# A cell passes when the program's mean TV lies within this many standard
# errors of the reference mean. The per-trial spread is the reference's.
Z_LIMIT = 5.0


def sylvester_transform(v: np.ndarray) -> np.ndarray:
    """Multiply each row of v (length K = 2^L) by the Sylvester matrix H_K.

    H_K is the L-fold Kronecker power of [[1, 1], [1, -1]], so viewing the
    index as L bits and applying the 2x2 kernel along each bit axis gives
    the product, with H_K[x, y] = (-1)^popcount(x & y).
    """
    v = np.asarray(v, dtype=np.float64)
    K = v.shape[-1]
    L = K.bit_length() - 1
    if 1 << L != K:
        raise ValueError(f"length {K} is not a power of two")
    lead = v.shape[:-1]
    x = v.reshape(lead + (2,) * L)
    for axis in range(len(lead), len(lead) + L):
        a = x[(slice(None),) * axis + (0,)]
        b = x[(slice(None),) * axis + (1,)]
        x = np.stack((a + b, a - b), axis=axis)
    return x.reshape(lead + (K,))


def project_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of V onto the probability simplex."""
    R, d = V.shape
    U = -np.sort(-V, axis=1)
    excess = np.cumsum(U, axis=1) - 1.0
    feasible = U - excess / np.arange(1, d + 1) > 0
    rho = d - 1 - np.argmax(feasible[:, ::-1], axis=1)  # last feasible index
    theta = excess[np.arange(R), rho] / (rho + 1)
    return np.maximum(V - theta[:, None], 0.0)


def top_indices(V: np.ndarray, size: int) -> np.ndarray:
    """Per row, the indices of the ``size`` largest entries (ties: smaller index)."""
    return np.argsort(-V, axis=1, kind="stable")[:, :size]


def project_on_support(V: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Zero outside T; the simplex projection of V restricted to T inside it."""
    rows = np.arange(V.shape[0])[:, None]
    out = np.zeros_like(V)
    out[rows, T] = project_rows(V[rows, T])
    return out


def _targets(rng: np.random.Generator, R: int, k: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """R uniform s-sparse targets: (supports of shape (R, s), probs (R, k))."""
    support = np.argsort(rng.random((R, k)), axis=1)[:, :s]
    P = np.zeros((R, k))
    P[np.arange(R)[:, None], support] = 1.0 / s
    return support, P


def _histograms(rng, support: np.ndarray, k: int, m: int) -> np.ndarray:
    """Symbol counts of m users drawn from each row's uniform target."""
    R, s = support.shape
    c = np.zeros((R, k), dtype=np.int64)
    c[np.arange(R)[:, None], support] = rng.multinomial(m, np.full(s, 1.0 / s), size=R)
    return c


def _tv(est: np.ndarray, P: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(est - P).sum(axis=1)


def hr_errors(rng, R: int, k: int, s: int, n: int, epsilon: float) -> dict[str, np.ndarray]:
    """TV errors of both projection modes, decoded from the same statistics."""
    K = 1 << k.bit_length()  # smallest power of two >= k + 1
    e = math.exp(epsilon)
    q_in, q_out = e / (e + 1), 1 / (e + 1)
    support, P = _targets(rng, R, k, s)
    P_K = np.zeros((R, K))
    P_K[:, :k] = P
    t = q_out + (q_in - q_out) * 0.5 * (1 + sylvester_transform(P_K))
    group_sizes = n // K + (np.arange(K) < n % K)
    fractions = rng.binomial(group_sizes, t) / group_sizes
    raw = (e + 1) / (K * (e - 1)) * sylvester_transform(2 * fractions - 1)[:, :k]
    return {
        "hr_dense": _tv(project_rows(raw), P),
        "hr_sparse": _tv(project_on_support(raw, top_indices(raw, s)), P),
    }


def rappor_errors(rng, R: int, k: int, s: int, n: int, epsilon: float) -> dict[str, np.ndarray]:
    q = 1 / (math.exp(epsilon / 2) + 1)
    m1, m2 = n // 2, n - n // 2
    support, P = _targets(rng, R, k, s)
    sums = []
    for m in (m1, m2):
        c = _histograms(rng, support, k, m)
        sums.append(rng.binomial(c, 1 - q) + rng.binomial(m - c, q))
    M, N = sums
    raw = (N / m2 - q) / (1 - 2 * q)
    return {"rappor": _tv(project_on_support(raw, top_indices(M, 2 * s)), P)}


def comm_errors(rng, R: int, k: int, s: int, n: int, ell_eff: int) -> dict[str, np.ndarray]:
    buckets = 2**ell_eff
    m1, m2 = n // 2, n - n // 2
    support, P = _targets(rng, R, k, s)
    counts = []
    for m in (m1, m2):
        c = _histograms(rng, support, k, m)
        counts.append(c + rng.binomial(m - c, 1.0 / buckets))
    M, N = counts
    raw = (buckets * N / m2 - 1) / (buckets - 1)
    return {"comm_hash": _tv(project_on_support(raw, top_indices(M, min(2 * s, k))), P)}


_LAWS = {"hr": hr_errors, "rappor": rappor_errors, "comm_hash": comm_errors}


def law_key(scheme: str, k: int, s: int, n: int, param: str) -> tuple:
    """What fixes the law of a cell's statistics; cells with one key share draws.

    Both HR modes decode the same statistics. comm_hash hashes into
    min(ell, ceil(log2 s) + 1) bits, so larger ell values describe the same
    protocol.
    """
    if scheme in ("hr_dense", "hr_sparse"):
        return ("hr", k, s, n, float(param))
    if scheme == "rappor":
        return ("rappor", k, s, n, float(param))
    if scheme == "comm_hash":
        return ("comm_hash", k, s, n, min(int(param), math.ceil(math.log2(s)) + 1))
    raise ValueError(f"no reference for scheme {scheme!r}")


def law_errors(key: tuple, seed: int, trials: int = REFERENCE_TRIALS) -> dict[str, np.ndarray]:
    """TV errors of ``trials`` reference trials for one law, by scheme name.

    The generator is seeded from (seed, key) alone, so a cell's reference
    does not depend on which other cells the workload holds.
    """
    family, *args = key
    rng = np.random.default_rng([seed & (2**64 - 1), zlib.crc32(repr(key).encode())])
    batches = []
    for lo in range(0, trials, _BATCH):
        batches.append(_LAWS[family](rng, min(_BATCH, trials - lo), *args))
    return {name: np.concatenate([b[name] for b in batches]) for name in batches[0]}


def compare_cell(program_tv: list[float], reference_tv: np.ndarray) -> tuple[bool, float]:
    """(passes, z): the program's mean against the reference's, in standard errors."""
    sd = float(np.std(reference_tv, ddof=1))
    se = sd * math.sqrt(1 / len(program_tv) + 1 / reference_tv.size)
    diff = float(np.mean(program_tv) - np.mean(reference_tv))
    z = diff / se if se > 0 else (0.0 if diff == 0 else math.inf)
    return abs(z) <= Z_LIMIT, z
