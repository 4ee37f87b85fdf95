"""Euclidean projections onto the simplex and its s-sparse subset."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_dist_lab.core import child_keys, derive_key, keyed_generator
from sparse_dist_lab.projection import (
    project_on_support,
    project_simplex_vec,
    split_half_counts,
    split_half_estimate,
    top_s_indices,
)


def project_sparse(v, s):
    """Projection of a vector, or each row of a stack, onto the s-sparse simplex."""
    rows = np.atleast_2d(v)
    return project_on_support(rows, top_s_indices(rows, s)).reshape(np.shape(v))


def test_simplex_member_is_fixed():
    v = np.array([0.2, 0.5, 0.3])
    assert np.allclose(project_simplex_vec(v), v, atol=1e-15)


def test_simplex_hand_case_vs_grid_search():
    v = np.array([1.5, 0.5])
    out = project_simplex_vec(v)
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)
    # brute-force minimization over Delta_2 at 1e-4 resolution
    ts = np.linspace(0.0, 1.0, 10001)
    cand = np.stack([ts, 1 - ts], axis=1)
    best = cand[np.argmin(((cand - v) ** 2).sum(axis=1))]
    assert np.allclose(out, best, atol=1e-4)


def test_simplex_zero_vector_goes_uniform():
    assert np.allclose(project_simplex_vec(np.zeros(2)), [0.5, 0.5])


def test_simplex_rejects_empty():
    with pytest.raises(ValueError):
        project_simplex_vec(np.array([]))


def test_simplex_optimality_against_random_candidates():
    gen = np.random.default_rng(17)
    for _ in range(5):
        k = int(gen.integers(2, 7))
        v = gen.standard_normal(k) * 2
        out = project_simplex_vec(v)
        d_out = ((v - out) ** 2).sum()
        cands = gen.dirichlet(np.ones(k), size=10**5)
        d_cand = ((cands - v) ** 2).sum(axis=1).min()
        assert d_out <= d_cand + 1e-6


def test_sparse_hand_case_vs_support_brute_force():
    v = np.array([0.9, 0.05, 0.05])
    out = project_sparse(v, 1)
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)
    # every single-coordinate support: projection is just the point mass there
    best_d = min(((v - np.eye(3)[i]) ** 2).sum() for i in range(3))
    assert ((v - out) ** 2).sum() <= best_d + 1e-12


def test_sparse_member_is_fixed():
    v = np.array([0.0, 0.7, 0.0, 0.3, 0.0])
    assert np.allclose(project_sparse(v, 2), v, atol=1e-15)


def test_sparse_with_s_equal_k_matches_plain():
    gen = np.random.default_rng(23)
    for _ in range(20):
        v = gen.standard_normal(6)
        assert np.allclose(
            project_sparse(v, 6), project_simplex_vec(v), atol=1e-15
        )


def test_sparse_beats_random_support_candidates():
    # Candidate = pick an s-subset, simplex-project v restricted to it.
    gen = np.random.default_rng(31)
    for trial in range(4):
        k = int(gen.integers(6, 13))
        s = int(gen.integers(1, 5))
        v = gen.standard_normal(k)
        out = project_sparse(v, s)
        d_out = ((v - out) ** 2).sum()
        for _ in range(10**4):
            supp = gen.choice(k, size=s, replace=False)
            cand = np.zeros(k)
            cand[supp] = project_simplex_vec(v[supp])
            assert d_out <= ((v - cand) ** 2).sum() + 1e-9


def test_sparse_exhaustive_supports_small():
    # At k=6 we can check every support exactly instead of sampling.
    gen = np.random.default_rng(37)
    for _ in range(25):
        v = gen.standard_normal(6)
        for s in (1, 2, 3):
            out = project_sparse(v, s)
            d_out = ((v - out) ** 2).sum()
            best = min(
                (
                    ((v - _support_proj(v, supp)) ** 2).sum()
                    for supp in itertools.combinations(range(6), s)
                )
            )
            assert d_out <= best + 1e-9


def _support_proj(v, supp):
    cand = np.zeros_like(v)
    idx = list(supp)
    cand[idx] = project_simplex_vec(v[idx])
    return cand


def test_idempotence():
    gen = np.random.default_rng(41)
    for _ in range(50):
        v = gen.standard_normal(8) * 3
        p1 = project_simplex_vec(v)
        assert np.allclose(project_simplex_vec(p1), p1, atol=1e-12)
        p2 = project_sparse(v, 3)
        assert np.allclose(project_sparse(p2, 3), p2, atol=1e-12)


def test_sparse_never_exceeds_sparsity():
    gen = np.random.default_rng(43)
    for _ in range(100):
        v = gen.standard_normal(12)
        s = int(gen.integers(1, 13))
        assert np.count_nonzero(project_sparse(v, s)) <= s


def test_top_s_ties_prefer_smaller_index():
    v = np.array([0.5, 0.7, 0.5, 0.7, 0.1])
    assert top_s_indices(v, 2).tolist() == [1, 3]
    assert top_s_indices(v, 3).tolist() == [0, 1, 3]


# Vectors with many ties: small ints (the counts M that rappor and hashing
# rank) and floats drawn from a few values, signed zeros included.
_tied_vectors = st.one_of(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40),
    st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=40),
    st.lists(
        st.sampled_from([-2.5, -0.0, 0.0, 0.1, float(np.nextafter(0.1, 1.0)), 7.0, 1e300]),
        min_size=1,
        max_size=40,
    ),
).map(np.array)


@settings(max_examples=300, deadline=None)
@given(_tied_vectors, st.data())
def test_top_s_matches_stable_argsort(v, data):
    s = data.draw(st.integers(min_value=1, max_value=v.size))
    want = np.sort(np.argsort(-v, kind="stable")[:s])
    got = top_s_indices(v, s)
    assert got.tolist() == want.tolist()
    # a (B, k) stack of tied rows selects each row as the vector form would
    stack = np.stack([v, v[::-1], np.roll(v, 1), np.sort(v), np.zeros_like(v)])
    want_rows = [np.sort(np.argsort(-row, kind="stable")[:s]).tolist() for row in stack]
    assert top_s_indices(stack, s).tolist() == want_rows


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.data(),
)
def test_rowwise_projections_equal_per_row(B, k, seed, tied, data):
    # Row-wise sorts, cumsums and sums must round exactly as on one vector.
    gen = np.random.default_rng(seed)
    if tied:
        stack = gen.choice([-1.0, 0.0, 0.25, 0.5, 3.0], size=(B, k))
    else:
        stack = gen.standard_normal((B, k)) * 10.0 ** gen.uniform(-3, 3, (B, k))
    s = data.draw(st.integers(min_value=1, max_value=k))
    rows = np.array([project_simplex_vec(row) for row in stack])
    assert np.array_equal(project_simplex_vec(stack), rows)
    rows = np.array([project_sparse(row, s) for row in stack])
    assert np.array_equal(project_sparse(stack, s), rows)


@pytest.mark.parametrize("drop", [0.0, 0.25])
def test_split_half_counts_draw_order(drop):
    # The own-symbol draw (none at drop = 0), then the noise draw, from one
    # stream: a twin of the stream replays the counts exactly.
    c = np.array([300, 0, 120, 80, 0, 500])
    m, noise = 1000, 0.125
    got = split_half_counts(c, m, drop, noise, keyed_generator(derive_key(7, 3)))
    gen = np.random.Generator(np.random.Philox(key=derive_key(7, 3)))
    kept = c - gen.binomial(c, drop) if drop else c
    assert np.array_equal(got, kept + gen.binomial(m - c, noise))


@pytest.mark.parametrize("drop, noise", [(0.0, 0.25), (0.3, 0.3)], ids=["comm_hash", "rappor"])
def test_split_half_estimate_draws_sampler_3(drop, noise):
    # c1 and c2 from children 0 and 1 (a multinomial over all k symbols
    # draws the same counts as one over the support), M over all k symbols
    # from child 2, T its top t, and N on T only, from child 3.
    k, n, t, B = 40, 3001, 6, 5
    P = np.zeros((B, k))
    P[:, [3, 17, 18]] = [0.5, 0.3, 0.2]
    P[1] = np.roll(P[1], 11)
    keys = child_keys(21, range(B))
    T, raw, _ = split_half_estimate(P, n, drop, noise, t, keys)
    m1, m2 = n // 2, n - n // 2
    for i, key in enumerate(keys.tolist()):
        gen1, gen2, gen_m, gen_n = (np.random.Generator(np.random.Philox(key=derive_key(key, j))) for j in range(4))
        c1, c2 = gen1.multinomial(m1, P[i]), gen2.multinomial(m2, P[i])
        M = (c1 - gen_m.binomial(c1, drop) if drop else c1) + gen_m.binomial(m1 - c1, noise)
        want_T = np.sort(np.argsort(-M, kind="stable")[:t])
        c2 = c2[want_T]
        N = (c2 - gen_n.binomial(c2, drop) if drop else c2) + gen_n.binomial(m2 - c2, noise)
        assert T[i].tolist() == want_T.tolist()
        assert np.array_equal(raw[i, want_T], (N / m2 - noise) / (1 - (drop + noise)))


@pytest.mark.parametrize("drop, noise", [(0.0, 0.25), (0.3, 0.3)], ids=["comm_hash", "rappor"])
def test_split_half_raw_estimate_is_unbiased_on_T(drop, noise):
    # The first half picks T and the second half's counts, drawn on T only,
    # never see it: over 2000 seeded trials of a fixed target, the mean raw
    # estimate of each symbol over the trials whose T holds it is within 5
    # standard errors of p, off the support (p = 0) too.
    p = np.array([0.4, 0.3, 0.2, 0.1] + [0.0] * 12)
    trials = 2000
    T, raw, _ = split_half_estimate(np.tile(p, (trials, 1)), 400, drop, noise, 8, child_keys(11, range(trials)))
    on_T = np.zeros(raw.shape, dtype=bool)
    on_T[np.arange(trials)[:, None], T] = True
    checked = 0
    for x in range(p.size):
        values = raw[on_T[:, x], x]
        if values.size >= 100:
            checked += 1
            assert abs(values.mean() - p[x]) <= 5 * values.std(ddof=1) / np.sqrt(values.size), x
    assert checked >= 8


def test_sparse_range_checks():
    with pytest.raises(ValueError, match="require 1 <= s <= 3, got s=0"):
        top_s_indices(np.ones(3), 0)
    with pytest.raises(ValueError, match="require 1 <= s <= 3, got s=4"):
        top_s_indices(np.ones((2, 3)), 4)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=16,
    )
)
def test_projection_always_lands_on_simplex(vals):
    out = project_simplex_vec(np.array(vals))
    assert np.all(out >= 0)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=16,
    ),
    st.integers(min_value=1, max_value=16),
)
def test_sparse_projection_always_lands_on_sparse_simplex(vals, s):
    v = np.array(vals)
    if s > v.size:
        s = v.size
    out = project_sparse(v, s)
    assert np.all(out >= 0)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.count_nonzero(out) <= s
