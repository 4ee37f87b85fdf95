"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one ``[criterion N] PASS`` line on success (visible with
``pytest -s``); under plain ``pytest -v`` the per-test PASSED/FAILED line
serves the same purpose. Budgeted criteria assert their own wall-clock limit.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sparse_dist_lab.bounds import (
    expected_chisq_over_packing,
    hamming_ball_count,
    indicator_response_channel,
    ldp_risk_bound,
    packing_gap,
    planned_sample_size,
    random_lbit_channel,
    randomized_response_channel,
    verify_ldp,
)
from sparse_dist_lab.comm_hash import comm_run_stack
from sparse_dist_lab.core import (
    chi_square,
    derive_key,
    enumerate_packing_indices,
    induced_output_dist,
    make_packing_dist,
    packing_reference_dist,
    tv_distance,
    uniform_sparse_stack,
)
from sparse_dist_lab.hadamard import dense_matrix, fwht
from sparse_dist_lab.hadamard_response import (
    hr_channel_matrix,
    hr_decode_raw,
    hr_draw_fractions,
    hr_expected_fractions,
)
from sparse_dist_lab.harness import (
    Cell,
    load_configs,
    run_cell,
    run_grid,
    read_results,
    summarize,
)
from sparse_dist_lab.projection import project_on_support, top_s_indices
from sparse_dist_lab.rappor import rappor_channel_matrix

MASTER_SEED = 20240801
DESK_GRID = Path(__file__).resolve().parents[1] / "configs" / "desk_grid.json"


@pytest.fixture(scope="module")
def desk_grid_run(tmp_path_factory):
    """One full desk-grid run (8 workers), shared by criteria 7 and 10."""
    out = tmp_path_factory.mktemp("grid") / "desk.csv"
    configs = load_configs(str(DESK_GRID))
    start = time.perf_counter()
    for cfg in configs:
        run_grid(cfg, str(out), threads=8)
    elapsed = time.perf_counter() - start
    return out, elapsed


def test_criterion_01_hadamard_exactness():
    start = time.perf_counter()
    for K in (2 ** i for i in range(1, 11)):
        H = dense_matrix(K).astype(np.int16)  # dot products bounded by 1024
        gram = H.T @ H
        assert np.array_equal(gram, K * np.eye(K, dtype=np.int16)), f"Gram failed at K={K}"
    gen = np.random.default_rng(MASTER_SEED)
    K = 1024
    Hf = dense_matrix(K).astype(np.float64)
    worst = 0.0
    for _ in range(100):
        v = gen.standard_normal(K)
        want = Hf @ v
        got = fwht(v)
        rel = np.abs(got - want).max() / max(np.abs(want).max(), 1.0)
        worst = max(worst, rel)
        assert rel <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    print(
        f"[criterion 1] PASS: Gram exact for K=2..1024, fwht worst rel err "
        f"{worst:.2e}, {elapsed:.1f}s",
        flush=True,
    )


def test_criterion_02_hr_inversion_identity():
    k, s, eps, K = 100, 5, 1.0, 128
    gen = np.random.default_rng(MASTER_SEED + 2)
    worst = 0.0
    for _ in range(50):
        p = np.zeros(k)
        supp = gen.choice(k, size=s, replace=False)
        p[supp] = gen.dirichlet(np.ones(s))
        t = hr_expected_fractions(p, eps, K)
        tilde = hr_decode_raw(t, eps, k)
        worst = max(worst, np.abs(tilde - p).max())
    assert worst <= 1e-9
    print(f"[criterion 2] PASS: 50 noiseless inversions, worst coord err {worst:.2e}", flush=True)


def test_criterion_03_ldp_privacy():
    checked = 0
    for eps in (0.5, 1.0, 2.0):
        for j in (1, 3, 5):  # nonzero columns; j=0 is the constant channel
            W = hr_channel_matrix(eps, 8, j)
            assert verify_ldp(W, eps)
            assert not verify_ldp(W, 0.99 * eps)
            checked += 1
        for k in (3, 4):
            W = rappor_channel_matrix(eps, k)
            assert verify_ldp(W, eps)
            assert not verify_ldp(W, 0.99 * eps)
            checked += 1
    print(f"[criterion 3] PASS: {checked} channels tight at their epsilon", flush=True)


def test_criterion_04_ldp_risk_bound_desk_scale():
    k, s, eps, n, trials = 1000, 8, 1.0, 200000, 50
    bound = ldp_risk_bound(k, s, eps, n)
    start = time.perf_counter()
    cell = Cell("hr_sparse", k, s, n, eps)
    errs = [run_cell(cell, [t], MASTER_SEED)[0].tv_error for t in range(trials)]
    elapsed = time.perf_counter() - start
    hits = sum(e <= bound for e in errs)
    assert hits >= 45, f"only {hits}/50 within the bound {bound:.3f}"
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    print(
        f"[criterion 4] PASS: {hits}/50 trials within bound {bound:.3f} "
        f"(max tv {max(errs):.4f}), {elapsed:.1f}s",
        flush=True,
    )


def test_criterion_05_sparse_beats_dense_on_shared_messages():
    k, s, eps, n, trials = 1000, 8, 1.0, 200000, 50
    diffs = []
    sparse_tv, dense_tv = [], []
    for t in range(trials):
        key = derive_key(MASTER_SEED + t, 5)
        target = uniform_sparse_stack(k, s, [derive_key(key, 0)])
        raw = hr_decode_raw(hr_draw_fractions(target, n, eps, [derive_key(key, 1)]), eps, k)
        est_sparse = project_on_support(raw, top_s_indices(raw, s))
        est_dense = project_on_support(raw, top_s_indices(raw, k))
        a = tv_distance(est_sparse, target)[0]
        b = tv_distance(est_dense, target)[0]
        sparse_tv.append(a)
        dense_tv.append(b)
        diffs.append(b - a)
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / math.sqrt(trials)
    assert np.mean(sparse_tv) < np.mean(dense_tv)
    assert diffs.mean() >= 2 * se, f"gap {diffs.mean():.4f} < 2 SE {2 * se:.4f}"
    print(
        f"[criterion 5] PASS: sparse {np.mean(sparse_tv):.4f} vs dense "
        f"{np.mean(dense_tv):.4f}, paired gap {diffs.mean():.4f} = "
        f"{diffs.mean() / se:.0f} SE",
        flush=True,
    )


def test_criterion_06_hashing_support_capture():
    k, s, ell, alpha = 1000, 8, 3, 0.2
    n = planned_sample_size("comm", k, s, alpha, ell=ell)
    assert n == 1351927848  # pinned fixture: C1/C2 arithmetic
    capture_hits = 0
    l1_hits = 0
    for t in range(50):
        key = derive_key(MASTER_SEED + t, 6)
        target = uniform_sparse_stack(k, s, [derive_key(key, 0)])[0]
        T, raw, _ = (rows[0] for rows in comm_run_stack(target[None], n, ell, s, [derive_key(key, 1)]))
        if target[T].sum() >= 1 - alpha / 2:
            capture_hits += 1
        if np.abs(raw[T] - target[T]).sum() <= alpha / 2:
            l1_hits += 1
    assert capture_hits >= 45, f"support capture {capture_hits}/50"
    assert l1_hits >= 45, f"in-support l1 {l1_hits}/50"
    print(
        f"[criterion 6] PASS: at n={n} capture {capture_hits}/50, "
        f"in-support l1 {l1_hits}/50",
        flush=True,
    )


def test_criterion_07_trend_reproduction(desk_grid_run):
    out, elapsed = desk_grid_run
    assert elapsed < 600.0, f"grid took {elapsed:.0f}s"
    cells = summarize(read_results(str(out)))

    def series(scheme, param):
        sel = [c for c in cells if c["scheme"] == scheme and c["eps_or_ell"] == param]
        return sorted(sel, key=lambda c: c["s"])

    def slack(a, b):
        return math.sqrt(a["stderr"] ** 2 + b["stderr"] ** 2)

    comparisons = 0
    # error non-decreasing in s, per scheme and constraint level
    for scheme, params in (("hr_sparse", ["0.5", "0.9"]), ("comm_hash", ["1", "2", "3", "4", "5"])):
        for p in params:
            run = series(scheme, p)
            assert len(run) == 8
            for a, b in zip(run, run[1:]):
                assert b["mean_tv_error"] >= a["mean_tv_error"] - slack(a, b), (
                    f"s-trend broken: {scheme} {p} s={a['s']}->{b['s']}"
                )
                comparisons += 1
    # looser privacy no worse: eps 0.9 <= eps 0.5 per s
    for sa, sb in zip(series("hr_sparse", "0.5"), series("hr_sparse", "0.9")):
        assert sb["mean_tv_error"] <= sa["mean_tv_error"] + slack(sa, sb)
        comparisons += 1
    # more bits no worse: ell+1 <= ell per s
    for ell in range(1, 5):
        for sa, sb in zip(series("comm_hash", str(ell)), series("comm_hash", str(ell + 1))):
            assert sb["mean_tv_error"] <= sa["mean_tv_error"] + slack(sa, sb)
            comparisons += 1
    print(
        f"[criterion 7] PASS: 1120-row grid in {elapsed:.0f}s, "
        f"{comparisons} trend comparisons hold",
        flush=True,
    )


def test_criterion_08_chisq_contraction_bounds():
    k, s, alpha = 6, 2, 0.05

    def slow_oracle(W):
        q0 = induced_output_dist(W, packing_reference_dist(k, alpha))
        vals = [
            chi_square(induced_output_dist(W, make_packing_dist(z, alpha)), q0)
            for z in enumerate_packing_indices(k, s)
        ]
        return float(np.mean(vals))

    for eps in (0.5, 1.0, 2.0):
        bound = 64 * alpha**2 * (math.exp(eps) - 1) ** 2 / s
        for W in (
            randomized_response_channel(k + 1, eps),
            indicator_response_channel(k + 1, eps, np.array([1, 0, 1, 0, 1, 0, 1])),
        ):
            assert verify_ldp(W, eps)
            assert expected_chisq_over_packing(W, k, s, alpha) <= bound + 1e-9
    key = derive_key(MASTER_SEED, 8)
    for ell in (1, 2, 3):
        bound = 8 * alpha * 2**ell / s
        for trial in range(20):
            W = random_lbit_channel(k + 1, ell, derive_key(key, ell * 100 + trial))
            assert expected_chisq_over_packing(W, k, s, alpha) <= bound + 1e-9
    # dual-route agreement on a privacy channel and one channel per ell
    worst = 0.0
    probes = [randomized_response_channel(k + 1, 1.0)] + [
        random_lbit_channel(k + 1, ell, derive_key(key, 900 + ell)) for ell in (1, 2, 3)
    ]
    for W in probes:
        fast = expected_chisq_over_packing(W, k, s, alpha)
        slow = slow_oracle(W)
        worst = max(worst, abs(fast - slow))
        assert abs(fast - slow) <= 1e-9
    print(
        f"[criterion 8] PASS: 66 channels within their contraction bounds, "
        f"oracle gap {worst:.1e}",
        flush=True,
    )


def test_criterion_09_packing_counts():
    for k, s in ((128, 1), (200, 2), (400, 4), (1000, 8)):
        rep = packing_gap(k, s)
        assert rep.satisfied, f"gap below (s/8) log(k/s) at ({k},{s})"
        assert rep.value == pytest.approx(
            math.log(math.comb(k, s)) - math.log(rep.context["ball"]), rel=1e-12
        )
    # brute force the Hamming ball at (24, 4): every 4-subset as a bitmask
    k, s = 24, 4
    t = s / 2
    masks = np.array(
        [sum(1 << i for i in c) for c in itertools.combinations(range(k), s)],
        dtype=np.uint32,
    )
    max_ball = 0
    for lo in range(0, masks.size, 1024):
        block = masks[lo : lo + 1024, None] ^ masks[None, :]
        counts = (np.bitwise_count(block) <= t).sum(axis=1)
        max_ball = max(max_ball, int(counts.max()))
    closed = hamming_ball_count(k, s, t)
    assert max_ball == closed == 81
    rep = packing_gap(k, s, diagnostic=True)
    assert rep.context["ball"] == closed
    print(
        f"[criterion 9] PASS: 4 gap reports satisfied; brute-force ball at "
        f"(24,4) = {max_ball} matches closed form",
        flush=True,
    )


def test_criterion_10_grid_determinism(desk_grid_run, tmp_path):
    out, _ = desk_grid_run
    again = tmp_path / "desk_again.csv"
    for cfg in load_configs(str(DESK_GRID)):
        run_grid(cfg, str(again), threads=1)
    a = out.read_bytes()
    b = again.read_bytes()
    assert a == b, "worker count changed the result bytes"
    print(
        f"[criterion 10] PASS: {len(a)} bytes identical across runs "
        f"(8 workers vs 1)",
        flush=True,
    )
