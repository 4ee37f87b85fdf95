"""Experiment grid runner: configs, seeding, CSV contract, CLI."""

import dataclasses
import hashlib
import json
import os
import re
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exact_mean_tv, run_cell, scatter
from pins import PINS, SAMPLER_VERSION
from sparse_dist_lab import harness
from sparse_dist_lab.bounds import ldp_risk_bound
from sparse_dist_lab.cli import main, plan_report
from sparse_dist_lab.comm_hash import comm_run_stack
from sparse_dist_lab.core import GOLDEN64, MASK64, derive_key, derive_keys, mix64, uniform_sparse_stack
from sparse_dist_lab.hadamard import hadamard_dim
from sparse_dist_lab.hadamard_response import hr_decode_raw, hr_draw_fractions, hr_group_sizes, hr_run_stack
from sparse_dist_lab.harness import (
    CSV_HEADER,
    Cell,
    ExperimentConfig,
    cell_hash,
    config_cells,
    load_configs,
    read_results,
    run_grid,
    scheme_family,
    summarize,
    trial_seeds,
    write_summary,
)
from sparse_dist_lab.projection import project_simplex_vec, split_halves, top_s_indices
from sparse_dist_lab.rappor import rappor_run_stack


def tiny_config(**over):
    base = dict(
        scheme="hr_sparse",
        k=32,
        s_list=[2, 4],
        n=2000,
        trials=3,
        master_seed=7,
        epsilon_list=[0.5, 1.0],
    )
    base.update(over)
    return ExperimentConfig(**base)


# -------------------------------------------------------------------- configs


def test_config_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict(
            dict(
                scheme="hr_sparse",
                k=8,
                s_list=[1],
                n=100,
                trials=1,
                master_seed=0,
                epsilon_list=[1.0],
                bogus=1,
            )
        )


def test_config_rejects_missing_field():
    with pytest.raises(ValueError, match="missing config fields"):
        ExperimentConfig.from_dict(dict(scheme="hr_sparse", k=8))


def test_config_scheme_constraint_pairing():
    with pytest.raises(ValueError):
        tiny_config(scheme="comm_hash")  # epsilon_list on a comm scheme
    with pytest.raises(ValueError):
        tiny_config(epsilon_list=None, ell_list=[1, 2])
    cfg = tiny_config(scheme="comm_hash", epsilon_list=None, ell_list=[1, 2])
    assert cfg.ell_list == (1, 2)


@pytest.mark.parametrize("sweep", [dict(ell_list=[1]), dict(epsilon_list=[1.0])], ids=["ell_list", "epsilon_list"])
def test_config_refuses_an_unknown_scheme_as_unknown(sweep):
    # the scheme rule runs before the scheme picks its sweep list, so the
    # typo comm_hsh is not refused for carrying comm_hash's ell_list
    with pytest.raises(ValueError, match=re.escape("unknown scheme 'comm_hsh'; expected one of (")):
        ExperimentConfig("comm_hsh", 16, [2], 1000, 1, 0, **sweep)


def test_config_accepts_comm_with_odd_n():
    # the split-half estimator splits n users as n // 2 and n - n // 2
    assert tiny_config(scheme="comm_hash", epsilon_list=None, ell_list=[1], n=2001).n == 2001


def test_config_validates_ranges():
    with pytest.raises(ValueError):
        tiny_config(s_list=[0])
    with pytest.raises(ValueError):
        tiny_config(s_list=[33])
    with pytest.raises(ValueError, match=re.escape("trials must be >= 1, got 0")):
        tiny_config(trials=0)
    with pytest.raises(ValueError):
        tiny_config(scheme="nope")
    with pytest.raises(ValueError):
        tiny_config(epsilon_list=[0.0])
    # the samplers take n as an int64
    with pytest.raises(ValueError, match=r"n=9223372036854775808 is too large"):
        tiny_config(n=2**63)
    assert tiny_config(n=2**63 - 1).n == 2**63 - 1
    # a seed is a stream key: seeds equal mod 2^64 would alias
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"master_seed={seed} is outside \[0, 2\^64\)"):
            tiny_config(master_seed=seed)
    assert tiny_config(master_seed=2**64 - 1).master_seed == 2**64 - 1


_COMM = dict(scheme="comm_hash", epsilon_list=None)


@pytest.mark.parametrize(
    "over, message",
    [
        (dict(k=40.0), "k must be an integer, not 40.0"),
        (dict(n=200.0), "n must be an integer, not 200.0"),
        (dict(trials=2.0), "trials must be an integer, not 2.0"),
        (dict(trials=True), "trials must be an integer, not True"),
        (dict(master_seed="7"), "master_seed must be an integer, not '7'"),
        (dict(s_list=[2.7]), "s_list entry must be an integer, not 2.7"),
        (dict(s_list=[1, True]), "s_list entry must be an integer, not True"),
        (dict(s_list=2), "s_list must be a list, not 2"),
        (dict(_COMM, ell_list=[1.9]), "ell_list entry must be an integer, not 1.9"),
        (dict(_COMM, ell_list=[False]), "ell_list entry must be an integer, not False"),
        (dict(epsilon_list=["1.0"]), "epsilon_list entry must be a real number, not '1.0'"),
        (dict(epsilon_list=[False]), "epsilon_list entry must be a real number, not False"),
        (dict(out=1), "out must be a path string, not 1"),  # 1 would open stdout's descriptor
        (dict(s_list=[]), "s_list must not be empty"),
        (dict(epsilon_list=[]), "epsilon_list must not be empty"),
        (dict(_COMM, ell_list=[]), "ell_list must not be empty"),
    ],
)
def test_config_rejects_field_of_wrong_type(over, message):
    # such values once ran as another grid (s=2.7 as s=2, trials=True as one
    # trial) or died mid-run with a bare TypeError; an empty epsilon_list or
    # ell_list once wrote a header-only file, which summarize refuses
    with pytest.raises(ValueError, match=re.escape(message)):
        tiny_config(**over)


@pytest.mark.parametrize(
    "over, message",
    [
        (dict(_COMM, s_list=[2, 2], ell_list=[1]), "s_list repeats the value 2"),
        (dict(_COMM, ell_list=[1, 3, 1]), "ell_list repeats the value 1"),
        (dict(epsilon_list=[1, 0.5, 1.0]), "epsilon_list repeats the value 1.0"),
    ],
)
def test_config_rejects_a_repeated_list_value(over, message):
    # a repeat names one cell twice, and run_grid once wrote each of its
    # trials twice, so summarize counted twice the trials
    with pytest.raises(ValueError, match=re.escape(message)):
        tiny_config(**over)


def test_config_keeps_integral_and_real_values():
    cfg = tiny_config(k=np.int64(32), s_list=(np.int64(2),), epsilon_list=[1, np.float64(0.5)])
    assert (cfg.k, cfg.s_list, cfg.epsilon_list) == (32, (2,), (1.0, 0.5))
    assert type(cfg.k) is int and type(cfg.epsilon_list[0]) is float


def test_config_rejects_epsilon_whose_exponential_overflows():
    # HR needs e^eps and rappor e^(eps/2) to be finite floats.
    with pytest.raises(ValueError, match="epsilon=800.0"):
        tiny_config(epsilon_list=[0.5, 800.0])
    with pytest.raises(ValueError, match="epsilon=inf"):
        tiny_config(epsilon_list=[float("inf")])
    with pytest.raises(ValueError, match="epsilon=1600.0"):
        tiny_config(scheme="rappor", epsilon_list=[1600.0])
    assert tiny_config(scheme="rappor", epsilon_list=[800.0]).epsilon_list == (800.0,)


@pytest.mark.parametrize("scheme", ["hr_dense", "hr_sparse", "rappor"])
def test_config_rejects_epsilon_whose_exponential_rounds_to_one(scheme):
    # HR divides by e^eps - 1 and rappor by 1 - 2q = (e^(eps/2) - 1)/(e^(eps/2) + 1).
    # e^2e-16 is the float after 1 but e^1e-16 rounds to 1, so 2e-16 is
    # enough for HR and too small for rappor.
    power = r"\(epsilon/2\)" if scheme == "rappor" else "epsilon"
    with pytest.raises(ValueError, match=rf"epsilon=1e-17 is too small: e\^{power} rounds to 1"):
        tiny_config(scheme=scheme, epsilon_list=[1.0, 1e-17])
    if scheme == "rappor":
        with pytest.raises(ValueError, match=r"epsilon=2e-16 is too small"):
            tiny_config(scheme=scheme, epsilon_list=[2e-16])
    else:
        assert tiny_config(scheme=scheme, epsilon_list=[2e-16]).epsilon_list == (2e-16,)


@pytest.mark.parametrize("scheme", ["hr_sparse", "hr_dense"])
def test_config_rejects_hr_grid_with_fewer_users_than_groups(scheme):
    # k=32 needs K=64 groups; n=50 cannot fill them.
    with pytest.raises(ValueError, match=r"n=50 .*K=64"):
        tiny_config(scheme=scheme, n=50)
    assert tiny_config(scheme=scheme, n=64).n == 64


def test_config_accepts_rappor_at_s_equal_k():
    # the candidate support is min(2s, k) symbols, so every s <= k runs
    assert tiny_config(scheme="rappor", s_list=[2, 17, 32]).s_list == (2, 17, 32)


@pytest.mark.parametrize(
    "scheme, params", [("rappor", {}), ("comm_hash", {"epsilon_list": None, "ell_list": [1]})], ids=["rappor", "comm_hash"]
)
def test_config_rejects_split_half_grid_with_one_user(scheme, params):
    with pytest.raises(ValueError, match=f"^{re.escape(_SPLIT_USERS)}$"):
        tiny_config(scheme=scheme, n=1, **params)
    assert tiny_config(scheme=scheme, n=2, **params).n == 2


# the user-count rules' messages: each rule has one home, in its runner's module
_HR_USERS = "n=50 is below the block size K=64 of k=32: HR needs n >= K"
_SPLIT_USERS = "n=1: a split-half scheme splits users in half and needs n >= 2"
_FLAT_32 = np.full((1, 32), 1 / 32)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Cell("hr_dense", 32, 2, 50, 1.0), _HR_USERS, id="hr-Cell"),
        pytest.param(lambda: tiny_config(scheme="hr_dense", n=50), _HR_USERS, id="hr-config"),
        pytest.param(lambda: hr_draw_fractions(_FLAT_32, 50, 1.0, [1]), _HR_USERS, id="hr-hr_draw_fractions"),
        pytest.param(lambda: hr_run_stack(_FLAT_32, 50, 1.0, 2, [1]), _HR_USERS, id="hr-hr_run_stack"),
        pytest.param(lambda: Cell("rappor", 32, 2, 1, 1.0), _SPLIT_USERS, id="split-Cell"),
        pytest.param(lambda: tiny_config(scheme="rappor", n=1), _SPLIT_USERS, id="split-config"),
        pytest.param(lambda: rappor_run_stack(_FLAT_32, 1, 1.0, 2, [1]), _SPLIT_USERS, id="split-rappor_run_stack"),
        pytest.param(lambda: comm_run_stack(_FLAT_32, 1, 3, 2, [1]), _SPLIT_USERS, id="split-comm_run_stack"),
        # a float or bool n died in NumPy (an int cast, slice indices) or gave a number, True read as 1
        pytest.param(lambda: hr_group_sizes(1000.5, 50), "n must be an integer, not 1000.5", id="n-float-hr_group_sizes"),
        pytest.param(lambda: hr_run_stack(_FLAT_32, 1000.7, 1.0, 2, [1]), "n must be an integer, not 1000.7", id="n-float-hr_run_stack"),
        pytest.param(lambda: split_halves(101.5), "n must be an integer, not 101.5", id="n-float-split_halves"),
        pytest.param(lambda: rappor_run_stack(_FLAT_32, 1001.5, 1.0, 2, [1]), "n must be an integer, not 1001.5", id="n-float-rappor_run_stack"),
        pytest.param(lambda: comm_run_stack(_FLAT_32, 1001.0, 3, 2, [1]), "n must be an integer, not 1001.0", id="n-float-comm_run_stack"),
        pytest.param(lambda: ldp_risk_bound(1000, 8, 1.0, 1.5), "n must be an integer, not 1.5", id="n-float-ldp_risk_bound"),
        pytest.param(lambda: ldp_risk_bound(1000, 8, 1.0, True), "n must be an integer, not True", id="n-bool-ldp_risk_bound"),
    ],
)
def test_each_user_count_rule_gives_one_message(call, message):
    # the runners said `need at least K=64 users, got n=50` and `need at least two users`
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "cell, reason",
    [
        pytest.param(("hr_sparse", 32, 0, 2000, 1.0), "require 1 <= s <= k (got s=0, k=32)", id="s=0"),
        pytest.param(("hr_sparse", 32, 40, 2000, 1.0), "require 1 <= s <= k (got s=40, k=32)", id="s>k"),
        pytest.param(("rappor", 0, 1, 400, 1.0), "require 1 <= s <= k (got s=1, k=0)", id="k=0"),
        pytest.param(("comm_hash", 16, 2, 0, 1), "n=0: a split-half scheme splits users in half and needs n >= 2", id="n=0"),
        pytest.param(("comm_hash", 16, 2, 2**63, 1), f"n={2**63} is too large: n must be below 2^63", id="n=2^63"),
        pytest.param(("hr_dense", 32, 2, 50, 1.0), _HR_USERS, id="hr-n<K"),
        pytest.param(("rappor", 16, 2, 1, 1.0), _SPLIT_USERS, id="rappor-n=1"),
        pytest.param(("comm_hash", 16, 2, 1, 1), _SPLIT_USERS, id="comm_hash-n=1"),
        pytest.param(("hr_sparse", 32, 2, 2000, 0.0), "epsilon must be positive, got 0.0", id="eps=0"),
        pytest.param(("rappor", 16, 2, 400, -1.0), "epsilon must be positive, got -1.0", id="eps<0"),
        pytest.param(("hr_sparse", 32, 2, 2000, 800.0), "epsilon=800.0 is too large", id="hr-eps-overflows"),
        pytest.param(("rappor", 16, 2, 400, 1600.0), "epsilon=1600.0 is too large", id="rappor-eps-overflows"),
        pytest.param(("hr_dense", 32, 2, 2000, 1e-17), "epsilon=1e-17 is too small: e^epsilon rounds to 1", id="hr-eps-rounds-to-1"),
        pytest.param(("rappor", 16, 2, 400, 2e-16), "epsilon=2e-16 is too small: e^(epsilon/2) rounds to 1", id="rappor-eps-rounds-to-1"),
        pytest.param(("comm_hash", 16, 2, 1000, 0), "ell must be >= 1, got 0", id="ell=0"),
        pytest.param(("comm_hash", 16, 2, 1000, 2.5), "ell_list entry must be an integer, not 2.5", id="ell=2.5"),
        pytest.param(("hr", 16, 2, 1000, 1.0), "unknown scheme 'hr'; expected one of", id="unknown-scheme"),
    ],
)
def test_cell_config_and_row_refuse_an_impossible_grid_point(tmp_path, cell, reason):
    # one rule set: Cell holds it, and a one-cell grid and a results row
    # naming the cell each refuse the cell for the reason Cell gives
    scheme, k, s, n, param = cell
    with pytest.raises(ValueError, match=re.escape(reason)):
        Cell(*cell)
    sweep = "ell_list" if scheme == "comm_hash" else "epsilon_list"
    with pytest.raises(ValueError, match=re.escape(reason)):
        ExperimentConfig(scheme, k, [s], n, trials=1, master_seed=0, **{sweep: [param]})
    out = tmp_path / "res.csv"
    out.write_text(f"{CSV_HEADER}\n{scheme},{k},{s},{n},{param!r},0,0.5,1,0,{harness.SAMPLER_VERSION}\n")
    row_reason = f"names no cell a grid can hold: {reason}"
    if scheme == "comm_hash" and param % 1:  # a row's ell is read as an integer, as its k is
        row_reason = f"field eps_or_ell is {repr(param)!r}, not an integer"
    with pytest.raises(ValueError, match=re.escape(f"{out}: line 2 {row_reason}")):
        read_results(str(out))


def test_load_configs_accepts_object_or_list(tmp_path):
    raw = dict(
        scheme="rappor", k=8, s_list=[1], n=100, trials=1, master_seed=0, epsilon_list=[1.0]
    )
    one = tmp_path / "one.json"
    one.write_text(json.dumps(raw))
    many = tmp_path / "many.json"
    many.write_text(json.dumps([raw, raw]))
    assert len(load_configs(str(one))) == 1
    assert len(load_configs(str(many))) == 2
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(ValueError):
        load_configs(str(empty))
    not_object = tmp_path / "not_object.json"
    not_object.write_text("[1]")
    with pytest.raises(ValueError, match="config entry 1 is of type int, not an object"):
        load_configs(str(not_object))


# -------------------------------------------------------------------- seeding


def trial_seed(master_seed, cell, trial_index):
    """The seed of one trial, as an int."""
    return trial_seeds(master_seed, cell, [trial_index])[0]


def test_trial_seeds_wrap_as_the_scalar_mix():
    # Each seed must equal the chain of mix64 over Python ints, masked to
    # 64 bits, for every index.
    cell = Cell("comm_hash", 16, 2, 1000, 3)
    trials = [0, 1, 7, 2**20, 2**40]
    for master_seed in (0, 5, 2**64 - 1):
        mixed = mix64(mix64(master_seed) ^ cell_hash(cell))
        want = [mix64(mixed ^ ((t + 1) * GOLDEN64 & MASK64)) for t in trials]
        assert trial_seeds(master_seed, cell, trials) == want


def test_cell_cardinality():
    assert len(config_cells(tiny_config())) == 4  # 2 s x 2 eps; trials multiply later


def test_trial_seed_deterministic_and_distinct():
    cell = Cell("rappor", 16, 2, 1000, 1.0)
    assert trial_seed(5, cell, 0) == trial_seed(5, cell, 0)
    assert trial_seed(5, cell, 0) != trial_seed(5, cell, 1)
    assert trial_seed(5, cell, 0) != trial_seed(6, cell, 0)


def test_hr_variants_share_message_batches():
    # Dense and sparse projections are decode-time choices of the same
    # protocol, so the two schemes draw identical seeds per (cell, trial).
    a = Cell("hr_dense", 64, 4, 1000, 0.9)
    b = Cell("hr_sparse", 64, 4, 1000, 0.9)
    assert scheme_family("hr_dense") == scheme_family("hr_sparse") == "hr"
    assert trial_seed(3, a, 7) == trial_seed(3, b, 7)


def test_comm_cells_share_seed_at_capped_ell():
    # ell=4 and ell=5 both cap to effective ell 4 at s=8; identical seeds
    # make the capped cells replay byte-identically.
    a = Cell("comm_hash", 1000, 8, 10000, 4)
    b = Cell("comm_hash", 1000, 8, 10000, 5)
    c = Cell("comm_hash", 1000, 8, 10000, 3)
    assert cell_hash(a) == cell_hash(b)
    assert cell_hash(a) != cell_hash(c)


def test_bits_per_user_mapping():
    assert Cell("hr_dense", 100, 2, 1000, 1.0).bits == 1
    assert Cell("hr_sparse", 100, 2, 1000, 0.5).bits == 1
    assert Cell("rappor", 100, 2, 1000, 1.0).bits == 100
    assert Cell("comm_hash", 100, 2, 1000, 3).bits == 3


# --------------------------------------------------------------------- trials


def test_run_trial_repeatable():
    cell = Cell("hr_sparse", 32, 2, 2000, 1.0)
    a = run_cell(cell, [1], 7)[0]
    b = run_cell(cell, [1], 7)[0]
    assert a == b
    seeds = trial_seeds(7, cell, [1])
    assert harness._group_rows([(cell, [1])], [1], seeds) == harness._group_rows([(cell, [1])], [1], seeds)


def test_run_trial_csv_row_shape():
    cell = Cell("comm_hash", 16, 1, 500, 2)
    row = harness._group_rows([(cell, [0])], [0], trial_seeds(3, cell, [0]))
    assert row.count("\n") == 1 and row.endswith("\n")
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert "wall" not in row


def test_run_trial_errors_carry_cell_identity():
    # k=32 needs K=64 groups; n=50 cannot fill them, so no such cell is
    # built and no trial runs (a trial's own errors name its cell: see
    # test_worker_error_names_cell)
    with pytest.raises(ValueError, match=re.escape("n=50 is below the block size K=64 of k=32: HR needs n >= K")):
        Cell("hr_sparse", 32, 2, 50, 1.0)


@pytest.mark.parametrize(
    "cell",
    [("hr_sparse", 32, 2, 2000, 800.0), ("hr_dense", 32, 2, 2000, 800.0), ("rappor", 32, 2, 2000, 1600.0)],
)
def test_run_trial_reports_epsilon_too_large(cell):
    # e^eps (HR) or e^(eps/2) (rappor) overflows a float here, so no such
    # cell is built and no trial runs
    with pytest.raises(ValueError, match=r"epsilon=.*too large"):
        Cell(*cell)


def test_cell_param_is_canonical():
    # Equal cells must share one cell_hash, row text and seed.
    assert Cell("rappor", 16, 2, 1000, 1) == Cell("rappor", 16, 2, 1000, 1.0)
    assert harness._param_text(Cell("rappor", 16, 2, 1000, 1).param) == "1.0"
    assert harness._param_text(Cell("comm_hash", 16, 2, 1000, np.int64(3)).param) == "3"
    assert trial_seed(5, Cell("hr_dense", 16, 2, 1000, 1), 0) == trial_seed(5, Cell("hr_dense", 16, 2, 1000, 1.0), 0)


@pytest.mark.parametrize(
    "cell, message",
    [
        pytest.param(("rappor", 16, 2, 1000, "1.0"), "epsilon_list entry must be a real number, not '1.0'", id="eps-text"),
        pytest.param(("comm_hash", 16, 2, 1000, "3"), "ell_list entry must be an integer, not '3'", id="ell-text"),
        pytest.param(("comm_hash", 16, 2, 1000, True), "ell_list entry must be an integer, not True", id="ell-bool"),
        pytest.param(("comm_hash", 16, 2, 1000, 3.0), "ell_list entry must be an integer, not 3.0", id="ell-float"),
        pytest.param(("rappor", 16.0, 2, 1000, 1.0), "k must be an integer, not 16.0", id="rappor-k-float"),
        pytest.param(("hr_sparse", 16.0, 2, 1000, 1.0), "k must be an integer, not 16.0", id="hr-k-float"),
    ],
)
def test_cell_refuses_a_field_of_the_wrong_type(cell, message):
    # a Cell types its own fields as a config does: k, s and n are integers,
    # ell an integer and epsilon a real number, and a bool is neither
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Cell(*cell)


# ell up to 2^64 and epsilon over each scheme's valid range: e^epsilon
# (HR) or e^(epsilon/2) (rappor) finite and not 1
_PARAMS = {
    "hr_dense": st.floats(2e-16, 709.78),
    "hr_sparse": st.floats(2e-16, 709.78),
    "rappor": st.floats(4.5e-16, 1419.56),
    "comm_hash": st.integers(1, 2**64),
}


@st.composite
def _cells(draw):
    scheme = draw(st.sampled_from(harness.SCHEMES))
    k = draw(st.integers(1, 10**6))
    s = draw(st.integers(1, k))
    n = draw(st.integers(hadamard_dim(k) if scheme.startswith("hr") else 2, 2**63 - 1))
    return Cell(scheme, k, s, n, draw(_PARAMS[scheme]))


@settings(max_examples=300, deadline=None)
@given(_cells())
@example(Cell("comm_hash", 8, 2, 100, 2**53 + 1))
def test_row_text_parses_back_to_its_cell(cell):
    # the text the writer makes for a cell names that cell to the reader, and
    # summarize writes its param as the writer does: an ell above 2^53 is not
    # rounded to a float
    text = harness._param_text(cell.param)
    read = harness._row_cell(cell.scheme, str(cell.k), str(cell.s), str(cell.n), text, str(cell.bits))
    assert read == cell and type(read.param) is type(cell.param)
    [summary] = summarize([dict(cell=read, tv_error=0.5)])
    assert summary["eps_or_ell"] == text


@pytest.mark.parametrize("scheme, exact", [("hr_sparse", 0.23992), ("hr_dense", 0.27483)])
def test_hr_mean_tv_matches_its_exact_value(scheme, exact):
    # the number the lab reports, a cell's mean TV, against its exact value
    # from every outcome of the per-group binomials; 4 is a normal quantile
    # and the seed is fixed, so the test is deterministic
    value = exact_mean_tv(scheme, 3, 1, 12, 0.9)
    assert value == pytest.approx(exact, abs=5e-6)
    errs = run_cell(Cell(scheme, 3, 1, 12, 0.9), range(20_000), 20240801)
    z = (errs.mean() - value) / (errs.std(ddof=1) / np.sqrt(errs.size))
    assert abs(z) < 4, z


@pytest.mark.parametrize(
    "scheme, k, s, param, exact",
    [
        pytest.param("comm_hash", 6, 1, 1, 0.10448, id="comm_hash-ell-at-cap"),
        pytest.param("comm_hash", 4, 2, 1, 0.37158, id="comm_hash-ell-below-cap"),
        pytest.param("comm_hash", 4, 2, 3, 0.30296, id="comm_hash-ell-above-cap"),
        pytest.param("rappor", 4, 1, 2.0, 0.18369, id="rappor"),
    ],
)
def test_split_half_mean_tv_matches_its_exact_value(scheme, k, s, param, exact):
    # as for HR, from every outcome of the split-half law at n = 8: the first
    # histogram, M, T, the second histogram and N on T; ell = 3 at s = 2 runs
    # at its effective ell, 2
    value = exact_mean_tv(scheme, k, s, 8, param)
    assert value == pytest.approx(exact, abs=5e-6)
    errs = run_cell(Cell(scheme, k, s, 8, param), range(20_000), 20240801)
    z = (errs.mean() - value) / (errs.std(ddof=1) / np.sqrt(errs.size))
    assert abs(z) < 4, z


def test_all_schemes_consistent_at_large_n():
    # s=1 point-ish target, n=1e6: every scheme should land within 0.05.
    for scheme, param in (
        ("hr_dense", 1.0),
        ("hr_sparse", 1.0),
        ("rappor", 1.0),
        ("comm_hash", 3),
    ):
        cell = Cell(scheme, 64, 1, 10**6, param)
        tv = run_cell(cell, [0], 11)[0]
        assert tv <= 0.05, (scheme, tv)


# ----------------------------------------------------------------------- grid


def test_grid_row_count_and_resume(tmp_path):
    cfg = tiny_config()
    out = tmp_path / "res.csv"
    wrote = run_grid(cfg, str(out), threads=1)
    assert wrote == 12  # 2 s x 2 eps x 3 trials
    full = out.read_bytes()
    assert full.startswith(CSV_HEADER.encode() + b"\n")
    assert len(full.decode().strip().split("\n")) == 13

    # truncate to half the rows, rerun, bytes must match the uninterrupted run
    lines = full.decode().strip().split("\n")
    out.write_text("\n".join(lines[:7]) + "\n")
    wrote_again = run_grid(cfg, str(out), threads=1)
    assert wrote_again == 6
    assert out.read_bytes() == full

    # a third run is a no-op
    assert run_grid(cfg, str(out), threads=1) == 0
    assert out.read_bytes() == full


def test_split_half_grids_at_odd_n_and_s_equal_k_resume_and_summarize(tmp_path):
    # an odd n splits as n // 2 and n - n // 2, and at s = k the candidate
    # support is all k symbols: the reader accepts every row the writer wrote
    out = tmp_path / "res.csv"
    grids = [
        tiny_config(scheme="comm_hash", k=8, s_list=[2, 8], n=301, epsilon_list=None, ell_list=[1, 3]),
        tiny_config(scheme="rappor", k=6, s_list=[1, 4, 6], n=401, epsilon_list=[2.0]),
    ]
    assert [run_grid(cfg, str(out)) for cfg in grids] == [12, 9]
    full = out.read_bytes()
    assert [run_grid(cfg, str(out), threads=2) for cfg in grids] == [0, 0]
    assert out.read_bytes() == full
    cells = summarize(read_results(str(out)))
    assert len(cells) == 7
    at_k = [(c["scheme"], c["eps_or_ell"], c["trials"]) for c in cells if c["s"] == c["k"]]
    assert at_k == [("comm_hash", "1", 3), ("comm_hash", "3", 3), ("rappor", "2.0", 3)]


def test_grid_at_an_ell_above_2_53_resumes_and_summarizes(tmp_path):
    # 2^53 + 1 is no float: read as one, the row's ell would disagree with
    # its bits_per_user and the file would refuse its own resume
    ell = 2**53 + 1
    cfg = tiny_config(scheme="comm_hash", k=8, s_list=[2], n=100, trials=1, epsilon_list=None, ell_list=[ell])
    out = tmp_path / "res.csv"
    assert run_grid(cfg, str(out)) == 1
    assert run_grid(cfg, str(out)) == 0
    [row] = read_results(str(out))
    assert list(row) == ["cell", "trial", "tv_error", "seed", "sampler"]
    assert row["cell"] == Cell("comm_hash", 8, 2, 100, ell)
    assert row["cell"].param == ell and type(row["cell"].param) is int
    [cell] = summarize([row])
    assert cell["eps_or_ell"] == "9007199254740993"
    write_summary([cell], str(tmp_path / "summary.json"), str(tmp_path / "summary.csv"))
    assert ",9007199254740993," in (tmp_path / "summary.csv").read_text()


@pytest.mark.parametrize("runner", [hr_run_stack, rappor_run_stack, comm_run_stack], ids=["hr", "rappor", "comm_hash"])
@pytest.mark.parametrize("n_keys", [1, 4])
def test_stack_runner_needs_one_key_per_target(runner, n_keys):
    # 3 targets with 1 key or with 4: a key count other than the row count
    # is refused, not zipped short or left unfilled
    P = uniform_sparse_stack(8, 2, derive_keys(3, range(3)))
    with pytest.raises(ValueError, match=rf"got {n_keys} keys for 3 targets"):
        runner(P, 400, 2, 2, derive_keys(4, range(n_keys)))  # epsilon 2 or ell 2


def test_resume_rejects_other_master_seed(tmp_path):
    # Row keys leave the seed out, so without a seed check a resume under a
    # different master seed would treat every row as done and write nothing.
    cfg = tiny_config(trials=1)
    out = tmp_path / "res.csv"
    run_grid(cfg, str(out), threads=1)
    before = out.read_bytes()
    with pytest.raises(ValueError) as err:
        run_grid(dataclasses.replace(cfg, master_seed=99), str(out), threads=1)
    cell = config_cells(cfg)[0]
    message = str(err.value)
    assert str(out) in message
    assert str(trial_seed(cfg.master_seed, cell, 0)) in message
    assert str(trial_seed(99, cell, 0)) in message
    assert out.read_bytes() == before


def test_resume_rejects_torn_row(tmp_path):
    cfg = tiny_config(trials=1)
    out = tmp_path / "res.csv"
    run_grid(cfg, str(out), threads=1)
    # A short row that ends in a newline was not cut off mid-write, so it is
    # corruption, not a torn tail to repair.
    torn = out.read_text().rstrip("\n").rsplit(",", 3)[0]
    out.write_text(torn + "\n")
    with pytest.raises(ValueError, match="line 5 has 7 fields"):
        run_grid(cfg, str(out), threads=1)


def test_resume_repairs_torn_tail(tmp_path, capsys):
    cfg = tiny_config()
    fresh = tmp_path / "fresh.csv"
    run_grid(cfg, str(fresh), threads=1)
    full = fresh.read_bytes()
    out = tmp_path / "res.csv"
    out.write_bytes(full[:-7])  # the newline and six digits of the last seed
    last_line = full[:-1].rsplit(b"\n", 1)[1]
    with pytest.raises(ValueError, match="no newline"):
        read_results(str(out))
    assert run_grid(cfg, str(out), threads=2) == 1
    assert out.read_bytes() == full
    err = capsys.readouterr().err
    assert str(out) in err
    assert f"{len(last_line) - 6} bytes" in err

    # a torn header leaves nothing to keep
    out.write_bytes(full[:5])
    assert run_grid(cfg, str(out), threads=1) == 12
    assert out.read_bytes() == full


@pytest.mark.parametrize(
    "first",
    [b"a,b,c,d,e,f,g,h,i\n", b"a,b,c", CSV_HEADER.encode() + b",x\n"],
    ids=["other_names", "torn_other_names", "extra_field"],
)
def test_resume_rejects_foreign_header(tmp_path, first):
    # Rows appended under another file's header would be unreadable, so a
    # resume must refuse the file before writing anything.
    out = tmp_path / "res.csv"
    out.write_bytes(first + b"1,2,3,4,5,6,7,8,9\n")
    before = out.read_bytes()
    with pytest.raises(ValueError, match=re.escape(f"{out}: the first line")):
        run_grid(tiny_config(trials=1), str(out), threads=1)
    assert out.read_bytes() == before


def test_resume_runs_only_missing_trials_in_order(tmp_path, monkeypatch):
    cfg = tiny_config()
    fresh = tmp_path / "fresh.csv"
    run_grid(cfg, str(fresh), threads=1)
    full = fresh.read_bytes()
    lines = full.decode().split("\n")
    out = tmp_path / "res.csv"
    # header, all of the first cell (3 trials), one trial of the second
    out.write_text("\n".join(lines[:5]) + "\n")

    calls = {}
    real_cell_errors = harness._cell_errors

    def recording_cell_errors(cell, seeds):
        assert (cell.s, cell.param) not in calls  # one batch per cell
        calls[(cell.s, cell.param)] = seeds
        return real_cell_errors(cell, seeds)

    monkeypatch.setattr(harness, "_cell_errors", recording_cell_errors)
    # one worker: a recorder in a forked worker could not report back
    assert run_grid(cfg, str(out), threads=1) == 8
    assert out.read_bytes() == full
    ran = {(2, 1.0): [1, 2], (4, 0.5): [0, 1, 2], (4, 1.0): [0, 1, 2]}
    assert calls == {(s, eps): [trial_seed(7, Cell("hr_sparse", 32, s, 2000, eps), t) for t in ts] for (s, eps), ts in ran.items()}


@pytest.mark.parametrize(
    "grid",
    [
        dict(scheme="hr_sparse", k=32, s_list=[1, 5], n=2000, epsilon_list=[0.5, 3.0]),
        dict(scheme="hr_dense", k=12, s_list=[1, 12], n=100, epsilon_list=[1.0]),
        dict(scheme="rappor", k=20, s_list=[1, 10], n=400, epsilon_list=[0.5, 6.0]),
        # 20 users a half over 300 symbols: most counts tie at 0, 1 or 2
        dict(scheme="comm_hash", k=300, s_list=[3, 150], n=40, ell_list=[1, 4]),
        # ell = 4 and ell = 3 share a cell hash at both s, with ell = 1 between them
        dict(scheme="comm_hash", k=40, s_list=[2, 4], n=400, ell_list=[4, 1, 3]),
    ],
)
def test_grid_rows_equal_trials_run_one_by_one(tmp_path, monkeypatch, grid):
    # A cell's trials run as one stack; each row must equal its trial alone.
    monkeypatch.setattr(harness, "_WORKER_MIN_WORK", 1)  # fork for this small grid
    cfg = ExperimentConfig(trials=4, master_seed=13, **grid)
    out = tmp_path / "res.csv"
    run_grid(cfg, str(out), threads=2)
    rows = [harness._group_rows([(cell, [t])], [t], trial_seeds(13, cell, [t])) for cell in config_cells(cfg) for t in range(4)]
    assert out.read_text() == CSV_HEADER + "\n" + "".join(rows)


@pytest.mark.parametrize(
    "scheme, s",
    [("hr_dense", 3), ("hr_sparse", 3), ("rappor", 3), ("comm_hash", 3), ("comm_hash", 30)],
    ids=["hr_dense", "hr_sparse", "rappor", "comm_hash", "comm_hash_support_capped_at_k"],
)
def test_every_stack_runner_returns_its_support_raw_estimate_and_projection(scheme, s):
    # Every scheme's runner is (targets, n, param, s, keys) -> (T, raw, est),
    # all (B, t): the support, the raw estimate on it and its projection onto
    # the simplex over T; hr_dense is HR at s = k, whose T is every symbol.
    # The harness scores the support form bit for bit as the old dense
    # score of the scattered estimate. A trial draws its target from child 0
    # of derive_key(seed, 0) and its protocol randomness from child 1.
    k, B = 40, 4
    cell = Cell(scheme, k, s, 4000, 3 if scheme == "comm_hash" else 1.0)
    seeds = derive_keys(5, range(B))
    trial_keys = [derive_key(seed, 0) for seed in seeds]
    targets = uniform_sparse_stack(k, s, [derive_key(key, 0) for key in trial_keys])
    keys = [derive_key(key, 1) for key in trial_keys]
    run, runs_at = {
        "hr_dense": (hr_run_stack, k),
        "hr_sparse": (hr_run_stack, s),
        "rappor": (rappor_run_stack, s),
        "comm_hash": (comm_run_stack, s),
    }[scheme]
    T, raw, est = run(targets, cell.n, cell.param, runs_at, keys)
    width = {"hr_dense": k, "hr_sparse": s, "rappor": min(2 * s, k), "comm_hash": min(2 * s, k)}[scheme]
    assert T.shape == raw.shape == est.shape == (B, width)
    assert np.array_equal(est, project_simplex_vec(raw))
    got_T, got_est = harness._run_stack(cell, targets, keys)
    assert np.array_equal(got_T, T)
    assert np.array_equal(got_est, est)
    dense_tv = 0.5 * np.abs(scatter(T, est, k) - targets).sum(axis=1)
    assert np.array_equal(harness._cell_errors(cell, seeds), dense_tv)
    if scheme.startswith("hr"):
        dense_raw = hr_decode_raw(hr_draw_fractions(targets, cell.n, cell.param, keys), cell.param, k)
        assert np.array_equal(T, top_s_indices(dense_raw, width))
        assert np.array_equal(raw, np.take_along_axis(dense_raw, T, axis=1))
    if scheme == "hr_dense":
        assert np.array_equal(T, np.broadcast_to(np.arange(k), (B, k)))


# hr_dense and hr_sparse decode shared fractions; ell=5 lies above the
# effective_ell cap at both sparsities (2 at s=2, 3 at s=4), so its cells
# replay the trials of the capped ell.
_GOLDEN_GRIDS = [
    dict(scheme="hr_dense", k=32, s_list=[2, 4], n=2000, epsilon_list=[1.0]),
    dict(scheme="hr_sparse", k=32, s_list=[2, 4], n=2000, epsilon_list=[1.0]),
    dict(scheme="rappor", k=32, s_list=[2, 4], n=2000, epsilon_list=[1.0, 3.0]),
    dict(scheme="comm_hash", k=32, s_list=[2, 4], n=2000, ell_list=[2, 3, 5]),
]
# At these epsilons rappor's 1 - 2q and (1 - q) - q differ in the last bit,
# which moves the TV errors' last digits.
_GOLDEN_RAPPOR_GRIDS = [dict(scheme="rappor", k=32, s_list=[2, 4], n=2000, epsilon_list=[0.3, 0.9, 6.0])]


def test_results_csv_bytes_are_pinned(tmp_path):
    # The exact bytes of tiny grids: a refactor that moves any draw, rounding
    # or row format changes one of these hashes.
    for name, grids in (("golden_every_scheme.csv", _GOLDEN_GRIDS), ("golden_rappor_rounding.csv", _GOLDEN_RAPPOR_GRIDS)):
        out = tmp_path / name
        for grid in grids:
            run_grid(ExperimentConfig(trials=2, master_seed=20240801, **grid), str(out), threads=1)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[name], name


def test_pins_were_made_under_the_current_sampler():
    # a sampler bump moves the results-CSV bytes, so it re-pins tests/pins.py in the same change
    assert SAMPLER_VERSION == harness.SAMPLER_VERSION


def test_grid_draws_each_experiment_once(tmp_path, monkeypatch):
    # At s = 2 the effective_ell cap is 2 and at s = 4 it is 3, so the 8
    # cells are 5 experiments: ell = 2, 3, 4 at s = 2 and ell = 3, 4 at
    # s = 4 each share one. Every (cell hash, trial) is drawn exactly once,
    # fresh and on resume, and the cells of one experiment repeat its errors.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_WORKER_MIN_WORK", 1)
    cfg = ExperimentConfig(scheme="comm_hash", k=32, s_list=[2, 4], n=2000, trials=4, master_seed=9, ell_list=[1, 2, 3, 4])
    two = tmp_path / "two.csv"
    assert run_grid(cfg, str(two), threads=2) == 32
    drawn = []
    real_run_stack = harness._run_stack

    def recording_run_stack(cell, targets, keys):
        drawn.extend((cell_hash(cell), key) for key in keys)
        return real_run_stack(cell, targets, keys)

    monkeypatch.setattr(harness, "_run_stack", recording_run_stack)
    # one worker: a recorder in a forked worker could not report back
    out = tmp_path / "res.csv"
    assert run_grid(cfg, str(out), threads=1) == 32
    assert out.read_bytes() == two.read_bytes()
    experiments = {cell_hash(cell) for cell in config_cells(cfg)}
    assert len(experiments) == 5
    assert len(drawn) == len(set(drawn)) == 5 * 4
    assert {h for h, _ in drawn} == experiments
    errors = {}
    for row in read_results(str(out)):
        assert errors.setdefault((cell_hash(row["cell"]), row["trial"]), row["tv_error"]) == row["tv_error"]

    # the members of the s = 2, ell >= 2 experiment lack different trials
    missing = {("2", "2", "0"), ("2", "3", "1"), ("2", "3", "2"), ("2", "4", "2"), ("4", "1", "3")}
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(line for line in lines if tuple(line.split(",")[i] for i in (2, 4, 5)) not in missing))
    drawn.clear()
    assert run_grid(cfg, str(out), threads=1) == 5
    assert sorted(out.read_text().splitlines()) == sorted(two.read_text().splitlines())
    capped = cell_hash(Cell("comm_hash", 32, 2, 2000, 2))
    assert len(drawn) == len(set(drawn)) == 4
    assert sorted(h for h, _ in drawn) == sorted([capped] * 3 + [cell_hash(Cell("comm_hash", 32, 4, 2000, 1))])


# At s = 2 the cells ell = 2, 3, 4 share the capped cell's hash, so they are one run.
_CAPPED_GRID = dict(scheme="comm_hash", k=32, s_list=[2, 4], n=2000, trials=4, master_seed=9, ell_list=[1, 2, 3, 4])


def _cut_results(path, missing):
    """A complete _CAPPED_GRID results file at path, less the rows whose (s, ell, trial) text is in missing."""
    run_grid(ExperimentConfig(**_CAPPED_GRID), str(path), threads=1)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if tuple(line.split(",")[i] for i in (2, 4, 5)) not in missing))


def test_plan_runs_is_what_run_grid_draws(tmp_path, monkeypatch):
    # The run of ell = 2, 3, 4 at s = 2 resumes with members that lack
    # different trials, as CI's cut of desk_grid does.
    cfg = ExperimentConfig(**_CAPPED_GRID)
    out = tmp_path / "res.csv"
    _cut_results(out, {("2", "2", "0"), ("2", "3", "1"), ("2", "3", "2"), ("2", "4", "2"), ("4", "1", "3")})

    def refuse(*args, **kwargs):
        raise AssertionError("plan_runs opened a file or forked")

    rows = read_results(str(out))
    with monkeypatch.context() as patch:
        patch.setattr(harness, "open", refuse, raising=False)
        patch.setattr(harness.os, "fork", refuse)
        plan = harness.plan_runs(cfg, rows)
    ell = {param: Cell("comm_hash", 32, 2, 2000, param) for param in (2, 3, 4)}
    s4 = Cell("comm_hash", 32, 4, 2000, 1)
    assert plan == [
        harness.Run([(ell[2], [0]), (ell[3], [1, 2]), (ell[4], [2])], [0, 1, 2], trial_seeds(9, ell[2], [0, 1, 2])),
        harness.Run([(s4, [3])], [3], trial_seeds(9, s4, [3])),
    ]

    handed = []
    real_group_rows = harness._group_rows

    def recording_group_rows(members, trials, seeds):
        handed.append(harness.Run(members, trials, seeds))
        return real_group_rows(members, trials, seeds)

    monkeypatch.setattr(harness, "_group_rows", recording_group_rows)
    # one worker: a recorder in a forked worker could not report back
    assert run_grid(cfg, str(out), threads=1) == 5
    assert handed == plan
    assert harness.plan_runs(cfg, read_results(str(out))) == []


def test_plan_runs_names_the_row_of_another_master_seed(tmp_path):
    # run_grid gives plan_runs' message, prefixed with the file's path
    out = tmp_path / "res.csv"
    _cut_results(out, set())
    cfg = ExperimentConfig(**{**_CAPPED_GRID, "master_seed": 10})
    first = Cell("comm_hash", 32, 2, 2000, 1)
    message = (
        f"row (comm_hash, s=2, 1, trial 0) has seed {trial_seed(9, first, 0)}, but master seed 10 gives "
        f"{trial_seed(10, first, 0)}; resume with the master seed the file was written with, or use a new file"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        harness.plan_runs(cfg, read_results(str(out)))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{out}: {message}')}$"):
        run_grid(cfg, str(out), threads=1)


def test_run_grid_writes_one_plan_at_any_worker_count(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_WORKER_MIN_WORK", 1)
    handed = {}
    real_write_cells = harness._write_cells

    def recording_write_cells(fh, runs, workers):
        handed[workers] = runs
        real_write_cells(fh, runs, workers)

    monkeypatch.setattr(harness, "_write_cells", recording_write_cells)
    cfg = ExperimentConfig(**_CAPPED_GRID)
    seen = {}
    for threads in (1, 2):
        out = tmp_path / f"w{threads}.csv"
        _cut_results(out, {("2", "3", "1"), ("2", "4", "2"), ("4", "2", "0"), ("4", "4", "3")})
        handed.clear()
        assert run_grid(cfg, str(out), threads=threads) == 4
        assert list(handed) == [threads]  # threads workers ran the plan
        seen[threads] = handed[threads], out.read_bytes()
    assert seen[1] == seen[2]
    assert len(seen[1][0]) == 3  # s = 2's capped run, then s = 4's ell = 2 and its capped run


# The first rows of the every_scheme golden file as sampler 2 wrote it
# (_GOLDEN_GRIDS, trials=2, master_seed=20240801).
_SAMPLER_2_LINES = """scheme,k,s,n,eps_or_ell,trial,tv_error,bits_per_user,seed
hr_dense,32,2,2000,1.0,0,0.11602578525082294,1,5949921950387428460
hr_dense,32,2,2000,1.0,1,0.13477845962455987,1,6650888082261510903
comm_hash,32,2,2000,2,0,0.028444444444444484,2,4287507675337903149
"""


def test_sampler_2_file_is_refused(tmp_path, capsys):
    # Its rows hold other draws under the same seeds: run refuses to extend
    # the file and summarize to read it, each with one line and status 2.
    out = tmp_path / "old.csv"
    out.write_text(_SAMPLER_2_LINES)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_GOLDEN_GRIDS[0], trials=2, master_seed=20240801)))
    message = f"{out}: the file holds sampler 2 rows, and this version draws with sampler 3, whose trials differ; start a new results file"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert _cli_error(capsys) == message
    assert main(["summarize", "--in", str(out), "--out", str(tmp_path / "summary.json")]) == 2
    assert _cli_error(capsys) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        read_results(str(out))
    assert out.read_text() == _SAMPLER_2_LINES
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "old.csv"]


def test_run_cell_in_threads_matches_serial():
    # Every thread re-keys its own generator: a cell of each scheme, all run
    # at once with thread switches forced often, gives the rows of a serial run.
    cells = [config_cells(ExperimentConfig(trials=1, master_seed=5, **grid))[-1] for grid in _GOLDEN_GRIDS]
    serial = [run_cell(cell, [0, 1, 2], 5).tolist() for cell in cells]
    rounds = 20
    got = [[] for _ in cells]
    start = threading.Barrier(len(cells))

    def work(i):
        start.wait()
        for _ in range(rounds):
            got[i].append(run_cell(cells[i], [0, 1, 2], 5).tolist())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cells))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[rows] * rounds for rows in serial]


def test_grid_builds_one_philox_per_thread(tmp_path, monkeypatch):
    # The run path re-keys one generator per thread; a Philox (and so a
    # Generator) built per trial or per stream would show here.
    built = []
    real_philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(threading.get_ident())
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    out = tmp_path / "res.csv"

    def run():
        for grid in _GOLDEN_GRIDS:
            run_grid(ExperimentConfig(trials=2, master_seed=20240801, **grid), str(out), threads=1)

    thread = threading.Thread(target=run)  # a fresh thread holds no generator yet
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS["golden_every_scheme.csv"]
    assert built == [thread.ident]


def test_grid_thread_count_invariance(tmp_path, monkeypatch):
    # 8 cells over 4 workers: each forked worker runs two cells, striped.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(harness, "_WORKER_MIN_WORK", 1)
    cfg = tiny_config(trials=2, s_list=[1, 2, 3, 4])
    outs = {}
    for workers in (1, 2, 4):
        outs[workers] = tmp_path / f"w{workers}.csv"
        assert run_grid(cfg, str(outs[workers]), threads=workers) == 16
    assert outs[1].read_bytes() == outs[2].read_bytes() == outs[4].read_bytes()


def test_worker_count_is_capped():
    ample = 10**9  # symbol-trials: enough work for any worker count below
    assert harness._worker_count(1, 40, 2, ample) == 1
    assert harness._worker_count(2, 40, 2, ample) == 2
    assert harness._worker_count(100000, 40, 2, ample) == 2
    assert harness._worker_count(100000, 3, 64, ample) == 3
    assert harness._worker_count(8, 0, 2, 0) == 1  # nothing pending
    assert harness._worker_count(0, 40, 2, ample) == 1
    assert harness._worker_count(-3, 40, 2, ample) == 1
    # work = cells x trials x k: the desk grids (k=1000, 20 trials) fork,
    # the message_paths grids (k=1000, 4 cells of 4 trials or of 1) do not
    assert harness._worker_count(2, 16, 2, 16 * 20 * 1000) == 2
    assert harness._worker_count(2, 40, 2, 40 * 20 * 1000) == 2
    assert harness._worker_count(2, 4, 2, 4 * 4 * 1000) == 1
    assert harness._worker_count(2, 4, 2, 4 * 1 * 1000) == 1
    assert harness._worker_count(8, 40, 8, 3 * harness._WORKER_MIN_WORK) == 3


def test_grid_work_is_pending_trials_times_k(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(harness, "_worker_count", lambda threads, cells, cpus, work: seen.append((cells, work)) or 1)
    cfg = tiny_config()  # 4 cells of 3 trials at k=32
    out = tmp_path / "res.csv"
    run_grid(cfg, str(out), threads=2)
    # keep the header, the first cell and one trial of the second
    out.write_text("\n".join(out.read_text().split("\n")[:5]) + "\n")
    run_grid(cfg, str(out), threads=2)
    assert seen == [(4, 12 * 32), (3, 8 * 32)]


def test_small_grid_runs_in_process(tmp_path, monkeypatch):
    cfg = tiny_config()
    one = tmp_path / "one.csv"
    run_grid(cfg, str(one), threads=1)

    def no_fork():
        raise AssertionError("a small grid forked a worker")

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness.os, "fork", no_fork)
    two = tmp_path / "two.csv"
    assert run_grid(cfg, str(two), threads=2) == 12
    assert two.read_bytes() == one.read_bytes()


def test_no_fork_means_one_worker(monkeypatch):
    assert harness._usable_cpus() >= 1
    monkeypatch.delattr(harness.os, "fork")
    assert harness._usable_cpus() == 1


def _fail_in_worker(monkeypatch, target, fail):
    """Make target's trials call fail() in place of the scheme; target must run in a forked worker."""
    parent = os.getpid()
    real_run_stack = harness._run_stack

    def run_stack(cell, targets, keys):
        if cell == target:
            assert os.getpid() != parent, "the cell ran in the calling process"
            fail()
        return real_run_stack(cell, targets, keys)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_WORKER_MIN_WORK", 1)
    monkeypatch.setattr(harness, "_run_stack", run_stack)


def _assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rows_before_cell(full: bytes, cells_before: int, trials: int) -> bytes:
    return b"".join(full.splitlines(keepends=True)[: 1 + cells_before * trials])


def test_worker_error_names_cell(tmp_path, monkeypatch):
    cfg = tiny_config()
    fresh = tmp_path / "fresh.csv"
    run_grid(cfg, str(fresh), threads=1)
    target = config_cells(cfg)[3]  # worker 1 of 2 runs cells 1 and 3

    def fail():
        raise ValueError("no estimate")

    _fail_in_worker(monkeypatch, target, fail)
    out = tmp_path / "res.csv"
    with pytest.raises(ValueError, match=re.escape(f"cell {target}: no estimate")):
        run_grid(cfg, str(out), threads=2)
    assert out.read_bytes() == _rows_before_cell(fresh.read_bytes(), 3, cfg.trials)
    _assert_no_child_processes()


def test_killed_worker_leaves_resumable_csv(tmp_path, monkeypatch):
    cfg = tiny_config()
    fresh = tmp_path / "fresh.csv"
    run_grid(cfg, str(fresh), threads=1)
    full = fresh.read_bytes()
    target = config_cells(cfg)[3]
    _fail_in_worker(monkeypatch, target, lambda: os.kill(os.getpid(), signal.SIGKILL))
    out = tmp_path / "res.csv"
    with pytest.raises(RuntimeError, match=re.escape(f"cell {target}: worker process ") + r"\d+ was killed by SIGKILL"):
        run_grid(cfg, str(out), threads=2)
    # whole rows of the cells before the killed one, in grid order
    assert out.read_bytes() == _rows_before_cell(full, 3, cfg.trials)
    _assert_no_child_processes()
    monkeypatch.undo()
    assert run_grid(cfg, str(out), threads=2) == cfg.trials
    assert out.read_bytes() == full


@pytest.mark.parametrize("cut", ["extra", "short"])
def test_read_results_rejects_row_of_wrong_width(tmp_path, cut):
    cfg = tiny_config(trials=1)
    out = tmp_path / "res.csv"
    run_grid(cfg, str(out), threads=1)
    lines = out.read_text().splitlines()
    lines[2] = lines[2] + ",0" if cut == "extra" else ",".join(lines[2].split(",")[:3])
    out.write_text("\n".join(lines) + "\n")
    width = 11 if cut == "extra" else 3
    with pytest.raises(ValueError, match=re.escape(f"{out}: line 3 has {width} fields, not the header's 10")):
        read_results(str(out))


_NO_CELL = "names no cell a grid can hold: "


@pytest.mark.parametrize(
    "field, at, text, kind",
    [
        ("seed", 8, "abc", "an integer"),
        ("k", 1, "32.0", "an integer"),
        ("tv_error", 6, "x", "a number"),
        ("tv_error", 6, "nan", "a number in [0, 1]"),
        ("tv_error", 6, "inf", "a number in [0, 1]"),
        ("tv_error", 6, "1.5", "a number in [0, 1]"),
        ("eps_or_ell", 4, "nan", "a finite number"),
        ("eps_or_ell", 4, "-inf", "a finite number"),
        ("sampler", 9, "2", "3, the sampler this version draws with"),
        # a row that names no cell a grid can hold would count as a trial of
        # its own; the config's message gives the reason, and each id names
        # what the field must hold
        pytest.param(
            "scheme",
            0,
            "hr_sparsee",
            _NO_CELL + "unknown scheme 'hr_sparsee'",
            id="scheme-0-hr_sparsee-one of hr_dense, hr_sparse, rappor, comm_hash",
        ),
        pytest.param("k", 1, "0", _NO_CELL + "require 1 <= s <= k (got s=2, k=0)", id="k-1-0-an integer >= 1"),
        pytest.param("s", 2, "-2", _NO_CELL + "require 1 <= s <= k (got s=-2, k=32)", id="s-2--2-an integer >= 1"),
        pytest.param("n", 3, "0", _NO_CELL + "n=0 is below the block size K=64 of k=32: HR needs n >= K", id="n-3-0-an integer >= 1"),
        ("s", 2, "40", _NO_CELL + "require 1 <= s <= k (got s=40, k=32)"),
        ("eps_or_ell", 4, "-1.0", _NO_CELL + "epsilon must be positive, got -1.0"),
        ("n", 3, "50", _NO_CELL + "n=50 is below the block size K=64 of k=32: HR needs n >= K"),
        # a text with commas replaces that many fields from at on, the last of
        # them the field named; a row's ell is read as an integer, as its k is
        ("eps_or_ell", 0, "comm_hash,32,2,2000,2.5", "an integer"),
        ("eps_or_ell", 0, "comm_hash,32,2,2000,3.0", "an integer"),
        ("bits_per_user", 7, "7", "1, the bits a user sends in this cell"),
        # int() reads these as 32, and the trial of k = 32 would count as done
        ("k", 1, "3_2", "an integer"),
        ("k", 1, " 32", "an integer"),
        ("k", 1, "+32", "an integer"),
        ("trial", 5, "-1", "an integer >= 0"),
        ("seed", 8, "-1", "an integer in [0, 2^64)"),
        ("seed", 8, str(2**64), "an integer in [0, 2^64)"),
    ],
)
def test_row_with_unparsable_field_is_an_error(tmp_path, field, at, text, kind):
    # read_results and a resuming run_grid name the path, line and field
    # (or the reason the row names no cell), and the resume writes nothing;
    # a NaN TV would otherwise count its trial done and make its cell's mean NaN
    cfg = tiny_config(trials=1)
    out = tmp_path / "res.csv"
    run_grid(cfg, str(out), threads=1)
    lines = out.read_text().splitlines()
    parts = lines[2].split(",")
    parts[at : at + text.count(",") + 1] = text.split(",")
    lines[2] = ",".join(parts)
    out.write_text("\n".join(lines) + "\n")
    before = out.read_bytes()
    reason = kind if kind.startswith(_NO_CELL) else f"field {field} is {text.split(',')[-1]!r}, not {kind}"
    message = re.escape(f"{out}: line 3 {reason}")
    with pytest.raises(ValueError, match=message):
        read_results(str(out))
    with pytest.raises(ValueError, match=message):
        run_grid(dataclasses.replace(cfg, trials=2), str(out), threads=1)
    assert out.read_bytes() == before


def test_repeated_row_is_an_error(tmp_path):
    # A repeated (cell, trial) row would count as another trial in a summary
    # and mark its cell done on resume; read_results and a resuming run_grid
    # name the path and both lines, and the resume writes nothing.
    cfg = ExperimentConfig(scheme="comm_hash", k=32, s_list=[2], n=2000, trials=3, master_seed=7, ell_list=[1])
    out = tmp_path / "res.csv"
    run_grid(cfg, str(out), threads=1)
    rows = out.read_text().splitlines()[1:]
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    before = out.read_bytes()
    message = re.escape(f"{out}: line 5 repeats the (cell, trial) of line 2")
    with pytest.raises(ValueError, match=message):
        read_results(str(out))
    with pytest.raises(ValueError, match=message):
        run_grid(dataclasses.replace(cfg, trials=4), str(out), threads=1)
    assert out.read_bytes() == before


def test_rows_are_keyed_by_param_value_not_text(tmp_path):
    # A row whose epsilon reads 0.50, not the 0.5 the harness writes, records
    # the same cell: a resume counts it done, a repeat of it in another
    # spelling is an error, and the summary is the one of the written file.
    cfg = ExperimentConfig(scheme="rappor", k=16, s_list=[1], n=400, trials=2, master_seed=1, epsilon_list=[0.5])
    out = tmp_path / "res.csv"
    run_grid(cfg, str(out), threads=1)
    written = out.read_text()
    respelled = tmp_path / "respelled.csv"
    respelled.write_text(written.replace(",0.5,", ",0.50,"))
    assert respelled.read_text().count(",0.50,") == 2
    before = respelled.read_bytes()
    assert run_grid(cfg, str(respelled), threads=1) == 0
    assert respelled.read_bytes() == before
    cells = summarize(read_results(str(respelled)))
    assert cells == summarize(read_results(str(out)))
    assert [(c["eps_or_ell"], c["trials"]) for c in cells] == [("0.5", 2)]
    mixed = tmp_path / "mixed.csv"
    mixed.write_text(written + written.splitlines()[1].replace(",0.5,", ",0.50,") + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{mixed}: line 4 repeats the (cell, trial) of line 2")):
        read_results(str(mixed))


def test_read_results_validates_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_results(str(bad))


@pytest.mark.parametrize("content", [None, b"", CSV_HEADER.encode() + b"\n"], ids=["missing", "empty", "header_only"])
def test_read_results_refuses_file_without_rows(tmp_path, content):
    path = tmp_path / "res.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises((ValueError, FileNotFoundError), match=re.escape(str(path))):
        read_results(str(path))


# ------------------------------------------------------------------ summaries


def test_summarize_single_trial_degenerate():
    rows = [
        dict(cell=Cell("rappor", 8, 1, 100, 1.0), tv_error=0.25),
    ]
    cells = summarize(rows)
    assert cells[0]["mean_tv_error"] == 0.25
    assert cells[0]["stderr"] == 0.0
    assert cells[0]["degenerate"]


def test_summarize_constant_column():
    rows = [
        dict(cell=Cell("rappor", 8, 1, 100, 1.0), tv_error=0.3)
        for _ in range(5)
    ]
    cells = summarize(rows)
    assert cells[0]["stderr"] == 0.0
    assert not cells[0]["degenerate"]


def test_summarize_hand_recomputation():
    # 12-row fixture over two cells with values whose means are exact.
    rows = []
    for s, vals in ((1, [0.1, 0.2, 0.3, 0.1, 0.2, 0.3]), (2, [0.4, 0.6, 0.5, 0.5, 0.4, 0.6])):
        for t, v in enumerate(vals):
            rows.append(
                dict(cell=Cell("hr_sparse", 16, s, 500, 1.0), tv_error=v)
            )
    cells = summarize(rows)
    assert len(cells) == 2
    by_s = {c["s"]: c for c in cells}
    assert by_s[1]["mean_tv_error"] == pytest.approx(0.2, abs=1e-15)
    assert by_s[2]["mean_tv_error"] == pytest.approx(0.5, abs=1e-15)
    # stderr oracle: std with ddof=1 over sqrt(6)
    want = np.std([0.1, 0.2, 0.3, 0.1, 0.2, 0.3], ddof=1) / np.sqrt(6)
    assert by_s[1]["stderr"] == pytest.approx(want, rel=1e-12)
    assert by_s[1]["trials"] == 6


def test_summary_files(tmp_path):
    rows = [dict(cell=Cell("rappor", 8, 1, 100, 1.0), tv_error=0.25)]
    jp, cp = tmp_path / "s.json", tmp_path / "s.csv"
    write_summary(summarize(rows), str(jp), str(cp))
    loaded = json.loads(jp.read_text())
    assert loaded["cells"][0]["mean_tv_error"] == 0.25
    header = cp.read_text().splitlines()[0]
    assert header == "scheme,k,n,eps_or_ell,s,mean_tv_error,stderr,trials"


def test_summary_sorts_eps_numerically():
    rows = []
    for eps in (0.5, 2.0, 10.0):
        rows.append(dict(cell=Cell("rappor", 8, 1, 100, eps), tv_error=0.1))
    order = [c["eps_or_ell"] for c in summarize(rows)]
    assert order == ["0.5", "2.0", "10.0"]


# ------------------------------------------------------------------- planning


def test_plan_report_notes_capped_ell():
    text = plan_report("comm", 1000, 4, 0.2, 5)
    assert "capped" in text
    assert "effective ell = 3" in text
    flat = plan_report("comm", 1000, 8, 0.2, 3)
    assert "capped" not in flat


def test_plan_report_ldp():
    text = plan_report("ldp", 1000, 8, 0.2, 1.0)
    assert "planned n = 66189604" in text
    with pytest.raises(ValueError):
        plan_report("bogus", 10, 1, 0.5, 1.0)


# ------------------------------------------------------------------------ CLI


def test_cli_run_summarize_plan(tmp_path, capsys):
    cfg = dict(
        scheme="rappor",
        k=16,
        s_list=[1, 2],
        n=400,
        trials=2,
        master_seed=3,
        epsilon_list=[1.0],
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "res.csv"

    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.exists()
    assert "4 new rows" in capsys.readouterr().out

    summ = tmp_path / "summary.json"
    assert main(["summarize", "--in", str(out), "--out", str(summ)]) == 0
    assert summ.exists()
    assert (tmp_path / "summary.csv").exists()

    assert main(["plan", "--scheme", "comm", "--k", "100", "--s", "2", "--alpha", "0.3", "--ell", "2"]) == 0
    assert "planned n" in capsys.readouterr().out

    assert main(["plan", "--scheme", "ldp", "--k", "100", "--s", "2", "--alpha", "0.3", "--eps", "1.0"]) == 0


@pytest.mark.parametrize(
    "argv, stdout, sha256",
    [
        pytest.param(
            "--scheme comm --k 1000 --s 4 --alpha 0.2 --ell 5",
            "scheme comm_hash: k=1000 s=4 alpha=0.2 ell=5\n"
            "planned n = 773004530 (per half: support stage 386502265, estimation stage 640000)\n"
            "effective ell = 3 (capped from 5: more buckets than ~2s buy nothing)\n"
            "guarantee at planned n: TV error <= 0.2 with probability >= 0.9\n",
            PINS["plan_comm.stdout"],
            id="comm-capped-ell",
        ),
        pytest.param(
            "--scheme ldp --k 1000 --s 8 --alpha 0.2 --eps 1.0",
            "scheme hr (ldp): k=1000 s=8 alpha=0.2 epsilon=1.0\n"
            "planned n = 66189604\n"
            "risk bound at planned n: 0.2 (target alpha = 0.2)\n",
            PINS["plan_ldp.stdout"],
            id="ldp",
        ),
    ],
)
def test_cli_plan_stdout_is_pinned(capsys, argv, stdout, sha256):
    # CI checks the installed console script's stdout against the same pin
    assert main(["plan", *argv.split()]) == 0
    out = capsys.readouterr().out
    assert out == stdout
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_cli_seed_overrides_config_master_seed(tmp_path):
    grid = dict(scheme="rappor", k=16, s_list=[1, 2], n=400, trials=2, epsilon_list=[1.0])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(grid, master_seed=3)))
    out = tmp_path / "seed5.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "5"]) == 0
    want = tmp_path / "config5.csv"
    run_grid(ExperimentConfig(master_seed=5, **grid), str(want), threads=1)
    assert out.read_bytes() == want.read_bytes()


def test_cli_verify_bounds(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    assert main(["verify-bounds", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 13
    assert all(r["satisfied"] for r in reports)
    assert "[ok]" in capsys.readouterr().err


@pytest.mark.parametrize("seed, sha256", [(seed, PINS[f"verify_bounds_seed{seed}.json"]) for seed in (0, 5)])
def test_verify_bounds_report_bytes_are_pinned(tmp_path, seed, sha256):
    # The random l-bit channels are drawn from keyed streams; a change in how
    # they are keyed or drawn moves these bytes.
    out = tmp_path / "bounds.json"
    assert main(["verify-bounds", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def _cli_error(capsys) -> str:
    """The one line a rejected input leaves on stderr, without its prefix."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sparse-dist-lab: error: "), lines
    return lines[0][len("sparse-dist-lab: error: ") :]


def test_cli_plan_rejects_epsilon_whose_exponential_overflows(capsys):
    assert main(["plan", "--scheme", "ldp", "--k", "1000", "--s", "8", "--alpha", "0.2", "--eps", "800"]) == 2
    assert re.search(r"epsilon=800.0 is too large", _cli_error(capsys))


def test_cli_plan_rejects_epsilon_whose_exponential_rounds_to_one(capsys):
    assert main(["plan", "--scheme", "ldp", "--k", "1000", "--s", "8", "--alpha", "0.2", "--eps", "1e-17"]) == 2
    assert re.search(r"epsilon=1e-17 is too small: e\^epsilon rounds to 1", _cli_error(capsys))


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(scheme="rappor", k=16)))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert "missing config fields" in _cli_error(capsys)
    assert not (tmp_path / "x.csv").exists()


_RAPPOR = dict(scheme="rappor", k=16, s_list=[1], n=400, trials=1, master_seed=3, epsilon_list=[1.0])


@pytest.mark.parametrize(
    "case, message",
    [
        ("config", "epsilon=2000.0 is too large"),
        ("huge_n", "n=18446744073709551616 is too large"),
        ("json", "Expecting property name enclosed in double quotes"),
        ("plan", "require 1 <= s <= k (got s=20, k=10)"),
        ("plan_alpha", "alpha must lie in (0, 1), got 2.0"),
        ("plan_huge_eps", "epsilon=1000.0 is too large: e^epsilon overflows a float"),
        ("plan_without_eps", "--scheme ldp needs --eps"),
        ("plan_tiny_alpha_ldp", "alpha=1e-300 is too small"),
        ("plan_tiny_alpha_comm", "alpha=1e-170 is too small"),
        ("torn_results", "the last line has no newline"),
        ("seed_negative", "master_seed=-1 is outside [0, 2^64)"),
        ("seed_too_large", "master_seed=18446744073709551616 is outside [0, 2^64)"),
        ("verify_bounds_seed_negative", "master_seed=-1 is outside [0, 2^64)"),
        ("verify_bounds_seed_too_large", "master_seed=18446744073709551616 is outside [0, 2^64)"),
    ],
)
def test_cli_rejection_is_one_line_and_status_2(tmp_path, capsys, case, message):
    cfg = tmp_path / "cfg.json"
    configs = {
        "config": dict(_RAPPOR, epsilon_list=[2000.0]),
        "huge_n": dict(scheme="comm_hash", k=16, s_list=[1], n=2**64, trials=1, master_seed=3, ell_list=[1]),
        "seed_negative": _RAPPOR,
        "seed_too_large": _RAPPOR,
    }
    cfg.write_text(json.dumps(configs[case]) if case in configs else "{")
    res = tmp_path / "res.csv"
    res.write_text(CSV_HEADER + "\nrappor,16,1,400,1.0,0,0.5")
    argv = {
        "config": ["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
        "huge_n": ["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
        "json": ["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
        "plan": ["plan", "--scheme", "comm", "--k", "10", "--s", "20", "--alpha", "0.1", "--ell", "2"],
        "plan_alpha": ["plan", "--scheme", "ldp", "--k", "1000", "--s", "8", "--alpha", "2", "--eps", "1.0"],
        "plan_huge_eps": ["plan", "--scheme", "ldp", "--k", "1000", "--s", "8", "--alpha", "0.2", "--eps", "1000"],
        "plan_without_eps": ["plan", "--scheme", "ldp", "--k", "10", "--s", "2", "--alpha", "0.1", "--ell", "2"],
        "plan_tiny_alpha_ldp": ["plan", "--scheme", "ldp", "--k", "1000", "--s", "8", "--eps", "1", "--alpha", "1e-300"],
        "plan_tiny_alpha_comm": ["plan", "--scheme", "comm", "--k", "1000", "--s", "8", "--ell", "3", "--alpha", "1e-170"],
        "torn_results": ["summarize", "--in", str(res), "--out", str(tmp_path / "summary.json")],
        "seed_negative": ["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--seed", "-1"],
        "seed_too_large": ["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--seed", str(2**64)],
        "verify_bounds_seed_negative": ["verify-bounds", "--seed", "-1", "--out", str(tmp_path / "r.json")],
        "verify_bounds_seed_too_large": ["verify-bounds", "--seed", str(2**64), "--out", str(tmp_path / "r.json")],
    }[case]
    assert main(argv) == 2
    assert message in _cli_error(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "res.csv"]


@pytest.mark.parametrize(
    "infile, out, link",
    [("res.csv", "res", None), ("res.json", "res.json", None), ("res.csv", "summary", "summary.csv")],
    ids=["csv_path", "json_path", "link_to_input"],
)
def test_cli_summarize_refuses_to_write_over_its_input(tmp_path, capsys, infile, out, link):
    # the summary's CSV or JSON path is the results file, by name or by a link
    results = tmp_path / infile
    run_grid(tiny_config(), str(results), threads=1)
    before = results.read_bytes()
    if link:
        os.symlink(results, tmp_path / link)
    assert main(["summarize", "--in", str(results), "--out", str(tmp_path / out)]) == 2
    assert "over the input" in _cli_error(capsys)
    assert results.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(filter(None, [infile, link]))


def test_cli_keeps_the_traceback_of_other_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x.csv")])


def test_cli_checks_every_output_path_before_running(tmp_path, capsys):
    first = tmp_path / "first.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([dict(_RAPPOR, out=str(first)), _RAPPOR]))
    assert main(["run", "--config", str(cfg)]) == 2
    assert _cli_error(capsys).startswith("no output path for grid 2")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
