"""The benchmark's workloads: grids handed to ``harness.run_grid``.

Every workload is a list of grid objects in the config-file format, minus
``master_seed``, which comes from the command line. The inputs live here and
not in ``configs/``, so editing the shipped configs cannot change what the
benchmark measures. This module uses only the standard library, so the
set-up probe can import it before the package and NumPy are loaded.
"""

from __future__ import annotations

DEFAULT_SEED = 20240801

WORKLOADS = {
    # A copy of configs/desk_grid.json as it stood when the benchmark was
    # defined: the grid the acceptance tests run.
    "desk": [
        {
            "scheme": "hr_sparse",
            "k": 1000,
            "s_list": [2, 4, 8, 16, 32, 64, 128, 256],
            "n": 300000,
            "trials": 20,
            "epsilon_list": [0.5, 0.9],
        },
        {
            "scheme": "comm_hash",
            "k": 1000,
            "s_list": [2, 4, 8, 16, 32, 64, 128, 256],
            "n": 100000,
            "trials": 20,
            "ell_list": [1, 2, 3, 4, 5],
        },
    ],
    # Materialized per-user messages: max(m1, m2) * k stays at or under
    # COUNTS_PATH_THRESHOLD = 2^25, so rappor builds an m x k bit matrix and
    # comm_hash scans m * k PRF evaluations. No cell replays another.
    "message_paths": [
        {
            "scheme": "rappor",
            "k": 1000,
            "s_list": [4, 32],
            "n": 30000,
            "trials": 4,
            "epsilon_list": [2.0, 4.0],
        },
        {
            "scheme": "comm_hash",
            "k": 1000,
            "s_list": [4, 32],
            "n": 30000,
            "trials": 1,
            "ell_list": [2, 4],
        },
    ],
}


def build_configs(workload: str, seed: int) -> list:
    """The workload's grids as ``ExperimentConfig`` objects with ``master_seed``.

    Imports the package, so the caller must have put ``src/`` on the path.
    """
    return build_configs_from(WORKLOADS[workload], seed)


def build_configs_from(grids: list, seed: int) -> list:
    from sparse_dist_lab.harness import ExperimentConfig

    return [ExperimentConfig.from_dict(dict(grid, master_seed=int(seed))) for grid in grids]


def warm_up_configs(workload: str, seed: int) -> list:
    """The first cell of each grid, two trials each: one trial per pool thread.

    A cell's array sizes depend on k and n, not on s or the privacy
    parameter, so this allocates what a full pass does at a fraction of its
    cost.
    """
    grids = []
    for grid in WORKLOADS[workload]:
        param = "epsilon_list" if "epsilon_list" in grid else "ell_list"
        grids.append(dict(grid, s_list=grid["s_list"][:1], **{param: grid[param][:1]}, trials=2))
    return build_configs_from(grids, seed)


def task_count(workload: str) -> int:
    """Trials in one pass over the workload's grids: cells x trials."""
    total = 0
    for grid in WORKLOADS[workload]:
        params = grid.get("epsilon_list") or grid.get("ell_list")
        total += len(grid["s_list"]) * len(params) * grid["trials"]
    return total
