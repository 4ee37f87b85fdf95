"""Produce plot-ready trend data: error vs sparsity under both constraints.

A scaled-down version of the desk grid (fewer trials, coarser sparsity sweep)
that runs in a few seconds and writes a tidy CSV you can plot directly: one
series per constraint level, x = s, y = mean TV error with a standard-error
column. The full desk grid lives in configs/desk_grid.json and the large
overnight grid in configs/full_grid.json; both run through the same code path
via the sparse-dist-lab CLI.

    python demos/trend_figure_demo.py [OUT_DIR]

writes results.csv, summary.json and summary.csv to OUT_DIR (resuming a
results.csv already there). With no OUT_DIR it works in a temporary
directory and removes it before it exits.
"""

import os
import sys
import tempfile

from sparse_dist_lab.harness import (
    ExperimentConfig,
    read_results,
    run_grid,
    summarize,
    write_summary,
)


def main(out_dir=None):
    if out_dir is None:
        with tempfile.TemporaryDirectory(prefix="trend_demo_") as tmp:
            return main(tmp)
    os.makedirs(out_dir, exist_ok=True)
    results = os.path.join(out_dir, "results.csv")

    grids = [
        ExperimentConfig(
            scheme="hr_sparse",
            k=1000,
            s_list=(2, 8, 32, 128),
            n=300000,
            trials=5,
            master_seed=20240801,
            epsilon_list=(0.5, 0.9),
        ),
        ExperimentConfig(
            scheme="comm_hash",
            k=1000,
            s_list=(2, 8, 32, 128),
            n=100000,
            trials=5,
            master_seed=20240801,
            ell_list=(1, 3, 5),
        ),
    ]
    total = 0
    for cfg in grids:
        total += run_grid(cfg, results, threads=4)
    print(f"ran {total} trials -> {results}")

    cells = summarize(read_results(results))
    json_path = os.path.join(out_dir, "summary.json")
    csv_path = os.path.join(out_dir, "summary.csv")
    write_summary(cells, json_path, csv_path)

    print(f"plot-ready summary -> {csv_path}\n")
    print(f"{'scheme':<10} {'eps/ell':>7} {'s':>4} {'mean TV':>9} {'stderr':>9}")
    for c in cells:
        print(
            f"{c['scheme']:<10} {c['eps_or_ell']:>7} {c['s']:>4} "
            f"{c['mean_tv_error']:>9.4f} {c['stderr']:>9.4f}"
        )
    print("\nread the table as the two figure panels: error grows with s,")
    print("shrinks with either more privacy budget (eps) or more bits (ell).")


if __name__ == "__main__":
    main(*sys.argv[1:2])
