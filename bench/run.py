"""The lab's benchmark: grid workloads through ``harness.run_grid``.

Run from the repository root::

    python3 bench/run.py --workload desk --seed 20240801 --seconds 60 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

With ``--trace 0`` a run makes an untimed warm-up at two threads
(``min(2, nproc)``) over one cell of each grid, then repeats whole rounds
until the next one would end past ``--seconds`` (at least one round). A
round runs each of the workload's grids at two threads and then at one
thread, grid by grid, into two fresh CSVs, so both rates sample the whole
round; then it checks the outputs. It reports the end-to-end metrics:

* ``trials_per_s`` / ``trials_per_s_1t``: trials over the summed grid wall
  time at two threads / one thread, median over rounds;
* ``setup_s``: median over fresh interpreters, three before the warm-up and
  three after each round, of importing the package and building the
  workload's configs, up to the first trial;
* ``peak_rss_mb``: the process's peak resident set after the last round,
  which the two-thread passes set (one-thread passes hold one trial at a
  time and peak lower);
* ``mean_tv_error``: mean TV error over the workload's trials.

With ``--trace 1`` the run makes the warm-up, times one untraced
two-thread pass, then one traced pass with every public function of the
package's layers wrapped (see ``tracer.py``), and reports the per-layer
metrics of ``layers.py``; the tracing overhead is the difference of the two
grid wall times.

Every trial is one operation, and so is each check: every TV error in
[0, 1], the row count, identical CSV bytes across the two passes, a resume
that writes no rows, a summary that agrees with the rows, the
``verification_suite()`` reports (``desk``), and, per cell, the program's
mean TV against the exact-law reference in ``reference.py``. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"

# Set-up probes before the warm-up and after each round, so the median
# samples the host's speed across the whole run, not at one moment.
SETUP_PROBES = 3
END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("trials_per_s_1t", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_tv_error", "TV"),
)


def import_package():
    """Import sparse_dist_lab from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import sparse_dist_lab
    except ImportError as err:
        raise SystemExit(f"cannot import sparse_dist_lab from {SRC}: {err}")
    if not Path(sparse_dist_lab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"sparse_dist_lab was imported from {sparse_dist_lab.__file__}, not from {SRC}")
    return sparse_dist_lab


def pool_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def probe_setup(workload: str, seed: int) -> None:
    """Print the seconds from before the package import to built configs."""
    start = time.perf_counter()
    import_package()
    workloads.build_configs(workload, seed)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of SETUP_PROBES fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def read_rows(path: Path) -> list[list[str]]:
    """Data rows of a results CSV, split on commas (header dropped)."""
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:] if line]


def run_grids(harness, configs, path: Path, threads: int) -> tuple[float, int]:
    """Run every grid into ``path``; return (wall seconds, rows in the file).

    A trial that raises stops run_grid; the rows it wrote still count.
    """
    start = time.perf_counter()
    try:
        for config in configs:
            harness.run_grid(config, str(path), threads=threads)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start, len(read_rows(path))


class Ledger:
    """Operations attempted and failed; a failed check is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0

    def trials(self, attempted: int, completed: int) -> None:
        self.attempted += attempted
        self.failed += attempted - completed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks_failed += 1
            print(f"check failed: {name} {detail}", file=sys.stderr)


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        import_package()
        from sparse_dist_lab import bounds, harness

        self.harness = harness
        self.bounds = bounds
        self.configs = workloads.build_configs(name, seed)
        self.tasks = workloads.task_count(name)
        self.threads = pool_threads()
        self._reference: dict[tuple, dict] = {}

    def after_grid(self, path: Path) -> dict:
        """The post-grid steps: resume, summarize, and (desk) the bound checks.

        A step that raises yields None, which its check counts as a failure.
        """

        def attempt(step):
            try:
                return step()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                return None

        before = path.read_bytes()
        return {
            "resumed": attempt(lambda: sum(self.harness.run_grid(c, str(path), threads=self.threads) for c in self.configs)),
            "unchanged": path.read_bytes() == before,
            "summary": attempt(lambda: self.harness.summarize(self.harness.read_results(str(path)))),
            "reports": attempt(self.bounds.verification_suite) if self.name == "desk" else None,
        }

    def reference(self, key: tuple) -> dict:
        from reference import law_errors

        if key not in self._reference:
            self._reference[key] = law_errors(key, self.seed)
        return self._reference[key]

    def check(self, ledger: Ledger, rows: list[list[str]], same_bytes: bool, after: dict) -> None:
        """Record every output check of one pass as an operation."""
        from reference import compare_cell, law_key

        tvs = [float(r[6]) for r in rows]
        ledger.check("tv_in_unit_interval", all(0.0 <= tv <= 1.0 for tv in tvs))
        ledger.check("row_count", len(rows) == self.tasks, f"{len(rows)} rows, expected {self.tasks}")
        ledger.check("csv_bytes_identical", same_bytes)
        ledger.check("resume_writes_no_rows", after["resumed"] == 0 and after["unchanged"], f"{after['resumed']} rows")

        cells: dict[tuple, list[float]] = defaultdict(list)
        for r, tv in zip(rows, tvs):
            cells[(r[0], int(r[1]), int(r[2]), int(r[3]), r[4])].append(tv)
        summary = {(c["scheme"], c["k"], c["s"], c["n"], c["eps_or_ell"]): c for c in after["summary"] or ()}
        ok = summary.keys() == cells.keys() and all(
            summary[key]["trials"] == len(v) and math.isclose(summary[key]["mean_tv_error"], statistics.fmean(v), abs_tol=1e-12)
            for key, v in cells.items()
        )
        ledger.check("summary_matches_rows", ok)
        if self.name == "desk":
            reports = after["reports"] or []
            bad = [r.context for r in reports if not r.satisfied]
            ledger.check("verification_suite_satisfied", bool(reports) and not bad, str(bad))
        for (scheme, k, s, n, param), program_tv in cells.items():
            reference_tv = self.reference(law_key(scheme, k, s, n, param))[scheme]
            ok, z = compare_cell(program_tv, reference_tv)
            ledger.check("reference_mean_tv", ok, f"{scheme} k={k} s={s} n={n} param={param} z={z:.2f}")


def warm_up(wl: Workload, path: Path) -> None:
    """An untimed two-thread pass over one cell of each grid.

    The first pass in a process runs measurably slower than later ones
    while the allocator's arenas grow; this grows them at a fraction of a
    pass's cost. Its trials are not operations.
    """
    run_grids(wl.harness, workloads.warm_up_configs(wl.name, wl.seed), path, wl.threads)
    path.unlink(missing_ok=True)


def timed_run(name: str, seed: int, seconds: float) -> tuple[Ledger, dict]:
    setup = measure_setup(name, seed)
    wl = Workload(name, seed)
    ledger = Ledger()
    per_round: dict[str, list[float]] = defaultdict(list)
    mean_tv = None
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        start = time.perf_counter()
        warm_up(wl, Path(work, "warm-up.csv"))
        for round_no in range(10**6):
            round_start = time.perf_counter()
            path2 = Path(work, f"round{round_no}-threads{wl.threads}.csv")
            path1 = Path(work, f"round{round_no}-threads1.csv")
            wall2 = wall1 = 0.0
            for config in wl.configs:
                wall2 += run_grids(wl.harness, [config], path2, wl.threads)[0]
                wall1 += run_grids(wl.harness, [config], path1, 1)[0]
            done2, done1 = len(read_rows(path2)), len(read_rows(path1))
            ledger.trials(wl.tasks, done2)
            ledger.trials(wl.tasks, done1)
            per_round["trials_per_s"].append(done2 / wall2)
            per_round["trials_per_s_1t"].append(done1 / wall1)
            print(f"round {round_no}: {done2 / wall2:.4g} trials/s at {wl.threads} threads, "
                  f"{done1 / wall1:.4g} at 1 thread", file=sys.stderr)
            rows = read_rows(path2)
            if mean_tv is None and rows:
                mean_tv = statistics.fmean(float(r[6]) for r in rows)
            wl.check(ledger, rows, path1.read_bytes() == path2.read_bytes(), wl.after_grid(path2))
            setup += measure_setup(name, seed)
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    metrics = {
        "trials_per_s": statistics.median(per_round["trials_per_s"]),
        "trials_per_s_1t": statistics.median(per_round["trials_per_s_1t"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        "mean_tv_error": mean_tv if mean_tv is not None else math.nan,
    }
    return ledger, metrics


def traced_run(name: str, seed: int) -> tuple[Ledger, dict]:
    from layers import layer_metrics
    from tracer import Tracer

    wl = Workload(name, seed)
    ledger = Ledger()
    tracer = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        plain, traced = Path(work, "untraced.csv"), Path(work, "traced.csv")
        warm_up(wl, Path(work, "warm-up.csv"))
        wall_plain, done_plain = run_grids(wl.harness, wl.configs, plain, wl.threads)
        tracer.install()
        try:
            wall_traced, done_traced = run_grids(wl.harness, wl.configs, traced, wl.threads)
            after = wl.after_grid(traced)
        finally:
            tracer.uninstall()
        ledger.trials(wl.tasks, done_plain)
        ledger.trials(wl.tasks, done_traced)
        rows = read_rows(traced)
        wl.check(ledger, rows, plain.read_bytes() == traced.read_bytes(), after)
    tracer.write(str(OUT_DIR / f"spans-{name}-seed{seed}.csv"))
    seeds = [int(r[8]) for r in rows]
    return ledger, layer_metrics(tracer.spans, seeds, wall_traced - wall_plain)


def report(name: str, ledger: Ledger, metrics: dict, units: dict, computed: set) -> dict:
    print(f"workload {name}: attempted {ledger.attempted} operations, failed {ledger.failed}")
    for metric, value in metrics.items():
        note = " (computed)" if metric in computed else ""
        print(f"  {metric:<48} {value:>16.6g} {units[metric]}{note}")
    return {
        "correct": ledger.checks_failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        from layers import PER_LAYER

        ledger, metrics = traced_run(name, seed)
        units = {m: unit for m, unit, _, _ in PER_LAYER}
        computed = {m for m, _, _, is_computed in PER_LAYER if is_computed}
    else:
        ledger, metrics = timed_run(name, seed, seconds)
        units, computed = dict(END_TO_END), set()
    return report(name, ledger, metrics, units, computed)


def run_all(args) -> dict:
    """Every workload in turn, each in its own process so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED, help="master seed of every grid")
    parser.add_argument("--seconds", type=float, default=60.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    import_package()  # fail fast, before any work, when the program is absent
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
