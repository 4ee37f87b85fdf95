"""Command-line front end: run experiment grids, summarize results, plan
sample sizes, and run the lower-bound verification suite.

    sparse-dist-lab run --config configs/desk_grid.json --out results.csv
    sparse-dist-lab summarize --in results.csv --out summary.json
    sparse-dist-lab plan --scheme comm --k 1000 --s 8 --alpha 0.2 --ell 3
    sparse-dist-lab verify-bounds --out reports.json

--threads N runs a grid's distinct experiments (cells that share a cell
hash, such as comm_hash cells past the effective_ell cap, are one
experiment, run once) on up to N worker processes (N - 1 forked children;
POSIX only), capped at the pending experiments, the CPUs and the grid's
work (drawn trials x k), so a small grid runs in-process whatever N is; N
below 1 means one worker. Rows are written in grid order whatever N is.
A results file written by an older sampler (see harness.SAMPLER_VERSION)
is refused by run and summarize alike; start a new file.
--seed S runs every grid of the config with master_seed S, as if the config
said so.

A rejected input (a config, results file or parameter the package refuses
with a ValueError) prints one line, "sparse-dist-lab: error: <message>", on
stderr and exits with status 2, as a usage error does; any other exception
keeps its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import bounds, harness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparse-dist-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run (or resume) an experiment grid from a JSON config")
    run.add_argument("--config", required=True, help="JSON config: one grid object or a list")
    run.add_argument("--out", default=None, help="results CSV (overrides the config's own 'out')")
    run.add_argument(
        "--threads",
        type=int,
        default=1,
        help=f"worker processes, forked, over distinct experiments; a grid that draws under "
        f"{2 * harness._WORKER_MIN_WORK:,} trials x k runs in-process, and a value below 1 means one worker",
    )
    run.add_argument("--seed", type=int, default=None, help="override every grid's master_seed")

    summ = sub.add_parser("summarize", help="aggregate a results CSV into per-cell statistics")
    summ.add_argument("--in", dest="infile", required=True, help="results CSV from 'run'")
    summ.add_argument("--out", required=True, help="summary JSON path (a plot-ready CSV lands beside it); neither may be the --in file")

    plan = sub.add_parser("plan", help="print the planned sample size for one problem instance")
    plan.add_argument("--scheme", required=True, choices=("ldp", "comm"))
    plan.add_argument("--k", type=int, required=True)
    plan.add_argument("--s", type=int, required=True)
    plan.add_argument("--alpha", type=float, required=True)
    group = plan.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", type=float, default=None)
    group.add_argument("--ell", type=int, default=None)

    verify = sub.add_parser("verify-bounds", help="run the exact lower-bound checks, emit JSON reports")
    verify.add_argument("--out", default=None, help="where to write the JSON report list (default stdout)")
    verify.add_argument("--seed", type=int, default=0, help="seed for the random test channels")
    return parser


def _cmd_run(args) -> int:
    configs = harness.load_configs(args.config)
    out_paths = [args.out or config.out for config in configs]
    if None in out_paths:
        raise ValueError(f"no output path for grid {out_paths.index(None) + 1}: pass --out or set 'out' in the config")
    total = 0
    for config, out_path in zip(configs, out_paths):
        if args.seed is not None:
            config = dataclasses.replace(config, master_seed=args.seed)
        written = harness.run_grid(config, out_path, threads=args.threads)
        total += written
        print(f"{config.scheme}: wrote {written} rows to {out_path}")
    print(f"done: {total} new rows")
    return 0


def _cmd_summarize(args) -> int:
    rows = harness.read_results(args.infile)
    json_path = args.out if args.out.endswith(".json") else args.out + ".json"
    csv_path = json_path[: -len(".json")] + ".csv"
    for path in (json_path, csv_path):
        if os.path.exists(path) and os.path.samefile(path, args.infile):
            raise ValueError(f"--out {args.out} would write {path} over the input --in {args.infile}")
    summary = harness.summarize(rows)
    harness.write_summary(summary, json_path, csv_path)
    print(f"{len(summary)} cells -> {json_path}, {csv_path}")
    return 0


def _cmd_plan(args) -> int:
    if args.scheme == "ldp" and args.eps is None:
        raise ValueError("--scheme ldp needs --eps")
    if args.scheme == "comm" and args.ell is None:
        raise ValueError("--scheme comm needs --ell")
    print(harness.plan_report(args.scheme, args.k, args.s, args.alpha, epsilon=args.eps, ell=args.ell))
    return 0


def _cmd_verify_bounds(args) -> int:
    reports = bounds.verification_suite(master_seed=args.seed)
    payload = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    failures = [r for r in reports if not r.satisfied]
    for r in reports:
        kind = r.context.get("kind", "?")
        rel = "<=" if r.direction == "le" else ">="
        status = "ok" if r.satisfied else "FAIL"
        print(f"[{status}] {kind}: {r.value:.6g} {rel} {r.bound:.6g} {r.context}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "summarize": _cmd_summarize,
        "plan": _cmd_plan,
        "verify-bounds": _cmd_verify_bounds,
    }[args.command]
    try:
        return handler(args)
    except ValueError as err:
        print(f"sparse-dist-lab: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
