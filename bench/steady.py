"""Steadiness check: repeat the benchmark over seeds and report the spread.

    python3 bench/steady.py --workload desk message_paths --runs 10 --first-seed 1

Each run is ``run.py --workload W --seed S --seconds T --trace 0`` in a fresh
process, one after another. For every end-to-end metric the command prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, which ``BENCHMARK.json`` bounds must exceed;
it also prints the share of failed operations per run. Results are written
to ``bench/_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["end_to_end"]}

    for workload in args.workload:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            values = " ".join(f"{m}={e['value']:.5g}" for m, e in result["metrics"].items())
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} {values}", flush=True)
        print(f"{workload}: {len(results)} runs")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            bound = bounds.get(metric)
            verdict = "" if bound is None else f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"  {metric:<18} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}{verdict}")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"  failed share per run: {shares}")
        out = BENCH_DIR / "_out"
        out.mkdir(exist_ok=True)
        (out / f"steady-{workload}.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
