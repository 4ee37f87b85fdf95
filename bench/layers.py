"""Per-layer metrics computed from a finished trace.

Self times are summed over threads, so on a two-thread grid a layer's self
time can exceed the wall time. Counts marked computed in ``PER_LAYER`` are
derived from call arguments (see ``tracer.COMPUTED_COUNTS``), not measured.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS, SpanIndex

FAMILIES = ("hr", "rappor", "comm_hash")

# run_trial's family is read off the protocol entry point called inside it.
_FAMILY_ENTRY = {
    "hadamard_response.hr_run": "hr",
    "rappor.rappor_run": "rappor",
    "comm_hash.comm_run": "comm_hash",
}

# A trial that calls any of these handled per-user samples or messages;
# one that calls none of them drew its statistics from their exact law.
_MESSAGE_PATH = {
    "core.sample_iid",
    "hadamard_response.hr_encode_batch",
    "rappor.rappor_encode_batch",
    "comm_hash.comm_encode_batch",
    "comm_hash.preimage_counts",
}

_FUNCTION_SELF = (
    "core.sample_iid",
    "core.make_uniform_sparse",
    "core.mix64_array",
    "hadamard.fwht",
    "projection.project_sparse_simplex_vec",
    "projection.project_simplex_vec",
    "hadamard_response.hr_encode_batch",
    "hadamard_response.hr_aggregate",
    "hadamard_response.hr_decode_raw",
    "rappor.rappor_encode_batch",
    "rappor.column_sums",
    "rappor.sample_column_sums_hist",
    "comm_hash.preimage_counts",
    "comm_hash.sample_preimage_counts_hist",
    "comm_hash.comm_decode_from_counts",
    "harness.run_grid",
    "bounds.verification_suite",
)

_COMPUTED = (
    ("core.sample_iid", "users"),
    ("hadamard.fwht", "butterflies"),
    ("hadamard_response.hr_encode_batch", "bits"),
    ("rappor.rappor_encode_batch", "bits"),
    ("comm_hash.preimage_counts", "hash_evals"),
)

# (name, unit, better, computed): every per-layer metric, in print order.
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower", False) for layer in LAYERS]
    + [(f"{fn}.self_s", "s", "lower", False) for fn in _FUNCTION_SELF]
    + [
        ("core.RandomStream.self_s", "s", "lower", False),
        ("core.RandomStream.calls", "count", "lower", False),
    ]
    + [(f"{fn}.{count}", "count", "lower", True) for fn, count in _COMPUTED]
    + [
        (f"harness.run_trial.{family}.{stat}", unit, "lower", False)
        for family in FAMILIES
        for stat, unit in (("calls", "count"), ("p50_ms", "ms"), ("p90_ms", "ms"))
    ]
    + [
        ("harness.existing_row_keys.s", "s", "lower", False),
        ("harness.summarize.s", "s", "lower", False),
        ("harness.replayed_trial_share", "share", "higher", False),
        ("harness.counts_path_trials", "count", "higher", False),
        ("harness.message_path_trials", "count", "lower", False),
        ("trace.spans", "count", "lower", False),
        ("trace.overhead_s", "s", "lower", False),
    ]
)


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def replayed_share(seeds: list[int]) -> float:
    """Share of rows whose seed repeats the seed of an earlier row."""
    seen: set[int] = set()
    replayed = 0
    for seed in seeds:
        replayed += seed in seen
        seen.add(seed)
    return replayed / len(seeds)


def layer_metrics(spans, seeds: list[int], overhead_s: float) -> dict[str, float]:
    """Every metric of ``PER_LAYER`` from the spans of one traced run."""
    index = SpanIndex(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    time_by_name: dict[str, float] = defaultdict(float)
    work_by_name: dict[str, int] = defaultdict(int)
    calls_by_name: dict[str, int] = defaultdict(int)
    for sp in spans:
        self_by_name[sp.name] += index.self_time(sp)
        time_by_name[sp.name] += sp.duration
        calls_by_name[sp.name] += 1
        if sp.work is not None:
            work_by_name[sp.name] += sp.work

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items() if k.split(".", 1)[0] == layer)
    for fn in _FUNCTION_SELF:
        out[f"{fn}.self_s"] = self_by_name.get(fn, 0.0)
    out["core.RandomStream.self_s"] = sum(v for k, v in self_by_name.items() if k.startswith("core.RandomStream."))
    out["core.RandomStream.calls"] = calls_by_name.get("core.RandomStream.__init__", 0)
    for fn, count in _COMPUTED:
        out[f"{fn}.{count}"] = work_by_name.get(fn, 0)

    trial_ms: dict[str, list[float]] = {family: [] for family in FAMILIES}
    counts_path = message_path = 0
    for sp in spans:
        if sp.name != "harness.run_trial":
            continue
        inside = index.descendant_names(sp)
        family = next((fam for entry, fam in _FAMILY_ENTRY.items() if entry in inside), None)
        if family is not None:
            trial_ms[family].append(sp.duration * 1e3)
        if inside & _MESSAGE_PATH:
            message_path += 1
        else:
            counts_path += 1
    for family, durations in trial_ms.items():
        out[f"harness.run_trial.{family}.calls"] = len(durations)
        out[f"harness.run_trial.{family}.p50_ms"] = _percentile(durations, 50)
        out[f"harness.run_trial.{family}.p90_ms"] = _percentile(durations, 90)

    out["harness.existing_row_keys.s"] = time_by_name.get("harness.existing_row_keys", 0.0)
    out["harness.summarize.s"] = time_by_name.get("harness.read_results", 0.0) + time_by_name.get(
        "harness.summarize", 0.0
    )
    out["harness.replayed_trial_share"] = replayed_share(seeds)
    out["harness.counts_path_trials"] = counts_path
    out["harness.message_path_trials"] = message_path
    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = overhead_s
    return out
