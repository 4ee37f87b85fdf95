"""Seeded experiment harness: config-driven grids, CSV persistence, summaries.

A grid is the Cartesian product of sparsity values, constraint values
(epsilon or ell), and trial indices, at fixed (scheme, k, n). Each trial
draws a fresh s-sparse uniform target, runs the scheme end to end, and
records the TV error. Pending cells that are adjacent in grid order and
share a cell hash form one run, and each run draws once: the union of its
cells' pending trials runs as one stack, each trial drawing from its own
streams, and decoding, projection and scoring run once over the stack, row
by row, into an array of TV errors (_cell_errors), which _group_rows
formats as the run's CSV rows. The stack's stream keys are derived as
arrays (core.child_keys) and every draw borrows the thread's one re-keyed
generator (core.keyed_generator), valid until the thread's next re-key; a
64-bit key is all a stream needs. Runs go in this process or, with more
than one worker, in forked worker processes (POSIX only). Results stream
to a CSV with a fixed header, one write per run, in grid order; every row
ends in SAMPLER_VERSION, the version of the count sampler that drew it.
Grids are resumable (existing (cell, trial) rows are skipped, a torn last
line is dropped and rerun, and a foreign header, a file of another sampler,
a row of the wrong width, a row naming no cell a grid can hold or disagreeing
with its cell, a repeated (cell, trial) row or a row written under another
master seed is an error) and byte-identical across repetitions and worker
counts. One reader, _read_rows, parses the file for both resuming and
summarizing, and checks each row's cell with ExperimentConfig's rules.

Determinism works by construction: a trial's seed is an avalanche mix of
(master_seed, cell hash, trial index), where the cell hash folds a canonical
string naming the cell. Nothing downstream of that seed depends on
scheduling. Two deliberate wrinkles, both load-bearing for the experiment
semantics:

* hr_dense and hr_sparse hash to the same cell string (family "hr"), so
  HR at s = k (the whole simplex) and at the cell's s decode identical group
  fractions - the projection comparison is paired, not independent.
* comm_hash cells hash their *effective* bit count; raising ell past the
  ceil(log2 s)+1 cap changes nothing about the protocol, so such cells are
  the same experiment: adjacent ones form one run, which draws their
  trials once, and each cell's rows repeat the capped cell's TV errors.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import comm_stage_sizes, ldp_risk_bound, planned_sample_size
from .comm_hash import comm_run_stack, effective_ell
from .core import (
    check_master_seed,
    check_probs,
    child_keys,
    fold_string,
    invertible_exp_epsilon,
    mix64,
    tv_distance,
    uniform_sparse_stack,
)
from .hadamard import hadamard_dim
from .hadamard_response import hr_run_stack
from .rappor import flip_probability, rappor_run_stack

CSV_HEADER = "scheme,k,s,n,eps_or_ell,trial,tv_error,bits_per_user,seed,sampler"
# The version of the count sampler every row records in its last field. A
# new sampler draws other trials under the same seeds, so its rows must not
# join an older sampler's file. Sampler 2 drew the second half's
# rappor/comm_hash counts over all k symbols and wrote no sampler field.
SAMPLER_VERSION = 3
_SAMPLER_2_HEADER = CSV_HEADER.removesuffix(",sampler")

SCHEMES = ("hr_dense", "hr_sparse", "rappor", "comm_hash")


_CONFIG_FIELDS = {"scheme", "k", "s_list", "n", "trials", "master_seed", "epsilon_list", "ell_list", "out"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid: a scheme, its domain, and the lists swept over."""

    scheme: str
    k: int
    s_list: tuple[int, ...]
    n: int
    trials: int
    master_seed: int
    epsilon_list: tuple[float, ...] | None = None
    ell_list: tuple[int, ...] | None = None
    out: str | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        for name in ("k", "n", "trials", "master_seed"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.k < 1 or self.n < 1 or self.trials < 1:
            raise ValueError("k, n, trials must be positive")
        if self.n >= 2**63:  # NumPy's binomial and multinomial take n as an int64
            raise ValueError(f"n={self.n} is too large: n must be below 2^63")
        check_master_seed(self.master_seed)
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string, not {self.out!r}")
        object.__setattr__(self, "s_list", _numbers("s_list", self.s_list))
        if any(not 1 <= s <= self.k for s in self.s_list):
            raise ValueError("every s must satisfy 1 <= s <= k")
        wants_ell = self.scheme == "comm_hash"
        if wants_ell:
            if self.ell_list is None or self.epsilon_list is not None:
                raise ValueError("comm_hash takes ell_list (and no epsilon_list)")
            object.__setattr__(self, "ell_list", _numbers("ell_list", self.ell_list))
            if any(v < 1 for v in self.ell_list):
                raise ValueError("ell values must be >= 1")
            if self.n % 2:
                raise ValueError("comm_hash needs an even n (the scheme splits users in half)")
        else:
            if self.epsilon_list is None or self.ell_list is not None:
                raise ValueError(f"{self.scheme} takes epsilon_list (and no ell_list)")
            object.__setattr__(self, "epsilon_list", _numbers("epsilon_list", self.epsilon_list, integral=False))
            # reject an epsilon that is not positive or whose exponential (e^eps
            # for HR's decoder, e^(eps/2) for rappor's flip probability)
            # overflows or rounds to 1, where the decoder would divide by 0
            check = flip_probability if self.scheme == "rappor" else invertible_exp_epsilon
            for v in self.epsilon_list:
                check(v)
        # grids that no trial could run fail here, not at their first trial
        if self.scheme in ("hr_dense", "hr_sparse") and self.n < hadamard_dim(self.k):
            raise ValueError(f"n={self.n} is below the block size K={hadamard_dim(self.k)} of k={self.k}: HR needs n >= K")
        if self.scheme == "rappor":
            if 2 * max(self.s_list) > self.k:
                raise ValueError(f"s_list holds s={max(self.s_list)}, but rappor needs 2s <= k={self.k}")
            if self.n < 2:
                raise ValueError(f"n={self.n}: rappor splits users in half and needs n >= 2")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config entry {raw!r} is of type {type(raw).__name__}, not an object")
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {"scheme", "k", "s_list", "n", "trials", "master_seed"} - set(raw)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(**raw)

    def params(self) -> tuple:
        return self.ell_list if self.scheme == "comm_hash" else self.epsilon_list


def _number(name: str, value, integral: bool = True):
    """value as an int (or, if not integral, a float); ValueError naming the field if it is another type.

    A bool is not a number here, and neither is a float where an int is due.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a real number'}, not {value!r}")
    return int(value) if integral else float(value)


def _numbers(name: str, values, integral: bool = True) -> tuple:
    """Each entry of the nonempty list values checked as by _number, and none repeated.

    Entries compare after conversion (1 and 1.0 are one epsilon). A repeat
    would name one grid cell twice and write each of its trials twice; an
    empty list would name no cell, and its grid would write no row.
    """
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list, not {values!r}")
    if not values:
        raise ValueError(f"{name} must not be empty")
    entries = tuple(_number(f"{name} entry", v, integral) for v in values)
    for i, v in enumerate(entries):
        if v in entries[:i]:
            raise ValueError(f"{name} repeats the value {v!r}")
    return entries


def load_configs(path: str) -> list[ExperimentConfig]:
    """Read a config file holding one grid object or a list of them."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise ValueError("config must be an object or a nonempty list of objects")
    return [ExperimentConfig.from_dict(item) for item in raw]


def _param_text(param: float | int) -> str:
    """A cell's epsilon or ell as the results CSV writes it: repr for floats."""
    return repr(param) if isinstance(param, float) else str(param)


@dataclass(frozen=True)
class Cell:
    """One grid point; ``param`` is epsilon or ell depending on the scheme."""

    scheme: str
    k: int
    s: int
    n: int
    param: float | int

    def __post_init__(self):
        # ell is an int and epsilon a float, so that equal cells (1 == 1.0)
        # share one canonical string, row text and cached cell_hash
        param = int(self.param) if self.scheme == "comm_hash" else float(self.param)
        object.__setattr__(self, "param", param)

    def param_str(self) -> str:
        return _param_text(self.param)


def scheme_family(scheme: str) -> str:
    """Seeding family: hr_dense and hr_sparse share message batches."""
    return "hr" if scheme in ("hr_dense", "hr_sparse") else scheme


@functools.lru_cache(maxsize=4096)
def cell_hash(cell: Cell) -> int:
    """Stable 64-bit identity of a cell's experiment (not of its reporting).

    comm_hash cells fold the effective bit count: ell values above the
    sparsity cap describe the same protocol, so they are the same experiment.
    """
    family = scheme_family(cell.scheme)
    if cell.scheme == "comm_hash":
        tag = f"ell={effective_ell(int(cell.param), cell.s)}"
    else:
        tag = f"eps={cell.param!r}"
    return fold_string(f"{family}|k={cell.k}|s={cell.s}|n={cell.n}|{tag}")


def trial_seeds(master_seed: int, cell: Cell, trials) -> np.ndarray:
    """The 64-bit seeds that fully determine the given trials of a cell, as a uint64 array.

    Trial t's seed is derive_key(mix64(master_seed) ^ cell_hash(cell), t).
    """
    return child_keys(mix64(master_seed) ^ cell_hash(cell), trials)


def bits_per_user(scheme: str, k: int, param) -> int:
    if scheme in ("hr_dense", "hr_sparse"):
        return 1
    if scheme == "rappor":
        return k
    return int(param)


def run_cell(cell: Cell, trials: list[int], master_seed: int) -> np.ndarray:
    """Run a cell's trials as one stacked batch; the (B,) TV errors, in the order of trials.

    The errors of _cell_errors at the trials' seeds (trial_seeds).
    """
    return _cell_errors(cell, trial_seeds(master_seed, cell, trials))


def _cell_errors(cell: Cell, seeds: np.ndarray) -> np.ndarray:
    """The (B,) TV errors of a cell's trials whose uint64 seeds are given, run as one stacked batch.

    A trial's stream key is derive_key(seed, 0). It draws its target from
    that stream's child 0 and its protocol randomness from child 1, so a
    trial's result does not depend on which other trials share its batch.
    Both children's keys are derived for the whole stack at once. Decoding,
    projection and scoring run once over the stack. Errors name the cell.
    """
    # each trial's key derive_key(seed, 0), then the keys of its children 0 and 1
    target_keys, protocol_keys = child_keys(child_keys(seeds, 0)[:, None], [0, 1]).T
    try:
        targets = uniform_sparse_stack(cell.k, cell.s, target_keys)
        check_probs(targets)
        T, est = _run_stack(cell, targets, protocol_keys)
        check_probs(est)
    except ValueError as err:
        raise ValueError(f"cell {cell}: {err}") from err
    return tv_distance(targets, T, est)


def _run_stack(cell: Cell, targets: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cell's scheme run on each row of targets with its own stream key; the (B, t) supports and estimates on them.

    Every runner is (targets, n, param, s, keys) -> (T, raw, est); hr_dense is HR at s = k.
    """
    run = {"rappor": rappor_run_stack, "comm_hash": comm_run_stack}.get(cell.scheme, hr_run_stack)
    s = cell.k if cell.scheme == "hr_dense" else cell.s
    return run(targets, cell.n, cell.param, s, keys)[::2]


def config_cells(config: ExperimentConfig) -> list[Cell]:
    """Grid cells in canonical order: s outer, constraint value inner."""
    return [Cell(config.scheme, config.k, s, config.n, param) for s in config.s_list for param in config.params()]


def _field(kind: type, low: float, high: float, what: str):
    """A parser (name, text) -> value of a results field as a kind (int or float) in [low, high].

    It raises ValueError saying the field is not what for any other text, NaN
    and an int not written as str(int(text)) (3_2, +32, ' 32') among them.
    """

    def parse(name: str, text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high or (kind is int and str(value) != text):
            raise ValueError(f"field {name} is {text!r}, not {what}")
        return value

    return parse


_INTEGER = _field(int, -math.inf, math.inf, "an integer")
_FINITE = _field(float, -sys.float_info.max, sys.float_info.max, "a finite number")
# how _parse_row reads the fields after a row's cell; its bits_per_user is the cell's (see _row_cell)
_TRIAL_FIELDS = {
    "trial": _field(int, 0, math.inf, "an integer >= 0"),
    "tv_error": _field(float, 0, 1, "a number in [0, 1]"),
    "seed": _field(int, 0, 2**64 - 1, "an integer in [0, 2^64)"),
    "sampler": _field(int, SAMPLER_VERSION, SAMPLER_VERSION, f"{SAMPLER_VERSION}, the sampler this version draws with"),
}
_COLUMNS = CSV_HEADER.split(",")


@functools.lru_cache(maxsize=4096)
def _row_cell(scheme: str, k: str, s: str, n: str, param: str, bits: str) -> tuple:
    """A row's (scheme, k, s, n, eps_or_ell, bits_per_user), parsed from the text of those fields.

    k, s and n must be integers and param a finite number (see _field). The
    cell must be one a grid can hold: a one-cell ExperimentConfig checks it,
    a comm_hash ell passed as an int when it is integral, and its message is
    wrapped. bits must be the cell's bits_per_user. Raises ValueError saying
    what fails. Memoised, as a file repeats each cell's text once per trial.
    """
    k, s, n = _INTEGER("k", k), _INTEGER("s", s), _INTEGER("n", n)
    value = _FINITE("eps_or_ell", param)
    if scheme == "comm_hash" and value.is_integer():
        value = int(value)  # 2.5 stays a float, which the config refuses as an ell
    sweep = "ell_list" if scheme == "comm_hash" else "epsilon_list"
    try:
        (param,) = ExperimentConfig(scheme, k, [s], n, trials=1, master_seed=0, **{sweep: [value]}).params()
    except ValueError as err:
        raise ValueError(f"names no cell a grid can hold: {err}") from None
    expected = bits_per_user(scheme, k, param)
    if bits != str(expected):
        raise ValueError(f"field bits_per_user is {bits!r}, not {expected}, the bits a user sends in this cell")
    return scheme, k, s, n, param, expected


def _parse_row(path: str, line_no: int, line: str) -> dict:
    """A results row as a dict of its parsed fields, in header order.

    Raises ValueError naming path and line unless the row has the header's
    field count, names a cell a grid can hold with that cell's
    bits_per_user (see _row_cell), and holds a trial >= 0, a tv_error in
    [0, 1], a seed in [0, 2^64) and SAMPLER_VERSION; the message gives the
    field that fails or the config's reason.
    """
    parts = line.split(",")
    if len(parts) != len(_COLUMNS):
        raise ValueError(f"{path}: line {line_no} has {len(parts)} fields, not the header's {len(_COLUMNS)}")
    row = dict(zip(_COLUMNS, parts))
    try:
        cell = _row_cell(*parts[:5], row["bits_per_user"])
        for name, parse in _TRIAL_FIELDS.items():
            row[name] = parse(name, row[name])
    except ValueError as err:
        raise ValueError(f"{path}: line {line_no} {err}") from None
    row.update(zip(("scheme", "k", "s", "n", "eps_or_ell", "bits_per_user"), cell))
    return row


def _read_rows(path: str) -> tuple[list[dict], int]:
    """The parsed rows of a results CSV, and the byte length of its torn last line.

    Reads path once. Raises ValueError naming path unless the first line is
    CSV_HEADER (naming both sampler versions and asking for a new file when
    it is sampler 2's header) and every row parses (see _parse_row: a row
    must name a cell some ExperimentConfig could hold, write its integers as
    the harness does and carry its cell's bits_per_user, and a row of
    another sampler than SAMPLER_VERSION does not parse), and naming a row's
    line and the earlier line it repeats if two rows record one (cell,
    trial), their params compared as numbers (0.50 is 0.5): a repeat would
    count as another trial and mark its cell done.
    Rows are written whole, each ending in a newline, so a last line with no
    newline is a write cut short by a crash, not a row: it is left out and
    its length in bytes returned (0 when the file ends in a newline). A torn
    first line must be a prefix of the header. Blank lines are skipped.
    """
    rows = []
    first_line = {}  # (scheme, k, s, n, eps_or_ell, trial) -> the line that holds it
    torn = 0
    with open(path, encoding="utf-8", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1 and not (CSV_HEADER + "\n").startswith(line):
                if line == _SAMPLER_2_HEADER + "\n":
                    raise ValueError(
                        f"{path}: the file holds sampler 2 rows, and this version draws with sampler "
                        f"{SAMPLER_VERSION}, whose trials differ; start a new results file"
                    )
                raise ValueError(f"{path}: the first line {line!r} is not the results header {CSV_HEADER!r}")
            if not line.endswith("\n"):
                torn = len(line.encode())
            elif line_no > 1 and line != "\n":
                row = _parse_row(path, line_no, line[:-1])
                earlier = first_line.setdefault(_row_key(row), line_no)
                if earlier != line_no:
                    raise ValueError(f"{path}: line {line_no} repeats the (cell, trial) of line {earlier}")
                rows.append(row)
    return rows, torn


def _row_key(row: dict) -> tuple:
    """A parsed row's (scheme, k, s, n, eps_or_ell, trial), the trial it records."""
    return row["scheme"], row["k"], row["s"], row["n"], row["eps_or_ell"], row["trial"]


def _group_rows(members: list[tuple[Cell, list[int]]], trials: list[int], seeds: np.ndarray) -> str:
    """A run's CSV rows as one string, member by member, from one stacked batch of the union of their pending trials.

    members are the (cell, pending trials) pairs of a run, cells adjacent
    in grid order that share a cell_hash, trials the sorted union of their
    pending trials and seeds those trials' uint64 seeds. A trial's result
    does not depend on its batch, so each member's rows are those it would
    get alone: the cell (its own param text and bits), each trial's TV
    error (repr), seed and SAMPLER_VERSION. Errors name the first member.
    """
    tv_of = dict(zip(trials, _cell_errors(members[0][0], seeds).tolist()))
    seed_of = dict(zip(trials, seeds.tolist()))
    out = []
    for cell, pending in members:
        head = f"{cell.scheme},{cell.k},{cell.s},{cell.n},{cell.param_str()}"
        bits = bits_per_user(cell.scheme, cell.k, cell.param)
        out.extend(f"{head},{t},{tv_of[t]!r},{bits},{seed_of[t]},{SAMPLER_VERSION}\n" for t in pending)
    return "".join(out)


def _cell_rows(cell: Cell, trials: list[int], master_seed: int) -> str:
    """The CSV rows of one cell's trials, in order, as a grid writes them."""
    return _group_rows([(cell, trials)], trials, trial_seeds(master_seed, cell, trials))


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where os.fork is missing (workers are forked)."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# symbol-trials a worker must get to pay for its fork: 2 workers break even at 32-50k (k=1000-5000, 2 vCPUs)
_WORKER_MIN_WORK = 20_000


def _worker_count(threads: int, runs: int, cpus: int, work: int) -> int:
    """Workers for a grid: the requested count, capped at the runs, the CPUs and the work.

    runs is the number of runs with pending trials, and work the
    symbol-trials they draw (drawn trials x k), which tracks a trial's cost
    whatever n is; each worker gets at least _WORKER_MIN_WORK of it, so a
    grid too small to pay for a fork runs in-process. Reads no clock: the
    count never depends on timing.
    """
    return max(1, min(threads, runs, cpus, work // _WORKER_MIN_WORK))


def _run_stripe(fd: int, stripe: list[tuple]) -> None:
    """Body of a forked worker: pickle each run's rows, or the error that stopped it, to fd.

    A run is the (members, trials, seeds) that _group_rows takes.

    Leaves with os._exit, so the child never returns into its caller and
    never flushes a buffer it inherited (the results CSV, stdout).
    """
    status = 1
    try:
        with os.fdopen(fd, "wb") as out:
            for run in stripe:
                try:
                    rows = _group_rows(*run)
                except Exception as err:
                    try:
                        payload = pickle.dumps(err)
                        pickle.loads(payload)  # some exceptions pickle but cannot be rebuilt
                    except Exception:
                        payload = pickle.dumps(RuntimeError(f"cell {run[0][0][0]}: {type(err).__name__}: {err}"))
                    out.write(payload)
                    break
                pickle.dump(rows, out)
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _write_cells(fh, runs: list[tuple], workers: int) -> None:
    """Compute runs on workers processes and write each run's rows to fh, in order.

    A run is the (members, trials, seeds) that _group_rows takes, and runs
    are in grid order. The calling process forks workers - 1 children (none
    for one worker) and works as worker 0; run i runs in worker
    i % workers. Each child pickles its runs' rows to its own pipe. Each
    run's rows are written with one write and one flush. Children are
    reaped before returning, and killed first if anything raised.
    """
    pids = []  # worker w's pid is pids[w - 1]
    readers = {}  # pid -> its pipe's read end, until the worker is reaped
    finished = False
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_stripe(write_fd, runs[w::workers])
            os.close(write_fd)
            pids.append(pid)
            readers[pid] = os.fdopen(read_fd, "rb")
        for i, run in enumerate(runs):
            if i % workers == 0:
                rows = _group_rows(*run)
            else:
                pid = pids[i % workers - 1]
                try:
                    rows = pickle.load(readers[pid])
                except (EOFError, pickle.UnpicklingError):
                    readers.pop(pid).close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    how = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with status {code}"
                    raise RuntimeError(f"cell {run[0][0][0]}: worker process {pid} {how} before sending the cell's rows") from None
                if isinstance(rows, BaseException):
                    raise rows
            fh.write(rows)
            fh.flush()
        finished = True
    finally:
        for pid, reader in readers.items():
            reader.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_grid(config: ExperimentConfig, out_path: str, threads: int = 1) -> int:
    """Run (or resume) one config's grid, appending rows to out_path.

    Pending cells that are adjacent in grid order and share a cell_hash
    (comm_hash cells with ell past the effective_ell cap) form one run,
    and each run draws once: its members' pending trials run as one
    stacked batch (see _group_rows). A run's seeds are derived once and
    serve the resume check, the draw and the rows. Same-hash cells that are
    not adjacent are separate runs, which draw the same trials and write
    the same rows. ``threads`` is the number of worker processes, w, capped
    at the runs, at the CPUs this process may use and at one worker per
    _WORKER_MIN_WORK drawn symbol-trials (trials x k), so a small grid runs
    in this process whatever ``threads`` is (on 2 vCPUs, two workers beat
    one from about 32,000-50,000 symbol-trials). One worker runs every run
    in this process. More fork (POSIX only): this process computes runs 0,
    w, 2w, ... itself and w - 1 forked children compute the rest, so do not
    call it while other threads of the caller hold locks. Each run's rows are
    written with one write and one flush, in grid order, so output bytes
    never depend on w. The first failing run stops the grid, with the whole
    rows of the runs before it written, and its error (or, for a worker
    that died, a RuntimeError) names its first member. Returns the number
    of rows written.

    Reads out_path once, if it exists, and raises ValueError naming it,
    before writing anything, if its first line is not CSV_HEADER (a
    sampler 2 file is refused, never extended), if a row does not parse
    (see _parse_row) or repeats an earlier row's (cell, trial) (see
    _read_rows), or if a row was written under another master seed than
    config's: a row's key leaves the seed out, so it would otherwise count
    as done. A torn last line (no trailing newline) is truncated, with a
    note on stderr, and its row rerun.
    """
    seed = config.master_seed
    try:
        rows, torn = _read_rows(out_path)
    except FileNotFoundError:
        rows, torn = [], 0
    done = {_row_key(r): r["seed"] for r in rows}
    # each run's members and the seeds of trials 0 .. config.trials - 1, then
    # the (members, trials, seeds) that _group_rows takes
    runs = []
    key = None
    for cell in config_cells(config):
        if cell_hash(cell) != key:
            key = cell_hash(cell)
            members, seeds = [], trial_seeds(seed, cell, range(config.trials))
        pending = []
        for t in range(config.trials):
            found = done.get((cell.scheme, cell.k, cell.s, cell.n, cell.param, t))
            if found is None:
                pending.append(t)
            elif found != int(seeds[t]):
                raise ValueError(
                    f"{out_path}: row ({cell.scheme}, s={cell.s}, {cell.param_str()}, trial {t}) has seed "
                    f"{found}, but master seed {seed} gives {seeds[t]}; "
                    "resume with the master seed the file was written with, or use a new file"
                )
        if pending:
            if not members:
                runs.append((members, seeds))
            members.append((cell, pending))
    for i, (members, seeds) in enumerate(runs):
        trials = sorted(set().union(*(pending for _, pending in members)))
        runs[i] = (members, trials, seeds[trials])

    if torn:
        os.truncate(out_path, os.path.getsize(out_path) - torn)
        print(f"{out_path}: dropped a torn last line ({torn} bytes with no newline); resuming", file=sys.stderr)
    fresh = not os.path.exists(out_path) or os.path.getsize(out_path) == 0
    drawn = sum(len(trials) for _, trials, _ in runs)
    workers = _worker_count(threads, len(runs), _usable_cpus(), config.k * drawn)
    with open(out_path, "a", encoding="utf-8", newline="") as fh:
        if fresh:
            fh.write(CSV_HEADER + "\n")
            fh.flush()
        _write_cells(fh, runs, workers)
    return sum(len(pending) for members, _, _ in runs for _, pending in members)


def read_results(path: str) -> list[dict]:
    """Parse a results CSV into row dicts, every field but scheme parsed as a number.

    Raises ValueError naming path if the file is malformed (see _read_rows),
    ends in a torn line, or holds no rows.
    """
    rows, torn = _read_rows(path)
    if torn:
        raise ValueError(f"{path}: the last line has no newline (a torn write); resume the run to repair it")
    if not rows:
        raise ValueError(f"{path}: the results file holds no rows")
    return rows


def summarize(rows: list[dict]) -> list[dict]:
    """Per-cell mean TV error, standard error, and trial count.

    A row's param is grouped by its value (0.50 is 0.5) and written as the
    harness writes it (an int for comm_hash). A single-trial cell has stderr
    0 and is flagged degenerate. Cells are ordered by (scheme, k, n,
    constraint value, s), one series per constraint value with s as the x
    axis.
    """
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        key = (row["scheme"], row["k"], row["n"], float(row["eps_or_ell"]), row["s"])
        groups.setdefault(key, []).append(row["tv_error"])
    out = []
    for key in sorted(groups):
        errs = np.asarray(groups[key])
        scheme, k, n, param, s = key
        stderr = float(errs.std(ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
        out.append(
            {
                "scheme": scheme,
                "k": k,
                "n": n,
                "eps_or_ell": _param_text(int(param) if scheme == "comm_hash" and param.is_integer() else param),
                "s": s,
                "mean_tv_error": float(errs.mean()),
                "stderr": stderr,
                "trials": int(errs.size),
                "degenerate": errs.size < 2,
            }
        )
    return out


def write_summary(summary: list[dict], json_path: str, csv_path: str) -> None:
    """Emit the summary as JSON and as plot-ready CSV."""
    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        json.dump({"cells": summary}, fh, indent=2)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("scheme,k,n,eps_or_ell,s,mean_tv_error,stderr,trials\n")
        for cell in summary:
            fh.write(
                f"{cell['scheme']},{cell['k']},{cell['n']},{cell['eps_or_ell']},{cell['s']},"
                f"{cell['mean_tv_error']!r},{cell['stderr']!r},{cell['trials']}\n"
            )


def plan_report(scheme: str, k: int, s: int, alpha: float, epsilon: float | None = None, ell: int | None = None) -> str:
    """Human-readable sample-size plan for one problem instance."""
    lines = []
    if scheme == "comm":
        n = planned_sample_size("comm", k, s, alpha, ell=ell)
        stage1, stage2 = comm_stage_sizes(k, s, alpha, ell)
        eff = effective_ell(ell, s)
        lines.append(f"scheme comm_hash: k={k} s={s} alpha={alpha} ell={ell}")
        lines.append(f"planned n = {n} (per half: support stage {stage1}, estimation stage {stage2})")
        if eff < ell:
            lines.append(f"effective ell = {eff} (capped from {ell}: more buckets than ~2s buy nothing)")
        else:
            lines.append(f"effective ell = {eff}")
        lines.append(f"guarantee at planned n: TV error <= {alpha} with probability >= 0.9")
    elif scheme == "ldp":
        n = planned_sample_size("ldp", k, s, alpha, epsilon=epsilon)
        lines.append(f"scheme hr (ldp): k={k} s={s} alpha={alpha} epsilon={epsilon}")
        lines.append(f"planned n = {n}")
        lines.append(f"risk bound at planned n: {ldp_risk_bound(k, s, epsilon, n):.6g} (target alpha = {alpha})")
    else:
        raise ValueError("scheme must be 'ldp' or 'comm'")
    return "\n".join(lines)
