"""Seeded experiment harness: config-driven grids, CSV persistence, summaries.

A grid is the Cartesian product of sparsity values, constraint values
(epsilon or ell), and trial indices, at fixed (scheme, k, n). Each trial
draws a fresh s-sparse uniform target, runs the scheme end to end, and
records the TV error. Pending cells that are adjacent in grid order and
share a cell hash form one run, and each run draws once: the union of its
cells' pending trials runs as one stack, each trial drawing from its own
streams, and decoding, projection and scoring run once over the stack, row
by row, into an array of TV errors (_cell_errors), which _group_rows
formats as the run's CSV rows. The stack's stream keys are Python ints
(core.derive_keys) and every draw borrows the thread's one re-keyed
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
summarizing. Cell is the one home of a grid point's rules: a config's cells,
each row's cell and each summarized cell are built as Cells, which check
themselves.

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

import dataclasses
import functools
import json
import math
import numbers
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .bounds import comm_stage_sizes, ldp_risk_bound, planned_sample_size
from .comm_hash import comm_run_stack, effective_ell
from .core import (
    check_master_seed,
    check_probs,
    derive_key,
    derive_keys,
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid: a scheme, its domain, and the lists swept over.

    Checks its own fields (their types, a known scheme, then the one sweep
    list that scheme takes, ell_list for comm_hash and epsilon_list for the
    rest, no empty or repeated list, trials, master_seed, out), then builds
    its cells, each of which checks the rules of a grid point (see Cell).
    A validated config holds exactly one of ell_list and epsilon_list.
    """

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
        for name in ("k", "n", "trials", "master_seed"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.trials < 1:
            raise ValueError("k, n, trials must be positive")
        check_master_seed(self.master_seed)
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string, not {self.out!r}")
        object.__setattr__(self, "s_list", _numbers("s_list", self.s_list))
        _check_scheme(self.scheme)  # before the scheme picks its sweep list
        sweep, other = ("ell_list", "epsilon_list") if self.scheme == "comm_hash" else ("epsilon_list", "ell_list")
        if getattr(self, sweep) is None or getattr(self, other) is not None:
            raise ValueError(f"{self.scheme} takes {sweep} (and no {other})")
        object.__setattr__(self, sweep, _numbers(sweep, getattr(self, sweep), integral=sweep == "ell_list"))
        # each cell checks the rules of a grid point, so a grid no trial
        # could run fails here, not at its first trial
        config_cells(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config entry {raw!r} is of type {type(raw).__name__}, not an object")
        fields = dataclasses.fields(cls)
        unknown = set(raw) - {f.name for f in fields}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(raw)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(**raw)


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


def _check_scheme(scheme: str) -> None:
    """Raise ValueError unless scheme is one of SCHEMES; the one home of that rule's message."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _param_text(param: float | int) -> str:
    """A cell's epsilon or ell as the results CSV writes it: repr for floats."""
    return repr(param) if isinstance(param, float) else str(param)


@dataclass(frozen=True)
class Cell:
    """One grid point; ``param`` is epsilon or ell depending on the scheme.

    The one home of a grid point's rules: construction raises ValueError
    saying which one fails unless the scheme is known, 1 <= k, 1 <= n < 2^63
    (NumPy's binomial and multinomial take n as an int64), 1 <= s <= k, and
    param is an epsilon whose exponential (e^eps for HR's decoder, e^(eps/2)
    for rappor's flip probability) is finite and not 1, where the decoder
    would divide by 0, or an integral ell >= 1. HR needs n >= K, its block
    size, and the split-half schemes n >= 2. param is made canonical, an int
    ell or a float epsilon, so that equal cells (1 == 1.0) share one
    canonical string, row text and cached cell_hash.
    """

    scheme: str
    k: int
    s: int
    n: int
    param: float | int

    def __post_init__(self):
        _check_scheme(self.scheme)
        if self.k < 1 or self.n < 1:
            raise ValueError("k, n, trials must be positive")
        if self.n >= 2**63:
            raise ValueError(f"n={self.n} is too large: n must be below 2^63")
        if not 1 <= self.s <= self.k:
            raise ValueError("every s must satisfy 1 <= s <= k")
        if self.scheme == "comm_hash":
            if self.param % 1:  # NaN and inf too
                raise ValueError(f"ell_list entry must be an integer, not {self.param!r}")
            object.__setattr__(self, "param", int(self.param))
            if self.param < 1:
                raise ValueError("ell values must be >= 1")
        else:
            object.__setattr__(self, "param", float(self.param))
            (flip_probability if self.scheme == "rappor" else invertible_exp_epsilon)(self.param)
        if scheme_family(self.scheme) == "hr" and self.n < hadamard_dim(self.k):
            raise ValueError(f"n={self.n} is below the block size K={hadamard_dim(self.k)} of k={self.k}: HR needs n >= K")
        if self.scheme in ("rappor", "comm_hash") and self.n < 2:
            raise ValueError(f"n={self.n}: {self.scheme} splits users in half and needs n >= 2")

    @property
    def bits(self) -> int:
        """The bits a user sends: 1 for HR, k for rappor, ell for comm_hash."""
        return {"rappor": self.k, "comm_hash": self.param}.get(self.scheme, 1)


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
        tag = f"ell={effective_ell(cell.param, cell.s)}"
    else:
        tag = f"eps={cell.param!r}"
    return fold_string(f"{family}|k={cell.k}|s={cell.s}|n={cell.n}|{tag}")


def trial_seeds(master_seed: int, cell: Cell, trials) -> list[int]:
    """The 64-bit seeds that fully determine the given trials of a cell, as a list of ints.

    Trial t's seed is derive_key(mix64(master_seed) ^ cell_hash(cell), t).
    """
    return derive_keys(mix64(master_seed) ^ cell_hash(cell), trials)


def run_cell(cell: Cell, trials: list[int], master_seed: int) -> np.ndarray:
    """Run a cell's trials as one stacked batch; the (B,) TV errors, in the order of trials.

    The errors of _cell_errors at the trials' seeds (trial_seeds).
    """
    return _cell_errors(cell, trial_seeds(master_seed, cell, trials))


def _cell_errors(cell: Cell, seeds: list[int]) -> np.ndarray:
    """The (B,) TV errors of a cell's trials whose integer seeds are given, run as one stacked batch.

    A trial's stream key is derive_key(seed, 0). It draws its target from
    that stream's child 0 and its protocol randomness from child 1, so a
    trial's result does not depend on which other trials share its batch.
    Decoding, projection and scoring run once over the stack. Errors name
    the cell.
    """
    children = [derive_keys(derive_key(seed, 0), (0, 1)) for seed in seeds]
    try:
        targets = uniform_sparse_stack(cell.k, cell.s, [key for key, _ in children])
        check_probs(targets)
        T, est = _run_stack(cell, targets, [key for _, key in children])
        check_probs(est)
    except ValueError as err:
        raise ValueError(f"cell {cell}: {err}") from err
    return tv_distance(targets, T, est)


def _run_stack(cell: Cell, targets: np.ndarray, keys: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The cell's scheme run on each row of targets with its own stream key; the (B, t) supports and estimates on them.

    Every runner is (targets, n, param, s, keys) -> (T, raw, est); hr_dense is HR at s = k.
    """
    run = {"rappor": rappor_run_stack, "comm_hash": comm_run_stack}.get(cell.scheme, hr_run_stack)
    s = cell.k if cell.scheme == "hr_dense" else cell.s
    return run(targets, cell.n, cell.param, s, keys)[::2]


def config_cells(config: ExperimentConfig) -> list[Cell]:
    """Grid cells in canonical order: s outer, constraint value inner."""
    return [Cell(config.scheme, config.k, s, config.n, param) for s in config.s_list for param in config.ell_list or config.epsilon_list]


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
# how _parse_row reads the fields after a row's Cell; its bits_per_user is Cell.bits (see _row_cell)
_TRIAL_FIELDS = {
    "trial": _field(int, 0, math.inf, "an integer >= 0"),
    "tv_error": _field(float, 0, 1, "a number in [0, 1]"),
    "seed": _field(int, 0, 2**64 - 1, "an integer in [0, 2^64)"),
    "sampler": _field(int, SAMPLER_VERSION, SAMPLER_VERSION, f"{SAMPLER_VERSION}, the sampler this version draws with"),
}
_COLUMNS = CSV_HEADER.split(",")


@functools.lru_cache(maxsize=4096)
def _row_cell(scheme: str, k: str, s: str, n: str, param: str, bits: str) -> MappingProxyType:
    """A row's scheme, k, s, n, eps_or_ell and bits_per_user parsed from their text, and its Cell under "cell", read-only.

    k, s and n must be integers (see _field), and so must param for comm_hash,
    so an ell reaches Cell as the integer it was written as; an epsilon must
    be a finite number. The Cell checks that they name a grid point, and its
    message is wrapped; bits must be the Cell's bits. Raises ValueError
    saying what fails. Memoised, as a file repeats each cell's text once per
    trial.
    """
    values = _INTEGER("k", k), _INTEGER("s", s), _INTEGER("n", n), (_INTEGER if scheme == "comm_hash" else _FINITE)("eps_or_ell", param)
    try:
        cell = Cell(scheme, *values)
    except ValueError as err:
        raise ValueError(f"names no cell a grid can hold: {err}") from None
    if bits != str(cell.bits):
        raise ValueError(f"field bits_per_user is {bits!r}, not {cell.bits}, the bits a user sends in this cell")
    return MappingProxyType(dict(scheme=scheme, k=cell.k, s=cell.s, n=cell.n, eps_or_ell=cell.param, bits_per_user=cell.bits, cell=cell))


def _parse_row(path: str, line_no: int, line: str) -> dict:
    """A results row as a dict of its parsed fields, in header order, then its Cell under "cell".

    Raises ValueError naming path and line unless the row has the header's
    field count, names a Cell with that Cell's bits (see _row_cell), and
    holds a trial >= 0, a tv_error in [0, 1], a seed in [0, 2^64) and
    SAMPLER_VERSION; the message gives the field that fails or the Cell's
    reason.
    """
    parts = line.split(",")
    if len(parts) != len(_COLUMNS):
        raise ValueError(f"{path}: line {line_no} has {len(parts)} fields, not the header's {len(_COLUMNS)}")
    row = dict(zip(_COLUMNS, parts))
    try:
        fields = _row_cell(*parts[:5], row["bits_per_user"])
        for name, parse in _TRIAL_FIELDS.items():
            row[name] = parse(name, row[name])
    except ValueError as err:
        raise ValueError(f"{path}: line {line_no} {err}") from None
    row.update(fields)
    return row


def _read_rows(path: str) -> tuple[list[dict], int]:
    """The parsed rows of a results CSV, and the byte length of its torn last line.

    Reads path once. Raises ValueError naming path unless the first line is
    CSV_HEADER (naming both sampler versions and asking for a new file when
    it is sampler 2's header) and every row parses (see _parse_row: a row
    must name a Cell, which checks the rules of a grid point, write its
    integers as the harness does and carry its Cell's bits, and a row of
    another sampler than SAMPLER_VERSION does not parse), and naming a row's
    line and the earlier line it repeats if two rows record one (Cell,
    trial), their Cells compared by value (0.50 is 0.5): a repeat would
    count as another trial and mark its cell done.
    Rows are written whole, each ending in a newline, so a last line with no
    newline is a write cut short by a crash, not a row: it is left out and
    its length in bytes returned (0 when the file ends in a newline). A torn
    first line must be a prefix of the header. Blank lines are skipped.
    """
    rows = []
    first_line = {}  # (cell, trial) -> the line that holds it
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
                earlier = first_line.setdefault((row["cell"], row["trial"]), line_no)
                if earlier != line_no:
                    raise ValueError(f"{path}: line {line_no} repeats the (cell, trial) of line {earlier}")
                rows.append(row)
    return rows, torn


def _group_rows(members: list[tuple[Cell, list[int]]], trials: list[int], seeds: list[int]) -> str:
    """A run's CSV rows as one string, member by member, from one stacked batch of the union of their pending trials.

    members are the (cell, pending trials) pairs of a run, cells adjacent
    in grid order that share a cell_hash, trials the sorted union of their
    pending trials and seeds those trials' integer seeds. A trial's result
    does not depend on its batch, so each member's rows are those it would
    get alone: the cell (its own param text and bits), each trial's TV
    error (repr), seed and SAMPLER_VERSION. Errors name the first member.
    """
    tv_of = dict(zip(trials, _cell_errors(members[0][0], seeds).tolist()))
    seed_of = dict(zip(trials, seeds))
    out = []
    for cell, pending in members:
        head = f"{cell.scheme},{cell.k},{cell.s},{cell.n},{_param_text(cell.param)}"
        out.extend(f"{head},{t},{tv_of[t]!r},{cell.bits},{seed_of[t]},{SAMPLER_VERSION}\n" for t in pending)
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
    done = {(r["cell"], r["trial"]): r["seed"] for r in rows}
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
            found = done.get((cell, t))
            if found is None:
                pending.append(t)
            elif found != seeds[t]:
                raise ValueError(
                    f"{out_path}: row ({cell.scheme}, s={cell.s}, {_param_text(cell.param)}, trial {t}) has seed "
                    f"{found}, but master seed {seed} gives {seeds[t]}; "
                    "resume with the master seed the file was written with, or use a new file"
                )
        if pending:
            if not members:
                runs.append((members, seeds))
            members.append((cell, pending))
    for i, (members, seeds) in enumerate(runs):
        trials = sorted(set().union(*(pending for _, pending in members)))
        runs[i] = (members, trials, [seeds[t] for t in trials])

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

    Rows are grouped by the Cell their scheme, k, s, n and eps_or_ell name.
    eps_or_ell is a number (read_results parses it, and a hand-built row
    holds one), which Cell alone makes canonical, so a param is grouped by
    its value (0.50 is 0.5) and written as the harness writes it, and a row
    naming no grid point is refused as Cell refuses it. A single-trial cell
    has stderr 0 and is flagged degenerate. Cells are ordered by (scheme, k,
    n, constraint value, s), one series per constraint value with s as the
    x axis.
    """
    groups: dict[Cell, list[float]] = {}
    for row in rows:
        cell = Cell(row["scheme"], row["k"], row["s"], row["n"], row["eps_or_ell"])
        groups.setdefault(cell, []).append(row["tv_error"])
    out = []
    for cell in sorted(groups, key=lambda c: (c.scheme, c.k, c.n, c.param, c.s)):
        errs = np.asarray(groups[cell])
        stderr = float(errs.std(ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
        out.append(
            {
                "scheme": cell.scheme,
                "k": cell.k,
                "n": cell.n,
                "eps_or_ell": _param_text(cell.param),
                "s": cell.s,
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
