"""Monte Carlo pathway simulation over the time grid.

Each run chains realised scenarios period by period: cyclic descriptors
transition stochastically and are locked, the cross-impact matrix is
sampled (and structurally shocked) per the configured policy, AR(1) score
perturbations are advanced once per period, and within-period succession
iterates to its attractor. Run randomness comes solely from sub-streams
derived from (master seed, run index, period, purpose), so ensembles are
byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import eq
from typing import NamedTuple, Optional, TextIO

import numpy as np

from .engine import Scenario, balances, check_arguments, settle
from .errors import ConfigError, EmptyInputError, InfeasibilityError, ParseError
from .model import StructuralShockConfig, StudySpec, child, compact_json, json_int, json_rows
from .uncertainty import (
    RandomSource, ar1_step, check_persistence, draw_factor, perturbed, sampled_scores,
)

# Not called here, but perfbench/bench_trace.py patches them in this namespace.
from .engine import succession_step  # noqa: F401
from .uncertainty import advance_dynamic_shock, apply_structural_shock, sample_cim  # noqa: F401

DEFAULT_MAX_ITER = 100

#: The purposes of a period's sub-streams, the last part of their names.
PURPOSES = ("cim", "structural", "cyclic", "dynamic")

#: Runs whose sub-streams one StreamBlock derives; its table of PCG64
#: states then takes 32 bytes x BLOCK_RUNS x periods x len(PURPOSES).
BLOCK_RUNS = 256

#: Samples whose sub-streams robustness_fraction derives in one StreamBlock
#: and whose shocked matrices it stacks, at 8 bytes a cell: 19 MB for 12
#: descriptors of 4 states.
ROBUSTNESS_CHUNK = 1024


@dataclass(frozen=True)
class Pathway:
    """Period-indexed sequence of realised scenarios."""

    entries: tuple[tuple[int, Scenario], ...]

    @property
    def periods(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)

    @property
    def scenarios(self) -> tuple[Scenario, ...]:
        return tuple(z for _, z in self.entries)

    def terminal(self) -> Scenario:
        return self.entries[-1][1]

    def to_doc(self) -> dict:
        """The {"periods", "states"} form of candidates in candidates.json."""
        return {"periods": list(self.periods), "states": [list(z) for z in self.scenarios]}

    @classmethod
    def from_doc(cls, doc: dict, path: str) -> Pathway:
        """Read the to_doc form of the JSON node at path; a missing node, one
        of the wrong JSON type or lists of different lengths raise ParseError
        naming it."""
        periods, states = child(doc, "periods", [int], path), child(doc, "states", [[int]], path)
        if len(periods) != len(states):
            raise ParseError(path, f"{len(periods)} periods but {len(states)} state rows")
        return cls(tuple(zip(periods, map(tuple, states))))


@dataclass(frozen=True)
class RunRecord:
    run_index: int
    pathway: Pathway
    converged: tuple[bool, ...]
    succession_iterations: tuple[int, ...]
    error: Optional[str] = None


class PathwayIndex(NamedTuple):
    """The distinct pathways of the rows of an ensemble's ok_states, in
    first-occurrence order, and their terminal groups; runs are rows."""

    first: np.ndarray  # each pathway's first run, ascending
    terminal: np.ndarray  # its terminal group; groups in lexicographic terminal order
    rank: np.ndarray  # its place in the order of terminal scenario, then periods 0..P-2
    terminal_counts: np.ndarray  # the runs of each terminal group
    terminal_runs: np.ndarray  # one run of each terminal group


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """A simulated ensemble as arrays, in run order; the arrays are
    read-only, since every caller shares them. Run r recorded the first
    lengths[r] periods of time_grid, and past them its states, flags and
    iteration counts are zero. errors maps each run that ended in an
    InfeasibilityError to its text."""

    spec_digest: str
    master_seed: int
    time_grid: tuple[int, ...]
    states: np.ndarray  # (runs, periods, descriptors) int8
    converged: np.ndarray  # (runs, periods) bool
    iterations: np.ndarray  # (runs, periods) int64
    lengths: np.ndarray  # (runs,)
    errors: dict  # run index -> error text

    def __post_init__(self):
        for array in self._arrays():
            array.flags.writeable = False

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.states, self.converged, self.iterations, self.lengths

    def __eq__(self, other):
        if not isinstance(other, EnsembleResult):
            return NotImplemented
        return (self.spec_digest, self.master_seed, self.time_grid, self.errors) == (
            other.spec_digest, other.master_seed, other.time_grid, other.errors
        ) and all(map(np.array_equal, self._arrays(), other._arrays()))

    @property
    def run_count(self) -> int:
        return len(self.states)

    @property
    def runs(self) -> RunView:
        """Every run's RunRecord, in run order."""
        return RunView(self, np.arange(self.run_count))

    def ok_runs(self) -> RunView:
        """The RunRecords of the runs without an error, in run order."""
        return RunView(self, np.setdiff1d(np.arange(self.run_count), list(self.errors)))

    @cached_property
    def ok_states(self) -> np.ndarray:
        """The states of the error-free runs, (runs, periods, descriptors);
        read-only. An ensemble without one raises EmptyInputError."""
        ok = np.ones(self.run_count, bool)
        ok[list(self.errors)] = False
        if not ok.any():
            raise EmptyInputError("ensemble holds no successful runs")
        states = self.states if ok.all() else self.states[ok]
        states.flags.writeable = False
        return states

    @cached_property
    def pathway_index(self) -> PathwayIndex:
        """One stable lexsort of ok_states' rows, the terminal period's
        columns leading. Adjacent sorted rows that differ start a pathway
        group, and those that differ at the terminal period a terminal
        group; being stable, the sort puts each group's first run first."""
        flat = self.ok_states.reshape(len(self.ok_states), -1)
        tail = flat.shape[1] - self.states.shape[2]  # the terminal period's first column
        columns = [*range(tail, flat.shape[1]), *range(tail)]  # leading key first
        order = np.lexsort([flat[:, c] for c in reversed(columns)])
        ordered = flat[order]
        differs = ordered[1:] != ordered[:-1]
        term_starts = np.r_[True, differs[:, tail:].any(1)]
        starts = term_starts | np.r_[True, differs[:, :tail].any(1)]
        rank, term_at = np.argsort(order[starts]), np.flatnonzero(term_starts)
        terminal = (np.cumsum(term_starts) - 1)[starts]
        return PathwayIndex(order[starts][rank], terminal[rank], rank,
                            np.diff(np.r_[term_at, len(flat)]), order[term_at])

class RunView(Sequence):
    """The RunRecords of an ensemble's runs at run_indices, in that order.
    They are built from the ensemble's arrays by _records a BLOCK_RUNS
    block at a time as they are read, and none is kept. A slice is a view
    too, and a view equals any sequence of the same records."""

    def __init__(self, ensemble: EnsembleResult, run_indices: np.ndarray):
        self.ensemble, self.run_indices = ensemble, run_indices

    def __len__(self) -> int:
        return len(self.run_indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RunView(self.ensemble, self.run_indices[i])
        return self._block([int(self.run_indices[i])])[0]

    def __iter__(self):
        for a in range(0, len(self), BLOCK_RUNS):
            yield from self._block(self.run_indices[a:a + BLOCK_RUNS].tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def _block(self, runs: list[int]) -> list[RunRecord]:
        ens = self.ensemble
        block = BlockResult(runs, *(x[runs] for x in ens._arrays()), list(map(ens.errors.get, runs)))
        return _records(block, ens.time_grid)


def _cyclic_moves(moves, prior: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The stochastic ordinal move of every cyclic descriptor in every row
    of prior (runs, cyclic descriptors): descriptor j, in order, moves under
    moves[j], a (params, state count) pair. It stays, or moves one or two
    steps, up with probability (1 + drift) / 2; a move past the scale's
    edge stays put. Each row takes its uniforms in order from its row of
    uniforms: one for a stay, two for a move."""
    current = prior.astype(np.int64)
    rows = np.arange(len(current))
    drawn = np.zeros(len(current), np.int64)
    for j, (params, count) in enumerate(moves):
        r = uniforms[rows, drawn]
        stay = r < params.stay
        steps = np.where(r < params.stay + params.step, 1, 2)
        up = uniforms[rows, drawn + 1] < (1.0 + params.drift) / 2.0
        target = current[:, j] + np.where(up, steps, -steps)
        move = ~stay & (target >= 0) & (target < count)
        current[move, j] = target[move]
        drawn += np.where(stay, 1, 2)
    return current


class BlockResult(NamedTuple):
    """A block's runs as arrays, in the order of runs. Run b recorded the
    first lengths[b] periods; errors[b] is its InfeasibilityError text or None."""

    runs: Sequence[int]
    states: np.ndarray  # (runs, periods, descriptors) int8; zero past a run's length
    converged: np.ndarray  # (runs, periods) bool; False past a run's length
    iterations: np.ndarray  # (runs, periods) int64; zero past a run's length
    lengths: np.ndarray  # (runs,)
    errors: list


def _check_invariants(spec: StudySpec, max_iter: int) -> None:
    """What every period of every run relies on, checked once per ensemble.
    (A Student-t df <= 2 raises when the block scales its draws.)"""
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1 (got {max_iter})")
    check_arguments(spec, spec.cim, spec.baseline)
    if spec.shocks.dynamic.enabled:
        check_persistence(spec.shocks.dynamic.persistence)


def _simulate_block(
    spec: StudySpec, source: RandomSource, runs: range, max_iter: int
) -> BlockResult:
    """Simulate runs together, period by period: the baseline verbatim at
    the first period, then cyclic transitions, the period matrix (under the
    per_run policy, the one drawn from the first period's "cim" stream), one
    AR(1) step and succession with the cyclic descriptors locked.

    Each drawn stream fills its run's buffer row (StreamBlock.fill), so it
    gives the same draws in the same order as one run at a time. The cyclic
    moves take their uniforms from StreamBlock.uniforms and run on arrays
    (_cyclic_moves). The sigma scaling, the add, clip and zero of the
    matrices and the AR(1) update are elementwise, so doing them once per
    block and period gives the same floats.
    """
    grid, cim = spec.time_grid, spec.cim
    sampling = spec.uncertainty.sampling_distribution
    per_run = spec.uncertainty.resample == "per_run"
    structural, dynamic = spec.shocks.structural, spec.shocks.dynamic
    streams = source.block(runs, grid, PURPOSES)
    run_stride, period_stride, _ = streams.strides
    n, periods = len(runs), len(grid)
    states = np.zeros((n, periods, len(spec.descriptors)), np.int8)
    states[:, 0] = spec.baseline
    converged = np.zeros((n, periods), bool)
    converged[:, 0] = True
    iterations = np.zeros((n, periods), np.int64)
    lengths = np.full(n, periods)
    errors: list[Optional[str]] = [None] * n
    noise = np.zeros((n,) + cim.scores.shape)
    shock = np.zeros_like(noise)
    eta = np.zeros(noise.shape[:3])
    innovation = np.zeros_like(eta)
    # (purpose's stream offset, distribution, buffer with a row per run)
    draws = [] if per_run else [(PURPOSES.index("cim"), sampling, noise)]
    if structural.enabled:
        draws.append((PURPOSES.index("structural"), structural.distribution, shock))
    if dynamic.enabled:
        draws.append((PURPOSES.index("dynamic"), dynamic.distribution, innovation))
    cyclic = list(spec.cyclic_indices)
    moves = [(spec.descriptors[j].cyclic_params, spec.state_counts[j]) for j in cyclic]
    locked = np.zeros(len(spec.descriptors), bool)
    locked[cyclic] = True
    if per_run:
        streams.fill(np.arange(n) * run_stride + PURPOSES.index("cim"), sampling, noise)
        sampled = sampled_scores(spec, noise, grid[0])

    alive = np.arange(n)
    for p in range(1, periods):
        if not alive.size:
            break
        base = alive * run_stride + p * period_stride  # each run's period streams start here
        members = alive.tolist()
        for offset, distribution, rows in draws:
            streams.fill(base + offset, distribution, [rows[b] for b in members])
        start = states[:, p - 1].copy()
        if cyclic:
            uniforms = streams.uniforms(base + PURPOSES.index("cyclic"), 2 * len(cyclic))
            start[alive[:, None], cyclic] = _cyclic_moves(moves, start[alive][:, cyclic], uniforms)
        scores = sampled if per_run else sampled_scores(spec, noise, grid[p])
        if structural.enabled:
            shock *= draw_factor(structural.distribution, structural.scale)
            scores = perturbed(cim, scores, shock)
        if dynamic.enabled:
            eta = ar1_step(eta, innovation, dynamic)
        settled = settle(spec, scores, eta, start, alive, locked, max_iter)
        ok = settled.stuck < 0
        for b, j in zip(alive[~ok].tolist(), settled.stuck[~ok].tolist()):
            errors[b] = str(InfeasibilityError(spec.descriptors[j].id))
            lengths[b] = p
        innovation[alive[~ok]] = 0.0  # no longer drawn into; unclipped, it must not grow
        alive, kept = alive[ok], np.flatnonzero(ok)
        first, length = settled.first[kept], settled.length[kept]
        # A fixed point is realised after the steps to it. Otherwise the run
        # takes the scenario max_iter steps reach: on a cycle entered at step
        # f with length L, sequence[f + (max_iter - f) % L]; with no
        # recurrence (L = 0), the last one, at f = max_iter.
        at = first + (max_iter - first) % np.maximum(length, 1)
        states[alive, p] = settled.sequence[kept, at]
        converged[alive, p] = length == 1
        iterations[alive, p] = np.where(length == 1, first, max_iter)
    return BlockResult(runs, states, converged, iterations, lengths, errors)


def _records(block: BlockResult, grid: tuple[int, ...]) -> list[RunRecord]:
    states, converged = block.states.tolist(), block.converged.tolist()
    iterations, lengths = block.iterations.tolist(), block.lengths.tolist()
    return [
        RunRecord(
            run, Pathway(tuple(zip(grid, map(tuple, states[b][: lengths[b]])))),
            tuple(converged[b][: lengths[b]]), tuple(iterations[b][: lengths[b]]),
            block.errors[b],
        )
        for b, run in enumerate(block.runs)
    ]


def simulate_ensemble(
    spec: StudySpec,
    run_count: int,
    master_seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
    worker_count: int = 1,
) -> EnsembleResult:
    """Independent Monte Carlo runs, assembled in run-index order, one
    block of BLOCK_RUNS runs per task.

    Output is identical for any worker_count because each run's randomness
    is derived purely from (master_seed, run index, period, purpose).
    """
    if run_count < 1:
        raise ConfigError(f"run_count must be >= 1 (got {run_count})")
    if worker_count < 1:
        raise ConfigError(f"worker_count must be >= 1 (got {worker_count})")
    _check_invariants(spec, max_iter)
    blocks = [range(a, min(a + BLOCK_RUNS, run_count)) for a in range(0, run_count, BLOCK_RUNS)]
    args = (repeat(spec), repeat(RandomSource(master_seed)), blocks, repeat(max_iter))
    if worker_count == 1 or len(blocks) == 1:
        results = list(map(_simulate_block, *args))
    else:
        with ProcessPoolExecutor(max_workers=min(worker_count, len(blocks))) as pool:
            results = list(pool.map(_simulate_block, *args))
    columns = zip(*(block[1:5] for block in results))  # states, converged, iterations, lengths
    return EnsembleResult(
        spec.digest(), master_seed, spec.time_grid, *map(np.concatenate, columns),
        {run: e for block in results for run, e in zip(block.runs, block.errors) if e is not None},
    )


def robustness_fraction(
    spec: StudySpec,
    scenario: Scenario,
    shock_config: StructuralShockConfig,
    sample_count: int,
    master_seed: int,
) -> float:
    """Fraction of structurally shocked matrices (drawn around the point
    estimates) under which the scenario stays consistent.

    Sample s's matrix is apply_structural_shock(spec.cim, its stream
    ("robustness", s), shock_config). A chunk of ROBUSTNESS_CHUNK samples
    is drawn at once: each stream fills its row of one noise stack, the
    scaling, the add, clip and zero run once on the stack (they are
    elementwise, so the floats are the same), and the scenario is checked
    under every matrix of the stack with one call to balances."""
    if sample_count < 1:
        raise ConfigError(f"sample_count must be >= 1 (got {sample_count})")
    check_arguments(spec, spec.cim, scenario)
    factor = draw_factor(shock_config.distribution, shock_config.scale)
    source, hits = RandomSource(master_seed), 0
    buffer = np.empty((min(ROBUSTNESS_CHUNK, sample_count),) + spec.cim.scores.shape)
    for first in range(0, sample_count, ROBUSTNESS_CHUNK):  # memory bounded by the chunk
        samples = range(first, min(first + ROBUSTNESS_CHUNK, sample_count))
        noise = buffer[:len(samples)]
        streams = source.block(("robustness",), samples)
        streams.fill(range(len(samples)), shock_config.distribution, noise)
        noise *= factor
        shocked = perturbed(spec.cim, spec.cim.scores, noise)
        states = np.broadcast_to(np.array(scenario), (len(samples), len(scenario)))
        _, deficits = balances(spec, shocked, states)
        hits += int(np.count_nonzero(~deficits.any(1)))
    return hits / sample_count


# ---------------------------------------------------------------------------
# Ensemble file format: a JSON header line, then one line per run holding a
# flat JSON array of integers: the run index, the number of periods the run
# recorded, its states period by period, its converged flags (0 or 1) and its
# succession iterations, zero past the recorded periods.

#: The layout this version writes; load_ensemble reads no other.
ENSEMBLE_FORMAT = "cibpath-ensemble/2"

#: Header fields and their JSON types (bool is not an int here).
_HEADER_TYPES = {
    "descriptors": int, "errors": [list], "master_seed": int, "run_count": int,
    "spec_digest": str, "time_grid": [int],
}

#: Run records that write_ensemble renders, and _parse_records decodes into one
#: reused int64 buffer, at a time; a chunk's decoding takes some 33 bytes a number.
RECORD_CHUNK = 512

#: The byte values of the record syntax.
_COMMA, _CLOSE, _OPEN, _MINUS, _NEWLINE, _ZERO = b",][-\n0"
_INT64 = np.iinfo(np.int64)


def write_ensemble(ensemble: EnsembleResult, fh: TextIO) -> None:
    """Write the header line, then one record line per run. The records
    are rendered RECORD_CHUNK runs at a time from the ensemble's arrays, by
    json_rows, with the bytes json.dumps gives each row."""
    n, _, width = ensemble.states.shape
    header = {
        "descriptors": width,
        "errors": [[run, text] for run, text in sorted(ensemble.errors.items())],
        "format": ENSEMBLE_FORMAT,
        "master_seed": ensemble.master_seed,
        "run_count": n,
        "spec_digest": ensemble.spec_digest,
        "time_grid": list(ensemble.time_grid),
    }
    fh.write(compact_json(header) + "\n")
    for start in range(0, n, RECORD_CHUNK):
        chunk = slice(start, start + RECORD_CHUNK)
        states = ensemble.states[chunk]
        rows = np.concatenate([
            np.arange(start, start + len(states))[:, None], ensemble.lengths[chunk, None],
            states.reshape(len(states), -1), ensemble.converged[chunk], ensemble.iterations[chunk],
        ], axis=1, dtype=np.int64)
        fh.write(json_rows(rows, [b"["], 0, b"]\n").decode("ascii"))


def save_ensemble(ensemble: EnsembleResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_ensemble(ensemble, fh)


def load_ensemble(path: str) -> EnsembleResult:
    """Read an ensemble file, checking it once, here: the header's fields and
    their types, one record per run of the header's width, then (0) run
    indices 0 to n - 1 in order, (1-3) an error text for exactly the runs
    that stop before the end of the time grid, (4-6) zeros past a run's
    recorded periods, (7) 0/1 flags, (8) non-negative iteration counts and
    (9) states that fit int8, as _parse_records decodes each chunk. A
    failure raises ParseError naming ``header`` or ``runs[i]``: a record
    that is not such an array, else the first run failing the first check
    that fails. A header that is not UTF-8 or not JSON raises
    UnicodeDecodeError or JSONDecodeError. CRLF line ends read as LF; only
    a file that holds a carriage return is copied to replace them."""
    with open(path, "rb") as fh:
        text = fh.read()  # in one piece: a read after a readline copies what it reads
    if b"\r" in text:  # CRLF line ends, as an editor may leave them, read as LF
        text = text.replace(b"\r\n", b"\n")
    node, start = f"{path}: header", text.find(b"\n") + 1 or len(text)  # where records begin
    header = json.loads(text[:start].removesuffix(b"\n").decode("utf-8"), parse_int=json_int(node))
    header = _checked_header(header, node)
    grid, width, n = header["time_grid"], header["descriptors"], header["run_count"]
    errors, periods, cells = dict(header["errors"]), len(grid), len(grid) * width
    chunks = _parse_records(memoryview(text)[start:], n, 2 + cells + 2 * periods, path)
    states, converged = np.empty((n, periods, width), np.int8), np.empty((n, periods), bool)
    iterations, lengths = np.empty((n, periods), np.int64), np.empty(n, np.int64)
    errored, failures = np.array(list(errors), np.int64), {}  # check -> its first failure
    for at, values in chunks:
        runs, rows = values[:, 0], np.arange(at.start, at.stop)
        chunk = values[:, 2:2 + cells], values[:, 2 + cells:-periods], values[:, -periods:]
        if 0 not in failures and not np.array_equal(runs, rows):
            failures[0] = _refusal(path, runs, runs != rows, "run index {}, expected {run}", rows)
        lo, hi = np.searchsorted(errored, (at.start, at.stop))
        if lo < hi:  # only the errored runs stop early, so only they have cells past their periods
            early, names = errored[lo:hi] - at.start, ("state", "converged flag", "iteration count")
            past = (np.arange(periods) >= values[early, 1, None])[:, :, None]
            for check, column, name in zip((4, 5, 6), chunk, names):
                cut = column[early].reshape(len(early), periods, -1)
                if check not in failures and ((cut != 0) & past).any():
                    reason = name + " {} past the recorded periods"
                    failures[check] = _refusal(path, cut, (cut != 0) & past, reason, rows[early])
        for check, column, top, reason in (  # read before their cast to bool and int8
            (7, chunk[1], 1, "converged flag {} is not 0 or 1"),
            (9, chunk[0], 127, "state {} is not a state index (0 to 127)"),
        ):
            if check not in failures and column.view(np.uint64).max() > top:
                failures[check] = _refusal(path, column, column.view(np.uint64) > top, reason, rows)
        lengths[at], converged[at], iterations[at] = values[:, 1], chunk[1], chunk[2]
        states.reshape(n, cells)[at] = chunk[0]
    in_error, full = np.zeros(n, bool), lengths == periods
    in_error[errored] = True
    for check, column, bad, reason in (
        (1, lengths, (lengths < 1) | (lengths > periods),
         f"{{}} periods recorded, but the time grid has {periods}"),
        (2, lengths, in_error & full, "ends in an error but records all {} periods"),
        (3, lengths, ~in_error & ~full,
         f"{{}} of the time grid's {periods} periods recorded, but no error"),
        (8, iterations, iterations.view(np.uint64) >= _INT64.max,
         "iteration count {} is not a non-negative 64-bit integer"),
    ):
        if bad.any():
            failures[check] = _refusal(path, column, bad, reason, range(n))
    if failures:
        raise failures[min(failures)]
    return EnsembleResult(header["spec_digest"], header["master_seed"], tuple(grid), states,
                          converged, iterations, lengths, errors)


def _refusal(path: str, column: np.ndarray, bad: np.ndarray, reason: str, runs) -> ParseError:
    """The ParseError naming the first run that bad marks, with reason
    formatted by its value in column; runs are the runs of bad's rows."""
    at = np.unravel_index(bad.argmax(), bad.shape)
    run = runs[at[0]]
    return ParseError(f"{path}: runs[{run}]", reason.format(column[at], run=run))


def _checked_header(header, node: str) -> dict:
    """The header, once its format, field types, time grid and error list
    are checked."""
    found = child(header, "format", str, node, None)
    if found != ENSEMBLE_FORMAT:
        found = "no format field" if found is None else f"format {found!r}"
        raise ParseError(node, (
            f"{found}, but this cibpath reads {ENSEMBLE_FORMAT!r}; "
            "re-run `cibpath simulate` to write the ensemble again"
        ))
    for key, kind in _HEADER_TYPES.items():
        child(header, key, kind, node)
    if not header["time_grid"]:
        raise ParseError(f"{node}.time_grid", "no periods")
    n, last = header["run_count"], -1
    if header["descriptors"] < 1 or n < 0:
        raise ParseError(node, "descriptors must be >= 1 and run_count >= 0")
    for i, entry in enumerate(header["errors"]):
        path = f"{node}.errors[{i}]"
        run, _ = child(entry, 0, int, path), child(entry, 1, str, path)
        if len(entry) != 2 or not last < run < n:
            raise ParseError(path, (
                f"{entry!r} is not a [run, text] pair with a run index above the "
                "previous entry's and below run_count, and a text"
            ))
        last = run
    return header


def _parse_records(body, run_count: int, width: int, path: str):
    """The run records, one line per run, each a compact JSON array of
    width integers: an iterator of (slice of runs, (runs, width) int64
    array) for each RECORD_CHUNK runs in turn, the array one reused buffer.

    The bytes of body are viewed as a uint8 array and their line ends
    indexed and counted, and run_count records of width numbers checked to
    fit in body's bytes, on the call, before load_ensemble allocates its
    arrays; _decode_records decodes each chunk as it is read. A number
    beyond int64, on either side, reads as int64's largest value, which
    load_ensemble's range checks refuse. A chunk holding a line that is not
    such an array has its lines checked one at a time, by the same check,
    and the first that fails is named as runs[i]: a chunk fails exactly
    when one of its lines does, since every check adds up per-line counts."""
    data = np.frombuffer(body, np.uint8)
    if len(data) and data[-1] != _NEWLINE:
        data = np.append(data, np.uint8(_NEWLINE))
    ends = np.flatnonzero(data == _NEWLINE)
    if len(ends) != run_count:
        raise ParseError(path, f"{len(ends)} run records, but the header says {run_count}")
    if run_count * width > len(data):  # a record takes 2 * width + 1 bytes or more
        raise ParseError(f"{path}: header", f"descriptors and time_grid give records of "
                         f"{width} numbers, more than {run_count} in {len(data)} bytes hold")
    def chunks():
        values = np.empty((min(RECORD_CHUNK, run_count), width), np.int64)
        for first in range(0, run_count, RECORD_CHUNK):
            stop = min(first + RECORD_CHUNK, run_count)
            lines, out = _lines(data, ends, first, stop), values[:stop - first]
            if not _decode_records(*lines, out):
                bad = next(i for i in range(first, stop)
                           if not _decode_records(*_lines(data, ends, i, i + 1), out[:1]))
                raise ParseError(f"{path}: runs[{bad}]", (
                    f"not a compact JSON array of {width} integers (run index, periods "
                    "recorded, states, converged flags, iterations)"
                ))
            yield slice(first, stop), out
    return chunks()


def _lines(data: np.ndarray, ends: np.ndarray, first: int, stop: int):
    """Lines first to stop - 1 of data, whose lines end at ends: their
    bytes, and the ends within them."""
    start = ends[first - 1] + 1 if first else 0
    return data[start:ends[stop - 1] + 1], ends[first:stop] - start


def _decode_records(text: np.ndarray, ends: np.ndarray, out: np.ndarray) -> bool:
    """Whether every line of text, a uint8 array whose lines end in the
    newlines at ends, is a compact JSON array of width integers, where out
    is a (lines, width) int64 array; if so, the numbers are written to out.

    The ',' and ']' bytes end the numbers. A line is a record when its
    first byte is '[' and its last ']', its width-th number ends at its ']',
    it holds no other '[' or ']' and no byte but digits, ',' and '-', no
    number is empty, and each '-' starts a number that has digits after it.
    The first byte of every number is read with one gather, which gives
    the one-digit numbers; only the longer ones are read digit by digit.
    """
    m, width = out.shape
    close = text == _CLOSE
    closes = np.count_nonzero(close)
    stops = np.flatnonzero(close | (text == _COMMA))
    if len(stops) != m * width or not (stops[width - 1::width] == ends - 1).all():
        return False
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    opens, minus = np.count_nonzero(text == _OPEN), np.count_nonzero(text == _MINUS)
    digits = np.count_nonzero((text - _ZERO) < 10)
    if not (
        opens == m == closes and (text[starts] == _OPEN).all() and (text[ends - 1] == _CLOSE).all()
        and digits + len(stops) + opens + minus + m == len(text)
    ):
        return False
    begin = np.empty_like(stops)
    begin[1:] = stops[:-1] + 1
    begin[::width] = starts + 1
    lead = text[begin]
    negative = lead == _MINUS
    if not (stops > begin).all() or np.count_nonzero(negative) != minus or (
        minus and not (stops[negative] > begin[negative] + 1).all()
    ):
        return False
    values = out.reshape(-1)
    np.subtract(lead, _ZERO, out=values, casting="unsafe")
    longer = np.flatnonzero(stops > begin + 1)
    if longer.size:
        values[longer] = _read_numbers(text, begin[longer], stops[longer], negative[longer])
    return True


def _read_numbers(text: np.ndarray, begin: np.ndarray, stops: np.ndarray, negative: np.ndarray):
    """The numbers text[begin:stops], '-' first where negative, as int64; a
    number beyond int64 reads as int64's largest value. Numbers of up to 18
    digits are read a decimal place at a time on arrays, longer ones (which
    may overflow) one at a time; past its leading zeros, one of 20 digits or
    more is beyond int64 and is not given to int(), which refuses thousands."""
    start = begin + negative
    count = stops - start
    kept = np.where(count <= 18, count, 0)
    values = np.zeros(len(begin), np.int64)
    for place in range(kept.max()):
        on = kept > place
        values[on] = values[on] * 10 + (text[start[on] + place] - _ZERO)
    np.negative(values, out=values, where=negative)
    for i in np.flatnonzero(count > 18):
        figures = text[start[i]:stops[i]].tobytes().lstrip(b"0") or b"0"
        number = int(text[begin[i]:start[i]].tobytes() + figures) if len(figures) < 20 else 10 ** 19
        values[i] = number if _INT64.min <= number <= _INT64.max else _INT64.max
    return values


def ensemble_digest(path: str) -> str:
    """Content hash of a file on disk: an ensemble or a manifest artifact."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()
