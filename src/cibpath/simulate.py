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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Optional, TextIO

import numpy as np

from .engine import Scenario, balances, checked_kernel, settle
from .errors import ConfigError, EmptyInputError, InfeasibilityError, ParseError
from .model import CyclicParams, StructuralShockConfig, StudySpec, child, compact_json
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

    @cached_property
    def runs(self) -> tuple[RunRecord, ...]:
        """One RunRecord per run, built on first use."""
        n = self.run_count
        errors = [self.errors.get(r) for r in range(n)]
        blocks = (  # a block at a time, so the lists tolist() makes stay small
            BlockResult(
                range(a, min(a + BLOCK_RUNS, n)), *(x[a:a + BLOCK_RUNS] for x in self._arrays()),
                errors[a:a + BLOCK_RUNS],
            )
            for a in range(0, n, BLOCK_RUNS)
        )
        return tuple(record for block in blocks for record in _records(block, self.time_grid))

    def ok_runs(self) -> tuple[RunRecord, ...]:
        return tuple(r for r in self.runs if r.error is None)

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


def transition_cyclic_state(
    params: CyclicParams, current: int, state_count: int, rng: np.random.Generator
) -> int:
    """Stochastic ordinal move: stay, one step, or two steps, direction up
    with probability (1 + drift) / 2. Moves blocked at the scale boundary
    stay put."""
    r = rng.random()
    if r < params.stay:
        return current
    steps = 1 if r < params.stay + params.step else 2
    up = rng.random() < (1.0 + params.drift) / 2.0
    target = current + (steps if up else -steps)
    if 0 <= target < state_count:
        return target
    return current


def _cyclic_moves(moves, prior: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """transition_cyclic_state on every row of prior (runs, cyclic
    descriptors) at once: descriptor j moves under moves[j], a (params,
    state count) pair, in order, and each row takes its draws of random()
    from its row of uniforms in order, as the function takes them from one
    stream: one for a stay, two for a move."""
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
    """A block's runs as arrays, in run order. Run b recorded the first
    lengths[b] periods; errors[b] is its InfeasibilityError text or None."""

    runs: range
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
    checked_kernel(spec, spec.cim, spec.baseline)
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
    grid, kernel, cim = spec.time_grid, spec.kernel, spec.cim
    sampling = spec.uncertainty.sampling_distribution
    per_run = spec.uncertainty.resample == "per_run"
    structural, dynamic = spec.shocks.structural, spec.shocks.dynamic
    streams = source.block(runs, grid, PURPOSES)
    run_stride, period_stride, _ = streams.strides
    n, periods = len(runs), len(grid)
    states = np.zeros((n, periods, len(kernel.ids)), np.int8)
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
    locked = np.zeros(len(kernel.ids), bool)
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
        settled = settle(kernel, scores, eta, start, alive, locked, max_iter)
        ok = settled.stuck < 0
        for b, j in zip(alive[~ok].tolist(), settled.stuck[~ok].tolist()):
            errors[b] = str(InfeasibilityError(kernel.ids[j]))
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
    kernel = checked_kernel(spec, spec.cim, scenario)
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
        _, deficits = balances(kernel, shocked, states)
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

#: Run records that write_ensemble renders, and _parse_records decodes, at a
#: time; decoding a chunk takes some 30 to 40 bytes of scratch space per number.
RECORD_CHUNK = 512

#: The byte values of the record syntax.
_COMMA, _CLOSE, _OPEN, _MINUS, _NEWLINE, _ZERO = b",][-\n0"
_INT64 = np.iinfo(np.int64)


def write_ensemble(ensemble: EnsembleResult, fh: TextIO) -> None:
    """Write the header line, then one record line per run. The records
    are rendered RECORD_CHUNK runs at a time from the ensemble's arrays, by
    _render_records, with the bytes json.dumps gives each row."""
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
        fh.write(_render_records(rows).decode("ascii"))


def save_ensemble(ensemble: EnsembleResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_ensemble(ensemble, fh)


def load_ensemble(path: str) -> EnsembleResult:
    """Read an ensemble file, checking it once, here: the header's fields and
    their types, one record per run of the header's width, run indices 0 to
    n - 1 in order, 0/1 flags, non-negative iteration counts, states that
    fit int8, zeros past a run's recorded periods, and an error text for
    exactly the runs that stop before the end of the time grid. A failure
    raises ParseError naming the node (``header`` or ``runs[i]``); a header
    that is not UTF-8 or not JSON raises UnicodeDecodeError or
    JSONDecodeError. CRLF line ends read as LF; only a file that holds a
    carriage return is copied to replace them. The records are decoded
    from the bytes by _parse_records."""
    with open(path, "rb") as fh:
        head, body = fh.readline(), fh.read()
    if b"\r" in head or b"\r" in body:  # CRLF line ends, as an editor may leave them, read as LF
        head, body = head.replace(b"\r\n", b"\n"), body.replace(b"\r\n", b"\n")
    header = json.loads(head.removesuffix(b"\n").decode("utf-8"))
    header = _checked_header(header, f"{path}: header")
    grid, width, n = header["time_grid"], header["descriptors"], header["run_count"]
    errors, periods = dict(header["errors"]), len(grid)
    values = _parse_records(body, n, 2 + periods * (width + 2), path)
    runs, lengths = values[:, 0], values[:, 1]
    states = values[:, 2:2 + periods * width].reshape(n, periods, width)
    converged, iterations = values[:, -2 * periods:-periods], values[:, -periods:]
    errored = np.zeros(n, bool)
    errored[list(errors)] = True
    full = lengths == periods
    _refuse(path, runs, runs != np.arange(n), "run index {}, expected {run}")
    _refuse(path, lengths, (lengths < 1) | (lengths > periods),
            f"{{}} periods recorded, but the time grid has {periods}")
    _refuse(path, lengths, errored & full, "ends in an error but records all {} periods")
    _refuse(path, lengths, ~errored & ~full,
            f"{{}} of the time grid's {periods} periods recorded, but no error")
    # only the errored runs stop early, so only they have cells past their periods
    early = np.flatnonzero(errored)
    past = np.arange(periods) >= lengths[early, None]
    for column, mask, name in (
        (states, past[:, :, None], "state"), (converged, past, "converged flag"),
        (iterations, past, "iteration count"),
    ):
        cut = column[early]
        _refuse(path, cut, (cut != 0) & mask, name + " {} past the recorded periods", early)
    _refuse(path, converged, converged.view(np.uint64) > 1, "converged flag {} is not 0 or 1")
    # _parse_records reads a number beyond int64 as its largest value
    _refuse(path, iterations, iterations.view(np.uint64) >= _INT64.max,
            "iteration count {} is not a non-negative 64-bit integer")
    cast = states.astype(np.int8)
    _refuse(path, states, (cast < 0) | (cast != states), "state {} is not a state index (0 to 127)")
    return EnsembleResult(
        header["spec_digest"], header["master_seed"], tuple(grid), cast,
        converged.astype(bool), np.ascontiguousarray(iterations), lengths.copy(), errors,
    )


def _refuse(path: str, column: np.ndarray, bad: np.ndarray, reason: str, runs=None) -> None:
    """ParseError naming the first run that bad marks, if any, with reason
    formatted by its value in column; runs, if given, are the runs of the
    rows of column and bad."""
    if bad.any():
        at = np.unravel_index(bad.argmax(), bad.shape)
        run = at[0] if runs is None else runs[at[0]]
        raise ParseError(f"{path}: runs[{run}]", reason.format(column[at], run=run))


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


def _parse_records(body: bytes, run_count: int, width: int, path: str) -> np.ndarray:
    """The run records as a (run_count, width) int64 array: one line per
    run, each a compact JSON array of width integers.

    The body is viewed as a uint8 array and its line ends indexed once;
    _decode_records then checks and decodes RECORD_CHUNK lines at a time.
    A number beyond int64, on either side, reads as int64's largest value,
    which load_ensemble's range checks refuse. A chunk holding a line that
    is not such an array is halved, by the same check, until its first
    such line is found; that line is named as runs[i].
    """
    if body and not body.endswith(b"\n"):
        body += b"\n"
    data = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(data == _NEWLINE)
    if len(ends) != run_count:
        raise ParseError(path, f"{len(ends)} run records, but the header says {run_count}")
    values = np.empty((run_count, width), np.int64)
    for first in range(0, run_count, RECORD_CHUNK):
        stop = min(first + RECORD_CHUNK, run_count)
        lines = _lines(data, ends, first, stop)
        if not _decode_records(*lines, values[first:stop]):
            bad = first + _first_bad_line(*lines, values[first:stop])
            raise ParseError(f"{path}: runs[{bad}]", (
                f"not a compact JSON array of {width} integers (run index, periods recorded, "
                "states, converged flags, iterations)"
            ))
    return values


def _lines(data: np.ndarray, ends: np.ndarray, first: int, stop: int):
    """Lines first to stop - 1 of data, whose lines end at ends: their
    bytes, and the ends within them."""
    start = ends[first - 1] + 1 if first else 0
    return data[start:ends[stop - 1] + 1], ends[first:stop] - start


def _first_bad_line(text: np.ndarray, ends: np.ndarray, out: np.ndarray) -> int:
    """The index of the first line of text that _decode_records refuses;
    there must be one. It overwrites out."""
    good, bad = 0, len(ends)  # lines [0, good) are records; [0, bad) holds one that is not
    while bad - good > 1:
        mid = (good + bad) // 2
        if _decode_records(*_lines(text, ends, good, mid), out[good:mid]):
            good = mid
        else:
            bad = mid
    return good


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
    lengths = stops - begin
    lead = text[begin]
    negative = lead == _MINUS
    if not (lengths > 0).all() or np.count_nonzero(negative) != minus or (
        minus and not (lengths[negative] > 1).all()
    ):
        return False
    values = out.reshape(-1)
    np.subtract(lead, _ZERO, out=values, casting="unsafe")
    longer = np.flatnonzero(lengths > 1)
    if longer.size:
        values[longer] = _read_numbers(text, begin[longer], stops[longer], negative[longer])
    return True


def _read_numbers(text: np.ndarray, begin: np.ndarray, stops: np.ndarray, negative: np.ndarray):
    """The numbers text[begin:stops], '-' first where negative, as int64; a
    number beyond int64 reads as int64's largest value. Numbers of up to 18
    digits are read a decimal place at a time on arrays, longer ones (which
    may overflow) one at a time."""
    start = begin + negative
    count = stops - start
    kept = np.where(count <= 18, count, 0)
    values = np.zeros(len(begin), np.int64)
    for place in range(kept.max()):
        on = kept > place
        values[on] = values[on] * 10 + (text[start[on] + place] - _ZERO)
    np.negative(values, out=values, where=negative)
    for i in np.flatnonzero(count > 18):
        number = int(text[begin[i]:stops[i]].tobytes())
        values[i] = number if _INT64.min <= number <= _INT64.max else _INT64.max
    return values


def _render_records(rows: np.ndarray) -> bytes:
    """rows, a (records, width) int64 array, as compact JSON arrays one a
    line: json.dumps(row, separators=(",", ":")) + "\\n" for each row.

    Each number's digits are worked out on arrays, units first, and placed
    with its separators in one uint8 buffer, so that no Python int or list
    is made per number.
    """
    m, width = rows.shape
    numbers = rows.ravel()
    negative = numbers < 0
    rest = numbers.astype(np.uint64)
    np.negative(rest, out=rest, where=negative)  # the magnitude; int64's least value too
    places = []  # per decimal place, units first: the numbers that have it and its digits
    index = np.arange(len(numbers))
    while index.size:
        higher = rest // 10
        places.append((index, (rest - higher * 10).astype(np.uint8)))
        more = np.flatnonzero(rest >= 10)
        index, rest = index[more], higher[more]
    digits = np.ones(len(numbers), np.int64)
    for have, _ in places[1:]:
        digits[have] += 1
    # a number takes its sign, its digits and the ',' or ']' after it; a line also '[' and '\n'
    stops = np.cumsum(digits + negative + 1).reshape(m, width) + 2 * np.arange(m)[:, None]
    text = np.full(stops[-1, -1] + 2 if m else 0, _COMMA, np.uint8)
    text[stops[:, -1]] = _CLOSE
    text[stops[:, -1] + 1] = _NEWLINE
    text[0:1] = _OPEN
    text[stops[:-1, -1] + 2] = _OPEN
    stops = stops.ravel()
    for place, (have, figures) in enumerate(places):
        text[stops[have] - 1 - place] = figures + _ZERO
    text[stops[negative] - digits[negative] - 1] = _MINUS
    return text.tobytes()


def ensemble_digest(path: str) -> str:
    """Content hash of a file on disk: an ensemble or a manifest artifact."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()
