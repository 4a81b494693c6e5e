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
from itertools import chain
from typing import Optional, TextIO, Union

import numpy as np

from .engine import Scenario, check_consistency, iterate_to_attractor, succession_step
from .errors import ConfigError, InfeasibilityError, ParseError, schema_error
from .model import CrossImpactMatrix, CyclicParams, StructuralShockConfig, StudySpec
from .uncertainty import (
    DynamicShockState,
    RandomSource,
    StreamBlock,
    advance_dynamic_shock,
    apply_structural_shock,
    sample_cim,
)

DEFAULT_MAX_ITER = 100

#: The purposes of a period's sub-streams, the last part of their names.
PURPOSES = ("cim", "structural", "cyclic", "dynamic")

#: Runs whose sub-streams one StreamBlock derives; its seed table then
#: takes 32 bytes x BLOCK_RUNS x periods x len(PURPOSES).
BLOCK_RUNS = 256


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

    def states_of(self, j: int) -> tuple[int, ...]:
        return tuple(z[j] for _, z in self.entries)

    def to_doc(self) -> dict:
        """The {"periods", "states"} form of ensemble and candidate files."""
        return {"periods": list(self.periods), "states": [list(z) for z in self.scenarios]}

    @classmethod
    def from_doc(cls, doc: dict, path: str) -> Pathway:
        """Read the to_doc form; a missing key or a non-list raises KeyError or
        TypeError, and lists of different lengths raise ParseError naming path."""
        periods, states = doc["periods"], doc["states"]
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


@dataclass(frozen=True)
class EnsembleResult:
    spec_digest: str
    master_seed: int
    run_count: int
    runs: tuple[RunRecord, ...]

    def ok_runs(self) -> tuple[RunRecord, ...]:
        return tuple(r for r in self.runs if r.error is None)

    @cached_property
    def states(self) -> np.ndarray:
        """Every run's scenarios, in run and period order, as one int8 array
        of shape (scenarios, descriptors); read-only, since every caller
        shares it. Raises ValueError when the scenarios differ in length,
        TypeError for a state that is not an integer (a float or a bool
        would be truncated) and OverflowError for a state beyond int8."""
        rows = [z for r in self.runs for _, z in r.pathway.entries]
        widths = set(map(len, rows))
        if len(widths) > 1:
            raise ValueError(f"scenarios of different lengths {sorted(widths)}")
        kinds = set(map(type, chain.from_iterable(rows)))
        odd = [k for k in kinds if k is bool or not issubclass(k, (int, np.integer))]
        if odd:
            raise TypeError(f"states of type {sorted(k.__name__ for k in odd)}")
        width = widths.pop() if widths else 0
        states = np.fromiter(chain.from_iterable(rows), np.int8, width * len(rows))
        states = states.reshape(len(rows), width)
        states.flags.writeable = False
        return states

    @cached_property
    def ok_states(self) -> np.ndarray:
        """The rows of ``states`` that belong to error-free runs, shaped
        (runs, periods, descriptors); read-only. Raises ValueError when the
        error-free runs differ in period count."""
        ok = [r.error is None for r in self.runs]
        sizes = [len(r.pathway.entries) for r in self.runs]
        periods = {n for n, keep in zip(sizes, ok) if keep}
        if len(periods) > 1:
            raise ValueError(f"error-free runs of different lengths {sorted(periods)}")
        rows = self.states if all(ok) else self.states[np.repeat(ok, sizes)]
        states = rows.reshape(sum(ok), periods.pop() if periods else 0, rows.shape[1])
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


def simulate_period(
    spec: StudySpec,
    prev: Scenario,
    period: int,
    shock_state: DynamicShockState,
    source: Union[RandomSource, StreamBlock],
    run_index: int,
    max_iter: int = DEFAULT_MAX_ITER,
    run_cim: Optional[CrossImpactMatrix] = None,
) -> tuple[Scenario, DynamicShockState, bool, int]:
    """Evolve one period: cyclic transitions, period matrix, one AR(1) step,
    then within-period succession with cyclic descriptors locked.

    source gives the sub-streams (run_index, period, purpose), one per
    purpose in PURPOSES: a RandomSource, or a StreamBlock that covers them.

    run_cim is the per-run sampled matrix under the per_run resample policy;
    when None the matrix is redrawn at this period's scale. Returns
    (realised scenario, new shock state, converged flag, iterations).

    A fixed point reached after k < max_iter steps is returned with
    converged=True and k iterations. Otherwise the period ends unconverged
    with max_iter iterations on the scenario that max_iter succession steps
    reach: on a succession cycle that is the member the parity of max_iter
    (modulo the cycle length) lands on, exactly as stepping to the cap
    would give, but found as soon as the cycle closes instead of by
    iterating to the cap.
    """
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1 (got {max_iter})")

    if run_cim is not None:
        period_cim = run_cim
    else:
        period_cim = sample_cim(spec, source.substream(run_index, period, "cim"), period)
    if spec.shocks.structural.enabled:
        period_cim = apply_structural_shock(
            period_cim,
            source.substream(run_index, period, "structural"),
            spec.shocks.structural,
        )

    locked: set[str] = set()
    start = list(prev)
    cyclic_rng = source.substream(run_index, period, "cyclic")
    for j in spec.cyclic_indices:
        d = spec.descriptors[j]
        start[j] = transition_cyclic_state(
            d.cyclic_params, prev[j], d.state_count, cyclic_rng
        )
        locked.add(d.id)

    if spec.shocks.dynamic.enabled:
        shock_state = advance_dynamic_shock(
            shock_state, source.substream(run_index, period, "dynamic")
        )
        perturbation = shock_state.eta
    else:
        perturbation = None

    locked_frozen = frozenset(locked)
    sequence, first = iterate_to_attractor(
        lambda z: succession_step(spec, period_cim, z, locked_frozen, perturbation),
        tuple(start),
        max_iter,
    )
    if first is None:
        return sequence[-1], shock_state, False, max_iter
    cycle = len(sequence) - first
    if cycle == 1:
        return sequence[first], shock_state, True, first
    return sequence[first + (max_iter - first) % cycle], shock_state, False, max_iter


def simulate_run(
    spec: StudySpec,
    run_index: int,
    source: Union[RandomSource, StreamBlock],
    max_iter: int = DEFAULT_MAX_ITER,
) -> RunRecord:
    """One full pathway: baseline verbatim at the first period, then chained
    per-period evolution. Infeasibility is recorded, not raised. source is
    as for simulate_period, for every period of the time grid."""
    grid = spec.time_grid
    first = grid[0]
    run_cim = None
    if spec.uncertainty.resample == "per_run":
        run_cim = sample_cim(spec, source.substream(run_index, first, "cim"), first)

    entries: list[tuple[int, Scenario]] = [(first, spec.baseline)]
    converged: list[bool] = [True]
    iterations: list[int] = [0]
    shock_state = DynamicShockState.initial(spec)
    scenario: Scenario = spec.baseline
    error = None
    for period in grid[1:]:
        try:
            scenario, shock_state, conv, iters = simulate_period(
                spec, scenario, period, shock_state, source, run_index, max_iter, run_cim
            )
        except InfeasibilityError as e:
            error = str(e)
            break
        entries.append((period, scenario))
        converged.append(conv)
        iterations.append(iters)
    return RunRecord(
        run_index=run_index,
        pathway=Pathway(tuple(entries)),
        converged=tuple(converged),
        succession_iterations=tuple(iterations),
        error=error,
    )


def _run_range(args) -> list[RunRecord]:
    spec, start, stop, master_seed, max_iter = args
    source = RandomSource(master_seed)
    runs = []
    for first in range(start, stop, BLOCK_RUNS):
        indices = range(first, min(first + BLOCK_RUNS, stop))
        block = source.block(indices, spec.time_grid, PURPOSES)
        runs.extend(simulate_run(spec, i, block, max_iter) for i in indices)
    return runs


def simulate_ensemble(
    spec: StudySpec,
    run_count: int,
    master_seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
    worker_count: int = 1,
) -> EnsembleResult:
    """Independent Monte Carlo runs, assembled in run-index order.

    Output is identical for any worker_count because each run's randomness
    is derived purely from (master_seed, run index, period, purpose).
    """
    if run_count < 1:
        raise ConfigError(f"run_count must be >= 1 (got {run_count})")
    if worker_count < 1:
        raise ConfigError(f"worker_count must be >= 1 (got {worker_count})")
    digest = spec.digest()
    if worker_count == 1 or run_count < 2 * worker_count:
        runs = _run_range((spec, 0, run_count, master_seed, max_iter))
    else:
        bounds = np.linspace(0, run_count, worker_count * 4 + 1, dtype=int)
        chunks = [
            (spec, int(a), int(b), master_seed, max_iter)
            for a, b in zip(bounds, bounds[1:])
            if b > a
        ]
        runs = []
        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            for part in pool.map(_run_range, chunks):
                runs.extend(part)
    return EnsembleResult(digest, master_seed, run_count, tuple(runs))


def robustness_fraction(
    spec: StudySpec,
    scenario: Scenario,
    shock_config: StructuralShockConfig,
    sample_count: int,
    master_seed: int,
) -> float:
    """Fraction of structurally shocked matrices (drawn around the point
    estimates) under which the scenario stays consistent."""
    if sample_count < 1:
        raise ConfigError(f"sample_count must be >= 1 (got {sample_count})")
    streams = RandomSource(master_seed).block(("robustness",), range(sample_count))
    hits = 0
    for s in range(sample_count):
        shocked = apply_structural_shock(
            spec.cim, streams.substream("robustness", s), shock_config
        )
        if check_consistency(spec, shocked, scenario).consistent:
            hits += 1
    return hits / sample_count


# ---------------------------------------------------------------------------
# Ensemble file format: one JSON header line, then one JSON record per run.


def write_ensemble(ensemble: EnsembleResult, fh: TextIO) -> None:
    header = {
        "spec_digest": ensemble.spec_digest,
        "master_seed": ensemble.master_seed,
        "run_count": ensemble.run_count,
    }
    fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    for r in ensemble.runs:
        rec = {
            "run": r.run_index,
            **r.pathway.to_doc(),
            "converged": list(r.converged),
            "iterations": list(r.succession_iterations),
        }
        if r.error is not None:
            rec["error"] = r.error
        fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def save_ensemble(ensemble: EnsembleResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_ensemble(ensemble, fh)


def load_ensemble(path: str) -> EnsembleResult:
    """Read an ensemble file; a missing key or a record that is not a JSON
    object raises ParseError naming the node."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise ParseError(path, "empty ensemble file")
    header = json.loads(lines[0])
    try:
        spec_digest, master_seed, run_count = (
            header["spec_digest"], header["master_seed"], header["run_count"]
        )
    except (KeyError, TypeError) as e:
        raise schema_error(f"{path}: header", e)
    runs = []
    for i, ln in enumerate(lines[1:]):
        rec = json.loads(ln)
        try:
            runs.append(
                RunRecord(
                    run_index=rec["run"],
                    pathway=Pathway.from_doc(rec, f"{path}: runs[{i}]"),
                    converged=tuple(rec["converged"]),
                    succession_iterations=tuple(rec["iterations"]),
                    error=rec.get("error"),
                )
            )
        except (KeyError, TypeError) as e:
            raise schema_error(f"{path}: runs[{i}]", e)
    if len(runs) != run_count:
        raise ParseError(
            path, f"{len(runs)} run records, but the header says {run_count}"
        )
    return EnsembleResult(spec_digest, master_seed, run_count, tuple(runs))


def ensemble_digest(path: str) -> str:
    """Content hash of an ensemble file on disk."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()
