"""Deterministic cross-impact balance mathematics.

Impact balances, consistency checks, the simultaneous succession operator,
attractor detection, and exhaustive enumeration of consistent scenarios.
All operations are pure functions of their inputs and safe to call
concurrently with a shared immutable spec and matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, FrozenSet, Optional, Union

import numpy as np

from .errors import InfeasibilityError, StructureError, TractabilityError
from .model import CrossImpactMatrix, SpecKernel, StudySpec

#: One state index per descriptor, in spec order.
Scenario = tuple[int, ...]

#: Scenario-space size above which enumerate_consistent refuses to run.
DEFAULT_ENUMERATION_LIMIT = 100_000


@dataclass(frozen=True)
class ImpactBalance:
    """Per descriptor, the summed influence each of its states receives."""

    scores: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    #: Per descriptor: max attainable score minus the chosen state's score (>= 0).
    deficits: tuple[float, ...]


@dataclass(frozen=True)
class Attractor:
    kind: str  # "fixed_point" | "cycle"
    scenarios: tuple[Scenario, ...]
    steps_to_reach: int


@dataclass(frozen=True)
class NonConvergence:
    steps: int
    last: Scenario


def _check_structure(kernel: SpecKernel, cim: CrossImpactMatrix) -> None:
    if cim.descriptor_ids != kernel.ids:
        raise StructureError("matrix descriptor ids do not match the spec")
    if cim.state_counts != kernel.state_counts:
        raise StructureError("matrix state counts do not match the spec")


def _check_scenario(kernel: SpecKernel, scenario: Scenario) -> None:
    if len(scenario) != len(kernel.ids):
        raise StructureError(
            f"scenario length {len(scenario)} != descriptor count {len(kernel.ids)}"
        )
    for did, n, s in zip(kernel.ids, kernel.state_counts, scenario):
        if not 0 <= s < n:
            raise StructureError(f"state {s} invalid for descriptor {did!r}")


def checked_kernel(
    spec: StudySpec, cim: CrossImpactMatrix, scenario: Scenario
) -> SpecKernel:
    """The spec's kernel, once the matrix and scenario fit its structure;
    raises StructureError otherwise."""
    kernel = spec.kernel
    _check_structure(kernel, cim)
    _check_scenario(kernel, scenario)
    return kernel


def _theta(kernel: SpecKernel, scores: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Raw impact-score array of shape (D, S_max).

    Entries for padded (nonexistent) states are zero by construction and
    must not be consulted. The diagonal source==target blocks are zero, so
    a plain sum over sources realises the sum over i != j.
    """
    return scores[kernel.sources, scenario].sum(axis=0)


def impact_balance(
    spec: StudySpec, cim: CrossImpactMatrix, scenario: Scenario
) -> ImpactBalance:
    """Summed influence every state of every descriptor receives from the
    other descriptors' scenario states."""
    kernel = checked_kernel(spec, cim, scenario)
    theta = _theta(kernel, cim.scores, scenario).tolist()
    return ImpactBalance(
        tuple(tuple(row[:n]) for row, n in zip(theta, kernel.state_counts))
    )


def _deficits(
    kernel: SpecKernel, scores: np.ndarray, scenario: Scenario
) -> tuple[float, ...]:
    theta = _theta(kernel, scores, scenario).tolist()
    return tuple(
        max(row[:n]) - row[s] for row, n, s in zip(theta, kernel.state_counts, scenario)
    )


def check_consistency(
    spec: StudySpec, cim: CrossImpactMatrix, scenario: Scenario
) -> ConsistencyResult:
    """A scenario is consistent when every chosen state attains the maximal
    impact score of its descriptor (ties allowed)."""
    kernel = checked_kernel(spec, cim, scenario)
    deficits = _deficits(kernel, cim.scores, scenario)
    return ConsistencyResult(all(v == 0.0 for v in deficits), deficits)


def _applicable(kernel: SpecKernel, scenario: Scenario):
    """Effects (src, src_state, tgt, tgt_state, delta) of the threshold
    rules whose conditions hold in the scenario, in rule order."""
    return [
        effect
        for conditions, effect in kernel.thresholds
        if all(scenario[i] == s for i, s in conditions)
    ]


def effective_cim(
    spec: StudySpec, cim: CrossImpactMatrix, scenario: Scenario
) -> CrossImpactMatrix:
    """Apply every threshold rule whose conditions hold in the scenario.

    Deltas act on effective scores and may push cells outside the
    elicitation range; no clipping happens here.
    """
    kernel = spec.kernel
    _check_structure(kernel, cim)
    applicable = _applicable(kernel, scenario)
    if not applicable:
        return cim
    scores = cim.scores.copy()
    for src, src_state, tgt, tgt_state, delta in applicable:
        scores[src, src_state, tgt, tgt_state] += delta
    return cim.with_scores(scores)


def succession_step(
    spec: StudySpec,
    cim: CrossImpactMatrix,
    scenario: Scenario,
    locked: FrozenSet[str] = frozenset(),
    perturbation: Optional[np.ndarray] = None,
) -> Scenario:
    """One simultaneous update of all unlocked descriptors.

    Each unlocked descriptor moves to its highest-scoring feasible state
    under the threshold-adjusted matrix plus an optional additive score
    perturbation of shape (D, S_max). Ties keep the current state when it
    is maximal, otherwise the lowest state index wins. Implications are
    enforced as a single post-step repair pass in spec order; locked
    descriptors are never touched.

    Threshold deltas are added to the gathered source rows before the sum
    over sources, one rule at a time, which gives the same floats as
    summing the rows of the threshold-adjusted matrix; an effect whose
    source state is not in the scenario touches no gathered row. Scores
    are finite, so a blocked state scored -inf never wins.
    """
    kernel = checked_kernel(spec, cim, scenario)
    rows = cim.scores[kernel.sources, scenario]
    for src, src_state, tgt, tgt_state, delta in _applicable(kernel, scenario):
        if scenario[src] == src_state:
            rows[src, tgt, tgt_state] += delta
    theta = rows.sum(axis=0)
    if perturbation is not None:
        theta = theta + perturbation
    locked_idx = {spec.index_of(did) for did in locked}
    counts, blocks = kernel.state_counts, kernel.blocks
    new = list(scenario)
    for j, row in enumerate(theta.tolist()):
        if j in locked_idx:
            continue
        scores = row[: counts[j]]
        if blocks[j]:
            blocked = {b for b, other, s in blocks[j] if scenario[other] == s}
            if blocked.issuperset(range(counts[j])):
                raise InfeasibilityError(kernel.ids[j])
            if blocked:
                scores = [-math.inf if l in blocked else v for l, v in enumerate(scores)]
        best = max(scores)
        if scores[scenario[j]] != best:
            new[j] = scores.index(best)
    for a, a_state, c, c_state in kernel.implications:
        if new[a] == a_state and c not in locked_idx:
            new[c] = c_state
    return tuple(new)


def iterate_to_attractor(
    step: Callable[[Scenario], Scenario], start: Scenario, max_steps: int
) -> tuple[list[Scenario], Optional[int]]:
    """Apply step from start until a scenario recurs, for at most max_steps
    steps.

    Returns the distinct scenarios visited, in order, and the index at
    which the recurring scenario was first seen: the attractor is
    sequence[first:], a fixed point when that has one member. first is None
    when max_steps steps pass without a recurrence; sequence[-1] is then
    the scenario after the last step.
    """
    visited = {start: 0}
    sequence = [start]
    for _ in range(max_steps):
        nxt = step(sequence[-1])
        first = visited.get(nxt)
        if first is not None:
            return sequence, first
        visited[nxt] = len(sequence)
        sequence.append(nxt)
    return sequence, None


def find_attractor(
    spec: StudySpec,
    cim: CrossImpactMatrix,
    start: Scenario,
    max_steps: int = 1000,
) -> Union[Attractor, NonConvergence]:
    """Iterate succession until a fixed point or cycle recurs.

    Over a finite space with exact arithmetic this always terminates when
    max_steps exceeds the state-space size; the cap guards pathological
    perturbation use upstream.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    sequence, first = iterate_to_attractor(
        lambda z: succession_step(spec, cim, z), start, max_steps
    )
    if first is None:
        return NonConvergence(max_steps, sequence[-1])
    kind = "fixed_point" if first == len(sequence) - 1 else "cycle"
    return Attractor(kind, tuple(sequence[first:]), first)


def _violates(kernel: SpecKernel, scenario: Scenario) -> bool:
    return any(
        scenario[a] == a_state and scenario[b] == b_state
        for a, a_state, b, b_state in kernel.forbidden
    )


def violates_forbidden(spec: StudySpec, scenario: Scenario) -> bool:
    """True when any forbidden pair co-occurs in the scenario."""
    return _violates(spec.kernel, scenario)


def enumerate_consistent(
    spec: StudySpec, cim: CrossImpactMatrix, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> list[Scenario]:
    """All consistent, feasible scenarios in lexicographic state order.

    Feasible only for small spaces; raises TractabilityError when the
    product of state counts exceeds the caller's limit.
    """
    kernel = spec.kernel
    _check_structure(kernel, cim)
    space = math.prod(kernel.state_counts)
    if space > limit:
        raise TractabilityError(space, limit)
    return [
        combo
        for combo in product(*(range(n) for n in kernel.state_counts))
        if not _violates(kernel, combo)
        and not any(_deficits(kernel, cim.scores, combo))
    ]
