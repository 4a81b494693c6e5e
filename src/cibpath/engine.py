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
from typing import FrozenSet, Optional, Union

import numpy as np

from .errors import InfeasibilityError, StructureError, TractabilityError
from .model import CrossImpactMatrix, StudySpec

#: One state index per descriptor, in spec order.
Scenario = tuple[int, ...]


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


def _check_structure(spec: StudySpec, cim: CrossImpactMatrix) -> None:
    if cim.descriptor_ids != tuple(d.id for d in spec.descriptors):
        raise StructureError("matrix descriptor ids do not match the spec")
    if cim.state_counts != spec.state_counts:
        raise StructureError("matrix state counts do not match the spec")


def _check_scenario(spec: StudySpec, scenario: Scenario) -> None:
    if len(scenario) != len(spec.descriptors):
        raise StructureError(
            f"scenario length {len(scenario)} != descriptor count {len(spec.descriptors)}"
        )
    for d, s in zip(spec.descriptors, scenario):
        if not 0 <= s < d.state_count:
            raise StructureError(f"state {s} invalid for descriptor {d.id!r}")


def _theta(spec: StudySpec, cim: CrossImpactMatrix, scenario: Scenario) -> np.ndarray:
    """Raw impact-score array of shape (D, S_max).

    Entries for padded (nonexistent) states are zero by construction and
    must not be consulted. The diagonal source==target blocks are zero, so
    a plain sum over sources realises the sum over i != j.
    """
    idx = np.arange(len(scenario))
    return cim.scores[idx, list(scenario)].sum(axis=0)


def impact_balance(
    spec: StudySpec, cim: CrossImpactMatrix, scenario: Scenario
) -> ImpactBalance:
    """Summed influence every state of every descriptor receives from the
    other descriptors' scenario states."""
    _check_structure(spec, cim)
    _check_scenario(spec, scenario)
    theta = _theta(spec, cim, scenario)
    return ImpactBalance(
        tuple(
            tuple(float(theta[j, l]) for l in range(d.state_count))
            for j, d in enumerate(spec.descriptors)
        )
    )


def check_consistency(
    spec: StudySpec, cim: CrossImpactMatrix, scenario: Scenario
) -> ConsistencyResult:
    """A scenario is consistent when every chosen state attains the maximal
    impact score of its descriptor (ties allowed)."""
    _check_structure(spec, cim)
    _check_scenario(spec, scenario)
    theta = _theta(spec, cim, scenario)
    deficits = []
    for j, d in enumerate(spec.descriptors):
        row = theta[j, : d.state_count]
        deficits.append(float(row.max() - row[scenario[j]]))
    return ConsistencyResult(all(v == 0.0 for v in deficits), tuple(deficits))


def effective_cim(
    spec: StudySpec, cim: CrossImpactMatrix, scenario: Scenario
) -> CrossImpactMatrix:
    """Apply every threshold rule whose conditions hold in the scenario.

    Deltas act on effective scores and may push cells outside the
    elicitation range; no clipping happens here.
    """
    _check_structure(spec, cim)
    applicable = []
    for rule in spec.threshold_rules:
        if all(scenario[spec.index_of(did)] == s for did, s in rule.conditions):
            applicable.append(rule.effect)
    if not applicable:
        return cim
    scores = cim.scores.copy()
    for e in applicable:
        scores[
            spec.index_of(e.source), e.source_state, spec.index_of(e.target), e.target_state
        ] += e.delta
    return cim.with_scores(scores)


def _feasible_states(
    spec: StudySpec, j: int, scenario: Scenario
) -> list[int]:
    """States of descriptor j admissible under forbidden pairs, holding all
    other descriptors at their scenario states."""
    blocked: set[int] = set()
    for (a_id, a_s), (b_id, b_s) in spec.rules.forbidden_pairs:
        ai, bi = spec.index_of(a_id), spec.index_of(b_id)
        if ai == j and scenario[bi] == b_s:
            blocked.add(a_s)
        elif bi == j and scenario[ai] == a_s:
            blocked.add(b_s)
    return [l for l in range(spec.descriptors[j].state_count) if l not in blocked]


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
    """
    _check_scenario(spec, scenario)
    eff = effective_cim(spec, cim, scenario)
    theta = _theta(spec, eff, scenario)
    if perturbation is not None:
        theta = theta + perturbation
    locked_idx = {spec.index_of(did) for did in locked}
    new = list(scenario)
    for j, d in enumerate(spec.descriptors):
        if j in locked_idx:
            continue
        feasible = (
            _feasible_states(spec, j, scenario)
            if spec.rules.forbidden_pairs
            else range(d.state_count)
        )
        best_state = -1
        best_score = -math.inf
        current_is_max = False
        for l in feasible:
            v = theta[j, l]
            if v > best_score:
                best_score = v
                best_state = l
                current_is_max = l == scenario[j]
            elif v == best_score and l == scenario[j]:
                current_is_max = True
        if best_state < 0:
            raise InfeasibilityError(d.id)
        new[j] = scenario[j] if current_is_max else best_state
    for (a_id, a_s), (c_id, c_s) in spec.rules.implications:
        if new[spec.index_of(a_id)] == a_s:
            ci = spec.index_of(c_id)
            if ci not in locked_idx:
                new[ci] = c_s
    return tuple(new)


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
    visited = {start: 0}
    sequence = [start]
    current = start
    for _ in range(max_steps):
        nxt = succession_step(spec, cim, current)
        if nxt == current:
            return Attractor("fixed_point", (current,), visited[current])
        if nxt in visited:
            first = visited[nxt]
            return Attractor("cycle", tuple(sequence[first:]), first)
        visited[nxt] = len(sequence)
        sequence.append(nxt)
        current = nxt
    return NonConvergence(max_steps, current)


def violates_forbidden(spec: StudySpec, scenario: Scenario) -> bool:
    """True when any forbidden pair co-occurs in the scenario."""
    for (a_id, a_s), (b_id, b_s) in spec.rules.forbidden_pairs:
        if scenario[spec.index_of(a_id)] == a_s and scenario[spec.index_of(b_id)] == b_s:
            return True
    return False


def enumerate_consistent(
    spec: StudySpec, cim: CrossImpactMatrix, limit: int = 100_000
) -> list[Scenario]:
    """All consistent, feasible scenarios in lexicographic state order.

    Feasible only for small spaces; raises TractabilityError when the
    product of state counts exceeds the caller's limit.
    """
    _check_structure(spec, cim)
    space = math.prod(spec.state_counts)
    if space > limit:
        raise TractabilityError(space, limit)
    out = []
    for combo in product(*(range(n) for n in spec.state_counts)):
        if violates_forbidden(spec, combo):
            continue
        if check_consistency(spec, cim, combo).consistent:
            out.append(combo)
    return out
