"""Deterministic cross-impact balance mathematics.

Impact balances, consistency checks, the simultaneous succession operator,
attractor detection, and exhaustive enumeration of consistent scenarios.
All operations are pure functions of their inputs and safe to call
concurrently with a shared immutable spec and matrix.

Each is computed once, on arrays of scenarios: balances (impact balances
and consistency deficits), succession_batch (one succession step) and
settle (succession until a scenario recurs). The simulator runs them over
a block of runs; the single-scenario functions check their arguments once
and run them on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, NamedTuple, Optional, Union

import numpy as np

from .errors import InfeasibilityError, StructureError, TractabilityError
from .model import CrossImpactMatrix, StudySpec

#: One state index per descriptor, in spec order.
Scenario = tuple[int, ...]

#: Scenario-space size above which enumerate_consistent refuses to run.
DEFAULT_ENUMERATION_LIMIT = 100_000

#: Scenarios enumerate_consistent decodes and checks at a time.
ENUMERATION_CHUNK = 1024


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


def check_arguments(
    spec: StudySpec, cim: CrossImpactMatrix, scenario: Optional[Scenario] = None
) -> None:
    """Raise StructureError unless cim has the spec's descriptors and state
    counts, each rule names a state of the spec (a spec built in code may
    not) and scenario, if given, holds a state of each descriptor."""
    counts = spec.state_counts
    if cim.descriptor_ids != tuple(d.id for d in spec.descriptors):
        raise StructureError("matrix descriptor ids do not match the spec")
    if cim.state_counts != counts:
        raise StructureError("matrix state counts do not match the spec")
    refs = [ref for pair in spec.rules.forbidden_pairs + spec.rules.implications for ref in pair]
    for r in spec.threshold_rules:
        e = r.effect
        refs += [*r.conditions, (e.source, e.source_state), (e.target, e.target_state)]
    for i, s in refs:
        if not (0 <= i < len(counts) and 0 <= s < counts[i]):
            raise StructureError(f"a rule names state {s} of position {i}, outside the spec")
    if scenario is None:
        return
    if len(scenario) != len(counts):
        raise StructureError(f"scenario length {len(scenario)} != descriptor count {len(counts)}")
    for d, s in zip(spec.descriptors, scenario):
        if not 0 <= s < d.state_count:
            raise StructureError(f"state {s} invalid for descriptor {d.id!r}")


def balances(
    spec: StudySpec, scores: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Impact balances and consistency deficits of each row of states, an
    (n, D) array of scenarios, under scores: one (D, S, D, S) matrix, or a
    stack of n, one per row.

    Returns theta, (n, D, S): the summed influence each state receives,
    the sources' rows gathered and summed in source order (the floats
    rows.sum(axis=0) gives), with the padded states at -inf; and the
    deficits, (n, D): each descriptor's maximal score minus its chosen
    state's (>= 0). The diagonal source==target blocks are zero, so a plain
    sum over sources realises the sum over i != j.
    """
    rows = np.arange(len(states))
    stack = np.broadcast_to(scores, (len(states),) + scores.shape[-4:])
    theta = stack[rows, 0, states[:, 0]]
    for i in range(1, states.shape[1]):
        theta += stack[rows, i, states[:, i]]
    if spec.padded is not None:
        theta[:, spec.padded] = -np.inf
    chosen = np.take_along_axis(theta, states[:, :, None], 2)[:, :, 0]
    return theta, theta.max(2) - chosen


def _violations(spec: StudySpec, states: np.ndarray) -> np.ndarray:
    """Per row of states, (n, D), whether a forbidden pair co-occurs in it."""
    hit = np.zeros(len(states), bool)
    for (a, a_state), (b, b_state) in spec.rules.forbidden_pairs:
        hit |= (states[:, a] == a_state) & (states[:, b] == b_state)
    return hit


def impact_balance(
    spec: StudySpec, cim: CrossImpactMatrix, scenario: Scenario
) -> ImpactBalance:
    """Summed influence every state of every descriptor receives from the
    other descriptors' scenario states."""
    check_arguments(spec, cim, scenario)
    theta, _ = balances(spec, cim.scores, np.array([scenario]))
    return ImpactBalance(
        tuple(tuple(row[:n]) for row, n in zip(theta[0].tolist(), spec.state_counts))
    )


def check_consistency(
    spec: StudySpec, cim: CrossImpactMatrix, scenario: Scenario
) -> ConsistencyResult:
    """A scenario is consistent when every chosen state attains the maximal
    impact score of its descriptor (ties allowed)."""
    check_arguments(spec, cim, scenario)
    _, deficits = balances(spec, cim.scores, np.array([scenario]))
    return ConsistencyResult(not deficits.any(), tuple(deficits[0].tolist()))


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
    descriptors are never touched. succession_batch on a batch of one;
    raises InfeasibilityError for the first unlocked descriptor left
    without a feasible state.
    """
    check_arguments(spec, cim, scenario)
    held = np.zeros(len(spec.descriptors), bool)
    held[[spec.index_of(did) for did in locked]] = True
    eta = np.zeros(cim.scores.shape[:2]) if perturbation is None else perturbation
    nxt, failed = succession_batch(
        spec, cim.scores[None], eta[None], np.zeros(1, np.intp), np.array([scenario]), held
    )
    if failed is not None:
        raise InfeasibilityError(spec.descriptors[failed[0]].id)
    return tuple(nxt[0].tolist())


class Settled(NamedTuple):
    """What settle found from each start, one row each.

    sequence, (starts, T, D), holds the scenarios visited, in order, then
    zeros. When a scenario recurred, the first + length visited end with
    the cycle, sequence[first:first + length], of length 1 for a fixed
    point. Otherwise length is 0, and the max_steps + 1 visited end with
    the scenario after the last step, at first = max_steps. stuck is the
    first unlocked descriptor a step left without a feasible state, or -1;
    the rest of such a row is unspecified.
    """

    sequence: np.ndarray
    first: np.ndarray
    length: np.ndarray
    stuck: np.ndarray


def settle(spec, scores, eta, start, runs, locked, max_steps) -> Settled:
    """Apply succession_batch from start[r], for every r in runs at once,
    until a scenario recurs or max_steps steps pass; run r scores under
    scores[r] plus eta[r], and the descriptors in the locked mask are held.
    A run leaves the active set when a step fails or its new scenario is
    one it has visited. Row b of the result is run runs[b]'s.
    """
    n = len(runs)
    first, length, stuck = np.full(n, max_steps), np.zeros(n, np.int64), np.full(n, -1)
    at, current = np.arange(n), start[runs]
    history = np.zeros((n, min(max_steps, 8) + 1, current.shape[1]), current.dtype)
    history[:, 0] = current
    for t in range(1, max_steps + 1):
        nxt, failed = succession_batch(spec, scores, eta, runs[at], current, locked)
        seen = (history[at, :t] == nxt[:, None]).all(2)
        ends = seen.any(1)
        going = ~ends
        if failed is not None:
            live = failed < 0
            stuck[at[~live]] = failed[~live]
            ends &= live
            going &= live
        done = at[ends]
        first[done] = seen[ends].argmax(1)
        length[done] = t - first[done]
        if t == history.shape[1]:
            grown = np.zeros_like(history[:, : min(t, max_steps + 1 - t)])
            history = np.concatenate([history, grown], 1)
        at, current = at[going], nxt[going]
        history[at, t] = current
        if not at.size:
            break
    return Settled(history, first, length, stuck)


def succession_batch(spec, scores, eta, runs, current, locked):
    """succession_step on each row of current, scored under scores[runs]
    plus eta[runs], with the descriptors in the locked mask held; returns
    the next states and, when some row has an unlocked descriptor without a
    feasible state, the first such descriptor per row (-1 for the others),
    else None.

    Threshold deltas are added to the gathered source rows before the sum
    over sources, one rule at a time, which gives the same floats as
    summing the rows of the threshold-adjusted matrix; an effect whose
    source state is not in the scenario touches no gathered row. Summing
    the source rows in order is what rows.sum(axis=0) does, so the scores
    are the same floats. Scores are finite, so a blocked state scored -inf
    never wins.
    """
    sources = np.arange(current.shape[1])
    rows = scores[runs[:, None], sources, current]
    for rule in spec.threshold_rules:
        e = rule.effect
        hit = current[:, e.source] == e.source_state
        for i, state in rule.conditions:
            hit &= current[:, i] == state
        rows[hit, e.source, e.target, e.target_state] += e.delta
    theta = rows[:, 0].copy()
    for i in range(1, rows.shape[1]):
        theta += rows[:, i]
    theta += eta[runs]
    if spec.padded is not None:
        theta[:, spec.padded] = -np.inf
    for (a, a_state), (b, b_state) in spec.rules.forbidden_pairs:  # each blocks the other
        theta[current[:, b] == b_state, a, a_state] = -np.inf
        theta[current[:, a] == a_state, b, b_state] = -np.inf
    # theta.max(2) and theta.argmax(2), the first state at the maximum, as
    # one elementwise pass per state: a reduction over a short last axis
    # costs more.
    best, chosen = theta[..., 0].copy(), np.zeros(theta.shape[:2], np.int8)
    for state in range(1, theta.shape[2]):
        column = theta[..., state]
        np.copyto(chosen, state, where=column > best)
        np.maximum(best, column, out=best)
    keep = theta[np.arange(len(current))[:, None], sources, current] == best
    nxt = np.where(keep | locked, current, chosen)
    for (a, a_state), (c, c_state) in spec.rules.implications:
        if not locked[c]:
            nxt[nxt[:, a] == a_state, c] = c_state
    dead = best == -np.inf
    dead &= ~locked
    if not dead.any():
        return nxt, None
    return nxt, np.where(dead.any(1), dead.argmax(1), -1)


def find_attractor(
    spec: StudySpec,
    cim: CrossImpactMatrix,
    start: Scenario,
    max_steps: int = 1000,
) -> Union[Attractor, NonConvergence]:
    """Iterate succession until a fixed point or cycle recurs: settle on a
    batch of one. Raises InfeasibilityError for the first descriptor a step
    leaves without a feasible state.

    Over a finite space with exact arithmetic this always terminates when
    max_steps exceeds the state-space size; the cap guards pathological
    perturbation use upstream.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    check_arguments(spec, cim, start)
    settled = settle(
        spec, cim.scores[None], np.zeros((1,) + cim.scores.shape[:2]), np.array([start]),
        np.zeros(1, np.intp), np.zeros(len(spec.descriptors), bool), max_steps,
    )
    if settled.stuck[0] >= 0:
        raise InfeasibilityError(spec.descriptors[settled.stuck[0]].id)
    sequence = list(map(tuple, settled.sequence[0].tolist()))
    first, length = int(settled.first[0]), int(settled.length[0])
    if not length:
        return NonConvergence(max_steps, sequence[first])
    kind = "fixed_point" if length == 1 else "cycle"
    return Attractor(kind, tuple(sequence[first:first + length]), first)


def violates_forbidden(spec: StudySpec, scenario: Scenario) -> bool:
    """True when any forbidden pair co-occurs in the scenario."""
    check_arguments(spec, spec.cim, scenario)
    return bool(_violations(spec, np.array([scenario]))[0])


def enumerate_consistent(
    spec: StudySpec, cim: CrossImpactMatrix, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> list[Scenario]:
    """All consistent, feasible scenarios in lexicographic state order.

    The scenarios' mixed-radix codes, the last descriptor's state counting
    fastest, are decoded ENUMERATION_CHUNK at a time into (n, D) states,
    and balances and the forbidden pairs are checked on each chunk.
    Feasible only for small spaces; raises TractabilityError when the
    product of state counts exceeds the caller's limit.
    """
    check_arguments(spec, cim)
    counts = spec.state_counts
    space = math.prod(counts)
    if space > limit:
        raise TractabilityError(space, limit)
    place = np.cumprod((counts + (1,))[:0:-1])[::-1]
    found: list[Scenario] = []
    for first in range(0, space, ENUMERATION_CHUNK):
        states = np.arange(first, min(first + ENUMERATION_CHUNK, space))[:, None] // place % counts
        _, deficits = balances(spec, cim.scores, states)
        keep = ~deficits.any(1) & ~_violations(spec, states)
        found += map(tuple, states[keep].tolist())
    return found
