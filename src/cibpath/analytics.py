"""Ensemble statistics and candidate screening/selection.

Turns a raw Monte Carlo ensemble into per-state share series with Wilson
score confidence bands, screens pathways for implausible temporal
patterns, and picks a diverse, frequency-ordered candidate set for MCDA.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.stats import norm

from .engine import Scenario
from .errors import ConfigError, EmptyInputError, InsufficientCandidatesError
from .model import StudySpec
from .simulate import EnsembleResult, Pathway

DEFAULT_CONFIDENCE_LEVEL = 0.95


def _wilson_z(confidence_level: float) -> float:
    return float(norm.ppf(0.5 + confidence_level / 2.0))


def _wilson(successes: int, n: int, z: float) -> tuple[float, float]:
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = (z / denom) * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5)
    return max(0.0, centre - half), min(1.0, centre + half)


def wilson_interval(
    successes: int, trials: int, confidence_level: float = DEFAULT_CONFIDENCE_LEVEL
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise EmptyInputError("wilson_interval requires trials >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    return _wilson(successes, trials, _wilson_z(confidence_level))


@dataclass(frozen=True)
class ShareCell:
    share: float
    low: float
    high: float


@dataclass(frozen=True)
class StateShareSeries:
    descriptor_id: str
    #: per period, one ShareCell per state of the descriptor.
    cells: tuple[tuple[int, tuple[ShareCell, ...]], ...]


def state_share_series(
    ensemble: EnsembleResult,
    spec: StudySpec,
    descriptor_id: str,
    confidence_level: float = DEFAULT_CONFIDENCE_LEVEL,
) -> StateShareSeries:
    """Fraction of runs in each state per period, with Wilson bands."""
    states = ensemble.ok_states
    if not len(states):
        raise EmptyInputError("ensemble holds no successful runs")
    j = spec.index_of(descriptor_id)
    n_states = spec.descriptors[j].state_count
    periods = ensemble.ok_runs()[0].pathway.periods
    n = len(states)
    z = _wilson_z(confidence_level)
    out = []
    for t, period in enumerate(periods):
        counts = np.bincount(states[:, t, j], minlength=n_states)
        cells = []
        for c in counts.tolist():
            low, high = _wilson(c, n, z)
            cells.append(ShareCell(c / n, low, high))
        out.append((period, tuple(cells)))
    return StateShareSeries(descriptor_id, tuple(out))


# ---------------------------------------------------------------------------
# Screening


@dataclass(frozen=True)
class ScreeningConfig:
    """Plausibility rules applied to each distinct pathway."""

    outcome_descriptor: str
    late_rush_steps: int = 2
    discontinuity_steps: int = 2
    #: evaluate backsliding on every descriptor instead of the outcome only.
    full_vector_backsliding: bool = False
    #: terminal state combinations ((descriptor id, state index), ...) that
    #: are jointly implausible; never inferred, always supplied.
    endpoint_exclusions: tuple[tuple[tuple[str, int], ...], ...] = ()


@dataclass(frozen=True)
class Candidate:
    pathway: Pathway
    terminal_frequency: float
    rationale: str = ""


@dataclass(frozen=True)
class CandidateSet:
    candidates: tuple[Candidate, ...]
    rejected: tuple[tuple[Pathway, str], ...]
    warnings: tuple[str, ...] = ()


def _backslides(states: tuple[int, ...]) -> bool:
    improved = False
    for a, b in zip(states, states[1:]):
        if b > a:
            improved = True
        elif b < a and improved:
            return True
    return False


def _screen_rule(
    spec: StudySpec, config: ScreeningConfig
) -> Callable[[Pathway], Optional[str]]:
    """The screening rules for one spec and config, as a function from a
    pathway to its first failing rule name, or None when it passes."""
    j_out = spec.index_of(config.outcome_descriptor)
    if config.full_vector_backsliding:
        backslide_targets = range(len(spec.descriptors))
    else:
        backslide_targets = (j_out,)
    exclusions = [
        [(spec.index_of(did), s) for did, s in combo]
        for combo in config.endpoint_exclusions
    ]
    cyclic_step2 = {
        i for i in spec.cyclic_indices if spec.descriptors[i].cyclic_params.step2 > 0
    }
    discontinuity_targets = [
        j for j in range(len(spec.descriptors)) if j not in cyclic_step2
    ]

    def reason(pathway: Pathway) -> Optional[str]:
        for j in backslide_targets:
            if _backslides(pathway.states_of(j)):
                return "backsliding"

        terminal = pathway.terminal()
        for combo in exclusions:
            if all(terminal[j] == s for j, s in combo):
                return "endpoint_inconsistency"

        outcome = pathway.states_of(j_out)
        if len(outcome) >= 2 and outcome[-1] - outcome[-2] >= config.late_rush_steps:
            return "late_rush"

        for j in discontinuity_targets:
            states = pathway.states_of(j)
            for a, b in zip(states, states[1:]):
                if abs(b - a) >= config.discontinuity_steps:
                    return "discontinuity"
        return None

    return reason


def screen_candidates(
    ensemble: EnsembleResult, spec: StudySpec, config: ScreeningConfig
) -> CandidateSet:
    """Pass/fail every distinct pathway against the four plausibility rules.

    Surviving pathways carry the frequency of their terminal scenario over
    the full ensemble. Order-independent: permuting runs never changes a
    pathway's status.
    """
    runs = ensemble.ok_runs()
    if not runs:
        raise EmptyInputError("ensemble holds no successful runs")
    terminal_counts: Counter[Scenario] = Counter(r.pathway.terminal() for r in runs)
    n = len(runs)
    distinct: dict[Pathway, None] = {}
    for r in sorted(runs, key=lambda r: r.run_index):
        distinct.setdefault(r.pathway, None)
    screen_reason = _screen_rule(spec, config)
    passed = []
    rejected = []
    for pathway in distinct:
        reason = screen_reason(pathway)
        if reason is None:
            freq = terminal_counts[pathway.terminal()] / n
            passed.append(Candidate(pathway, freq))
        else:
            rejected.append((pathway, reason))
    return CandidateSet(tuple(passed), tuple(rejected))


# ---------------------------------------------------------------------------
# Selection


def _medoid(members: list[Candidate]) -> Candidate:
    """The member with the smallest integer total Hamming distance to the
    group, over every period and descriptor; ties go to the
    lexicographically smallest scenario sequence.

    Hamming distance splits by position, so a member's total is, summed
    over positions, the number of members holding another state there.
    """
    m = len(members)
    states = np.array([c.pathway.scenarios for c in members]).reshape(m, -1)
    width = states.shape[1]
    codes = states + np.arange(width) * (states.max() + 1)
    holders = np.bincount(codes.ravel())
    totals = m * width - holders[codes].sum(axis=1)
    tied = np.flatnonzero(totals == totals.min())
    return members[min(tied, key=lambda i: members[i].pathway.scenarios)]


def select_candidates(
    screened: CandidateSet,
    k: int,
    best_outcome: tuple[str, int],
    spec: StudySpec,
) -> CandidateSet:
    """Pick k candidates: one medoid representative per terminal-scenario
    group, groups ordered by frequency, with at least two candidates ending
    in the best outcome state whenever the pool allows it."""
    if k < 2:
        raise ConfigError(f"candidate count must be >= 2 (got {k})")
    survivors = list(screened.candidates)
    if len(survivors) < k:
        raise InsufficientCandidatesError(
            f"{len(survivors)} surviving pathways, {k} requested"
        )
    j_best = spec.index_of(best_outcome[0])
    best_state = best_outcome[1]

    groups: dict[Scenario, list[Candidate]] = {}
    for c in survivors:
        groups.setdefault(c.pathway.terminal(), []).append(c)
    ordered = sorted(
        groups.items(), key=lambda kv: (-kv[1][0].terminal_frequency, kv[0])
    )
    reps = [
        (terminal, _medoid(members), len(members)) for terminal, members in ordered
    ]

    selected: list[tuple[Scenario, Candidate, str]] = []
    for rank, (terminal, rep, _size) in enumerate(reps[:k], start=1):
        selected.append((terminal, rep, f"frequency-rank-{rank}"))

    warnings: list[str] = []
    is_best = lambda t: t[j_best] == best_state
    have = sum(1 for t, _, _ in selected if is_best(t))
    pool_best = [c for c in survivors if is_best(c.pathway.terminal())]
    if have < 2:
        if len(pool_best) < 2:
            warnings.append(
                "fewer than 2 surviving pathways reach the best outcome state; "
                "quota relaxed"
            )
        else:
            # Swap lowest-ranked non-best selections for best-outcome
            # representatives: unseen best groups first, then extra members
            # of already-selected best groups.
            chosen_paths = {c.pathway for _, c, _ in selected}
            extras: list[tuple[Scenario, Candidate]] = []
            for terminal, rep, _size in reps[k:]:
                if is_best(terminal):
                    extras.append((terminal, rep))
            for c in sorted(pool_best, key=lambda c: c.pathway.scenarios):
                if c.pathway not in chosen_paths and all(c is not e[1] for e in extras):
                    extras.append((c.pathway.terminal(), c))
            need = 2 - have
            for terminal, rep in extras[:need]:
                for pos in range(len(selected) - 1, -1, -1):
                    if not is_best(selected[pos][0]):
                        selected[pos] = (terminal, rep, "best-outcome-guarantee")
                        break
            have = sum(1 for t, _, _ in selected if is_best(t))
            if have < 2:
                warnings.append(
                    "could not satisfy the best-outcome quota without duplicates; "
                    "quota relaxed"
                )

    out = [
        Candidate(rep.pathway, rep.terminal_frequency, f"{tag};diversity-group-{i}")
        for i, (_, rep, tag) in enumerate(selected)
    ]
    return CandidateSet(tuple(out), screened.rejected, tuple(warnings))
