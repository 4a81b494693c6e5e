"""Ensemble statistics and candidate screening/selection.

Turns a raw Monte Carlo ensemble into per-state share series with Wilson
score confidence bands, screens pathways for implausible temporal
patterns, and picks a diverse, frequency-ordered candidate set for MCDA.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .engine import check_refs
from .errors import ConfigError, EmptyInputError, InsufficientCandidatesError
from .model import StudySpec
from .simulate import EnsembleResult, Pathway

DEFAULT_CONFIDENCE_LEVEL = 0.95

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the routine behind scipy.special.ndtri and
# scipy.stats.norm.ppf. Coefficients run from the highest power down; the Q
# tuples carry Cephes' implicit leading 1.0 (its p1evl), which Horner's
# first step multiplies exactly, so the results are the same floats.
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# 1/x with x = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# x >= 8: y below exp(-32)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _horner(x: float, coefs: tuple[float, ...]) -> float:
    acc = 0.0
    for c in coefs:
        acc = acc * x + c
    return acc


def _ndtri(p: float) -> float:
    """The standard normal quantile of 0 <= p <= 1: the same float as
    ``scipy.special.ndtri(p)``, which ``tests/test_analytics.py`` checks."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p_tail, q_tail = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _horner(z, p_tail) / _horner(z, q_tail)
    return x if upper else -x


def _wilson_z(confidence_level: float) -> float:
    """The two-sided normal critical value; the one check of every level."""
    if not 0.0 < confidence_level < 1.0:
        raise ConfigError(f"confidence level must lie strictly between 0 and 1 "
                          f"(got {confidence_level!r})")
    return _ndtri(0.5 + confidence_level / 2.0)


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
    j = spec.index_of(descriptor_id)
    n_states = spec.descriptors[j].state_count
    periods = ensemble.time_grid
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
    """Plausibility rules applied to each distinct pathway, by descriptor
    position; pipeline.resolve_screening reads one from a document."""

    #: the outcome descriptor's position, and its best state.
    outcome: int
    best_state: int
    late_rush_steps: int = 2
    discontinuity_steps: int = 2
    #: evaluate backsliding on every descriptor instead of the outcome only.
    full_vector_backsliding: bool = False
    #: terminal state combinations ((position, state), ...) that are
    #: jointly implausible; never inferred, always supplied.
    endpoint_exclusions: tuple[tuple[tuple[int, int], ...], ...] = ()


#: The screening rules in the order they are applied; a rejected pathway
#: carries the first one it fails.
REASONS = ("backsliding", "endpoint_inconsistency", "late_rush", "discontinuity")


@dataclass(frozen=True)
class Candidate:
    pathway: Pathway
    terminal_frequency: float
    rationale: str = ""


@dataclass(frozen=True, eq=False)
class PathwayTable:
    """Distinct pathways over one time grid, in first-occurrence order, as
    one int8 (pathways, periods, descriptors) array, each with a label."""

    periods: tuple[int, ...]
    states: np.ndarray
    labels: list | np.ndarray

    def __len__(self) -> int:
        return len(self.states)

    def pathway(self, i: int) -> Pathway:
        return Pathway(tuple(zip(self.periods, map(tuple, self.states[i].tolist()))))


@dataclass(frozen=True, eq=False)
class CandidateTable(PathwayTable, Sequence):
    """Pathways labelled by their terminal frequency, with their terminal and
    rank from pathway_index. Item i is its Candidate, built only when read."""

    terminal: np.ndarray
    rank: np.ndarray

    def __getitem__(self, i: int) -> Candidate:
        return Candidate(self.pathway(i), self.labels[i])


@dataclass(frozen=True)
class CandidateSet:
    #: screen_candidates gives a CandidateTable, select_candidates a tuple
    candidates: Sequence[Candidate]
    #: labelled by the index in REASONS of the first rule each pathway fails
    rejected: PathwayTable
    warnings: tuple[str, ...] = ()


def flat_rows(a: np.ndarray) -> np.ndarray:
    """a with each item's values in one row, also when a is empty."""
    return a.reshape(len(a), math.prod(a.shape[1:]))


def _reasons(states: np.ndarray, spec: StudySpec, config: ScreeningConfig) -> np.ndarray:
    """The index in REASONS of the first rule each pathway in states
    (pathways, periods, descriptors) fails, or -1 where it passes."""
    descriptors = range(len(spec.descriptors))
    backslide_targets = list(descriptors) if config.full_vector_backsliding else [config.outcome]
    cyclic_step2 = {
        i for i in spec.cyclic_indices if spec.descriptors[i].cyclic_params.step2 > 0
    }
    discontinuity_targets = [j for j in descriptors if j not in cyclic_step2]

    backslide, late_rush, jumps = (np.zeros(len(states), bool) for _ in range(3))
    rose = np.zeros((len(states), len(backslide_targets)), bool)
    for t in range(1, states.shape[1]):
        step = states[:, t].astype(np.int16) - states[:, t - 1]
        moves = step[:, backslide_targets]
        backslide |= (rose & (moves < 0)).any(1)  # a fall after an earlier rise
        rose |= moves > 0
        jumps |= (np.abs(step[:, discontinuity_targets]) >= config.discontinuity_steps).any(1)
        late_rush = step[:, config.outcome] >= config.late_rush_steps  # kept for the last step only
    endpoint = np.zeros(len(states), bool)
    for combo in config.endpoint_exclusions:
        endpoint |= np.logical_and.reduce([states[:, -1, j] == s for j, s in combo])
    return np.select([backslide, endpoint, late_rush, jumps], range(len(REASONS)), -1)


def screen_candidates(
    ensemble: EnsembleResult, spec: StudySpec, config: ScreeningConfig
) -> CandidateSet:
    """Pass/fail every distinct pathway against the four plausibility rules.

    Surviving pathways carry the frequency of their terminal scenario over
    the full ensemble. Order-independent: permuting runs never changes a
    pathway's status. A config whose outcome, best state or exclusions name
    no state of spec raises StructureError.
    """
    refs = [(config.outcome, config.best_state), *chain(*config.endpoint_exclusions)]
    check_refs(spec.state_counts, refs, "the screening config")
    states, index = ensemble.ok_states, ensemble.pathway_index
    distinct = states[index.first]
    reasons = _reasons(distinct, spec, config)
    passed = reasons < 0
    terminal = index.terminal[passed]
    frequencies = index.terminal_counts[terminal] / len(states)
    grid = ensemble.time_grid
    return CandidateSet(
        CandidateTable(grid, distinct[passed], frequencies.tolist(), terminal, index.rank[passed]),
        PathwayTable(grid, distinct[~passed], reasons[~passed]),
    )


# ---------------------------------------------------------------------------
# Selection


def _medoids(states: np.ndarray, group: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """For each group g in 0..max(group), the index of its medoid among the
    pathways in states whose group is g: the member with the smallest
    integer total Hamming distance to the group, over every period and
    descriptor; ties go to the smallest rank, where rank orders each
    group's members by their scenario sequences, lexicographically.

    Hamming distance splits by position, so a member's total is, summed
    over positions, the number of members holding another state there.
    """
    flat = flat_rows(states)
    base = group * (int(flat.max()) + 1)
    agreeing = np.zeros(len(flat), np.int64)  # members holding the same state, summed
    for column in flat.T:  # by column: all (n, positions) codes at once took 10x the memory
        codes = base + column
        agreeing += np.bincount(codes)[codes]
    totals = np.bincount(group)[group] * flat.shape[1] - agreeing
    order = np.lexsort((rank, totals, group))
    ordered = group[order]
    return order[np.r_[True, ordered[1:] != ordered[:-1]]]


def select_candidates(screened: CandidateSet, k: int, config: ScreeningConfig) -> CandidateSet:
    """Pick k candidates from screen_candidates' survivors: one medoid
    representative per terminal-scenario group, groups ordered by frequency,
    with at least two candidates ending in config's best outcome state
    whenever two survivors do. Fewer than k groups raise
    InsufficientCandidatesError."""
    if k < 2:
        raise ConfigError(f"candidate count must be >= 2 (got {k})")
    pool = screened.candidates
    is_best = pool.states[:, -1, config.outcome] == config.best_state

    # Groups come out of np.unique in terminal order; a stable sort by
    # falling frequency then gives the order (-frequency, terminal).
    keys, group = np.unique(pool.terminal, return_inverse=True)
    if len(keys) < k:
        raise InsufficientCandidatesError(
            f"{len(keys)} terminal groups among {len(pool)} surviving pathways, {k} requested"
        )
    frequency = np.zeros(len(keys))
    frequency[group] = pool.labels
    reps = _medoids(pool.states, group, pool.rank)[np.argsort(-frequency, kind="stable")].tolist()

    selected = [(rep, f"frequency-rank-{rank}") for rank, rep in enumerate(reps[:k], start=1)]
    warnings: list[str] = []
    need = 2 - int(is_best[reps[:k]].sum())
    if need > 0 and is_best.sum() < 2:
        warnings.append(
            "fewer than 2 surviving pathways reach the best outcome state; quota relaxed"
        )
    elif need > 0:
        # The lowest-ranked selections that miss the best state give way to
        # the medoids of unselected best groups, in frequency order, then to
        # the other best survivors, in scenario-sequence order. As k >= 2
        # and two survivors are best, need selections miss and need best
        # survivors are unselected, so the quota is met.
        picks = [rep for rep in reps[k:] if is_best[rep]][:need]
        rest = np.setdiff1d(np.flatnonzero(is_best), reps[:k] + picks).tolist()
        picks += sorted(rest, key=lambda i: pool.states[i].tolist())[:need - len(picks)]
        misses = [pos for pos, (rep, _) in enumerate(selected) if not is_best[rep]]
        for pos, rep in zip(reversed(misses), picks):
            selected[pos] = (rep, "best-outcome-guarantee")

    out = [
        replace(pool[rep], rationale=f"{tag};diversity-group-{i}")
        for i, (rep, tag) in enumerate(selected)
    ]
    return CandidateSet(tuple(out), screened.rejected, tuple(warnings))
