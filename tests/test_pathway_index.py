"""EnsembleResult.pathway_index against a reference built with np.unique
over one void (bytes) key per row, and the peak memory of screening."""

import gc
import tracemalloc

import numpy as np
import pytest

from cibpath.analytics import screen_candidates
from cibpath.pipeline import resolve_screening
from cibpath.simulate import EnsembleResult, simulate_ensemble

from conftest import make_ensemble


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a non-negative int8 array as one void scalar. np.unique
    orders these by their bytes, unsigned, which for non-negative int8 is
    the lexicographic order of the rows."""
    rows = np.ascontiguousarray(rows.reshape(len(rows), -1))
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def reference_index(states: np.ndarray):
    """(first, terminal, rank, terminal counts, terminal scenarios) of the
    rows of states (runs, periods, descriptors), by np.unique."""
    _, first = np.unique(row_keys(states), return_index=True)
    first.sort()
    terminals, terminal_of, counts = np.unique(
        row_keys(states[:, -1]), return_inverse=True, return_counts=True
    )
    # the terminal period leads the sort key, then periods 0..P-2
    leading = np.concatenate([states[:, -1:], states[:, :-1]], axis=1)
    _, place = np.unique(row_keys(leading[first]), return_inverse=True)
    return first, terminal_of.ravel()[first], place.ravel(), counts, terminals


def ensemble_of(states: np.ndarray, lengths=None, errors=None) -> EnsembleResult:
    """make_ensemble of the rows of states, run r cut to lengths[r] periods."""
    rows = states.tolist() if lengths is None else [
        row[:length] for row, length in zip(states.tolist(), lengths)
    ]
    return make_ensemble(rows, tuple(range(2025, 2025 + states.shape[1])), errors=errors)


def random_states(rng, runs, periods, descriptors, states):
    return rng.integers(0, states, (runs, periods, descriptors)).astype(np.int8)


CASES = {
    # (runs, periods, descriptors, states): few states, so many duplicates
    "duplicates": (400, 3, 2, 2),
    "mini-sized": (2000, 6, 5, 3),
    "one-period": (300, 1, 3, 3),
    "twelve-by-four": (1500, 6, 12, 4),
    "all-distinct": (200, 4, 6, 128),
    "one-run": (1, 3, 2, 3),
}


def assert_matches_reference(ens: EnsembleResult):
    states = ens.ok_states
    index = ens.pathway_index
    first, terminal, rank, counts, terminals = reference_index(states)
    np.testing.assert_array_equal(index.first, first)
    np.testing.assert_array_equal(index.terminal, terminal)
    np.testing.assert_array_equal(index.rank, rank)
    np.testing.assert_array_equal(index.terminal_counts, counts)
    np.testing.assert_array_equal(row_keys(states[index.terminal_runs, -1]), terminals)
    # within a terminal group, rank orders whole scenario sequences
    for g in range(len(counts)):
        members = np.flatnonzero(index.terminal == g)
        by_rank = members[np.argsort(index.rank[members])]
        sequences = states[index.first[by_rank]].tolist()
        assert all(a < b for a, b in zip(sequences, sequences[1:]))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", range(3))
def test_matches_the_np_unique_reference(case, seed):
    rng = np.random.default_rng([seed, list(CASES).index(case)])
    assert_matches_reference(ensemble_of(random_states(rng, *CASES[case])))


@pytest.mark.parametrize("seed", range(5))
def test_errored_runs_are_left_out(seed):
    rng = np.random.default_rng(seed)
    states = random_states(rng, 500, 4, 3, 2)
    lengths = rng.integers(1, 5, 500)
    lengths[: 1 + seed] = 4  # at least one run without an error
    errors = {r: "infeasible" for r in np.flatnonzero(lengths < 4).tolist()}
    ens = ensemble_of(states, lengths.tolist(), errors)
    assert_matches_reference(ens)
    assert ens.pathway_index.terminal_counts.sum() == 500 - len(errors)


def test_identical_runs_form_one_pathway():
    ens = ensemble_of(np.ones((50, 3, 4), np.int8))
    index = ens.pathway_index
    assert index.first.tolist() == [0] and index.terminal.tolist() == [0]
    assert index.rank.tolist() == [0] and index.terminal_counts.tolist() == [50]
    assert_matches_reference(ens)


def test_rank_breaks_ties_by_terminal_then_earlier_periods():
    # terminal (0,) leads (1,); within a terminal, periods 0..P-2 decide
    rows = [[(1,), (0,), (1,)], [(0,), (1,), (0,)], [(0,), (0,), (1,)], [(0,), (1,), (0,)]]
    index = ensemble_of(np.array(rows, np.int8)).pathway_index
    assert index.first.tolist() == [0, 1, 2]
    assert index.terminal.tolist() == [1, 0, 1]
    assert index.rank.tolist() == [2, 0, 1]
    assert index.terminal_counts.tolist() == [2, 2]


# tracemalloc peak of screen_candidates on a 10 000-run mini ensemble
# (seed 7, no screening options), index included, in bytes, numpy 2.4:
# 1 546 021 when it grouped the pathways and their terminals with two
# void-key np.unique calls, 955 094 with pathway_index. The bound keeps the
# index from raising the memory that screening takes.
SCREEN_PEAK_BOUND = 1_500_000


def test_screening_peak_memory_is_bounded(mini_spec):
    ens = simulate_ensemble(mini_spec, 10_000, 7)
    config = resolve_screening({"outcome_descriptor": "RD"}, mini_spec)
    gc.collect()
    tracemalloc.start()
    try:
        screen_candidates(ens, mini_spec, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SCREEN_PEAK_BOUND, peak
