"""select_candidates against a reference copy of its earlier quota block, on
seeded random pools of the mini study and on pools built to need swaps."""

import random
from collections import Counter
from dataclasses import replace

import numpy as np

from cibpath.analytics import (
    CandidateSet, ScreeningConfig, _medoids, flat_rows, screen_candidates, select_candidates,
)

from conftest import make_ensemble

#: Lets no pathway fail but by backsliding on RD, which the pools avoid.
CONFIG = ScreeningConfig(outcome_descriptor="RD", late_rush_steps=3, discontinuity_steps=3)
J_RD = 1


def reference_select(screened, k, best_outcome, spec, branches):
    """select_candidates as it was before its swaps took one pass: the
    recount and its warning included. Adds to branches the names of the
    branches a call takes."""
    pool = screened.candidates
    j_best = spec.index_of(best_outcome[0])
    best_state = best_outcome[1]
    terminals = pool.states[:, -1]
    keys, group = np.unique(pool.terminal, return_inverse=True)
    assert len(keys) >= k
    frequency = np.zeros(len(keys))
    frequency[group] = pool.labels
    reps = _medoids(pool.states, group, pool.rank)[np.argsort(-frequency, kind="stable")].tolist()
    is_best = (terminals[:, j_best] == best_state).tolist()

    selected = [(rep, f"frequency-rank-{rank}") for rank, rep in enumerate(reps[:k], start=1)]
    warnings = []
    have = sum(is_best[rep] for rep, _ in selected)
    if have < 2:
        if sum(is_best) < 2:
            branches.add("fewer than two best survivors")
            warnings.append(
                "fewer than 2 surviving pathways reach the best outcome state; "
                "quota relaxed"
            )
        else:
            branches.add(f"need {2 - have}")
            chosen = {rep for rep, _ in selected}
            extras = [rep for rep in reps[k:] if is_best[rep]]
            unselected_medoids = len(extras)
            by_scenarios = np.lexsort(flat_rows(pool.states).T[::-1]).tolist()
            extras += [
                i for i in by_scenarios if is_best[i] and i not in chosen and i not in extras
            ]
            need = 2 - have
            for at, rep in enumerate(extras[:need]):
                branches.add("unselected medoid" if at < unselected_medoids else "other survivor")
                for pos in range(len(selected) - 1, -1, -1):
                    if not is_best[selected[pos][0]]:
                        selected[pos] = (rep, "best-outcome-guarantee")
                        break
            have = sum(is_best[rep] for rep, _ in selected)
            if have < 2:
                branches.add("quota unmet")
                warnings.append(
                    "could not satisfy the best-outcome quota without duplicates; "
                    "quota relaxed"
                )

    out = [
        replace(pool[rep], rationale=f"{tag};diversity-group-{i}")
        for i, (rep, tag) in enumerate(selected)
    ]
    return CandidateSet(tuple(out), screened.rejected, tuple(warnings))


def pathway(rng, terminal, periods=6):
    """A random pathway of the mini study ending in terminal, whose RD never
    falls, so that CONFIG lets it pass."""
    earlier = [[rng.randrange(3) for _ in range(5)] for _ in range(periods - 1)]
    rd = sorted(rng.randint(0, terminal[J_RD]) for _ in range(periods - 1))
    for row, value in zip(earlier, rd):
        row[J_RD] = value
    return [tuple(row) for row in earlier] + [tuple(terminal)]


def random_pool(rng):
    """Runs over a few random terminal scenarios, and k, and a best outcome."""
    terminals = [[rng.randrange(3) for _ in range(5)] for _ in range(rng.randint(2, 8))]
    runs = [pathway(rng, rng.choice(terminals)) for _ in range(rng.randint(2, 30))]
    runs += [rng.choice(runs) for _ in range(rng.randint(0, 10))]  # repeats shift frequencies
    best = (rng.randrange(5), rng.randrange(3))
    return runs, rng.randint(2, 5), best


def swap_pool(rng):
    """The best state in one or two terminal groups of several members each,
    beside other groups, with k the number of other groups."""
    j, state = rng.randrange(5), rng.randrange(3)
    terminals = set()
    n_best, n_other = rng.randint(1, 2), rng.randint(2, 5)
    while len(terminals) < n_best + n_other:
        terminal = [rng.randrange(3) for _ in range(5)]
        is_best = len(terminals) < n_best
        if (terminal[j] == state) == is_best:
            terminals.add((is_best, tuple(terminal)))
    runs = []
    for is_best, terminal in sorted(terminals):
        for _ in range(rng.randint(2, 5) if is_best else rng.randint(1, 3)):
            runs += [pathway(rng, terminal)] * rng.randint(1, 4)
    rng.shuffle(runs)
    return runs, n_other, (j, state)


#: Each pool maker with the number of pools it makes.
POOLS = [(random_pool, 600), (swap_pool, 400)]


def test_select_candidates_matches_the_reference(mini_spec):
    rng = random.Random(2028)
    ids = [d.id for d in mini_spec.descriptors]
    branches, compared = Counter(), 0
    for make, count in POOLS:
        for _ in range(count):
            runs, k, (j, state) = make(rng)
            screened = screen_candidates(make_ensemble(runs, periods=mini_spec.time_grid),
                                         mini_spec, CONFIG)
            if len(np.unique(screened.candidates.terminal)) < k:
                continue
            best = (ids[j], state)
            taken = set()
            want = reference_select(screened, k, best, mini_spec, taken)
            got = select_candidates(screened, k, best, mini_spec)
            assert got.candidates == want.candidates, (runs, k, best)
            assert got.warnings == want.warnings, (runs, k, best)
            branches.update(taken)
            compared += 1

            # The quota is met whenever two survivors reach the best state.
            survivors = screened.candidates.states[:, -1, j] == state
            if "other survivor" in taken:  # so their rank order is their sequence order
                assert len(set(screened.candidates.terminal[survivors].tolist())) == 1
            if survivors.sum() >= 2:
                assert sum(c.pathway.terminal()[j] == state for c in got.candidates) >= 2
                assert not got.warnings
    # Every branch is taken, and often, but the recount's warning never.
    assert set(branches) == {
        "need 1", "need 2", "unselected medoid", "other survivor", "fewer than two best survivors",
    }
    assert min(branches.values()) >= 50 and compared > 800, (branches, compared)
