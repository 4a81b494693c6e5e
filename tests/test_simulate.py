import dataclasses
import gc
import io
import json
import pickle
import random
import tracemalloc

import numpy as np
import pytest

import sim_reference as reference
from cibpath import simulate
from cibpath.engine import check_consistency
from cibpath.errors import ConfigError, ParseError, StructureError
from cibpath.model import CyclicParams, StructuralShockConfig, Distribution, parse_study_spec
from cibpath.simulate import (
    BLOCK_RUNS,
    PURPOSES,
    RandomSource,
    ensemble_digest,
    load_ensemble,
    robustness_fraction,
    save_ensemble,
    simulate_ensemble,
    write_ensemble,
)
from cibpath.uncertainty import StreamBlock, apply_structural_shock

from conftest import BAD_RULE_REFS, random_spec_document, two_desc_document
from sim_reference import iterate_to_attractor


def run_record(spec, run_index, source, max_iter=simulate.DEFAULT_MAX_ITER):
    """Run run_index's record, from an ensemble of run_index + 1 runs under
    source's master seed."""
    return simulate_ensemble(spec, run_index + 1, source.master_seed, max_iter).runs[run_index]


def degenerate_document(extra=None):
    """Fixture with every stochastic channel switched off."""
    doc = two_desc_document(
        {
            "uncertainty": {
                "confidence_sigma": {"1": 0, "2": 0, "3": 0, "4": 0, "5": 0},
                "time_scale": {"2025": 1.0, "2030": 1.0, "2035": 1.0},
            },
            "shocks": {
                "structural": {"enabled": False},
                "dynamic": {"enabled": False},
            },
        }
    )
    if extra:
        doc.update(extra)
    return doc


def cyclic_moves(params, current, state_count, rng, n):
    """n moves of one cyclic descriptor from current under params, by the
    simulator's law (_cyclic_moves), on uniforms from rng."""
    prior = np.full((n, 1), current, np.int8)
    return simulate._cyclic_moves([(params, state_count)], prior, rng.random((n, 2)))[:, 0]


class TestCyclicTransition:
    def test_stay_probability(self):
        params = CyclicParams(stay=0.5, step=0.4, step2=0.1, drift=0.0)
        rng = np.random.default_rng(0)
        stays = np.count_nonzero(cyclic_moves(params, 2, 5, rng, 20_000) == 2)
        assert abs(stays / 20_000 - 0.5) < 0.02

    def test_drift_biases_direction(self):
        params = CyclicParams(stay=0.0, step=1.0, step2=0.0, drift=0.5)
        rng = np.random.default_rng(1)
        ups = np.count_nonzero(cyclic_moves(params, 1, 3, rng, 20_000) == 2)
        assert abs(ups / 20_000 - 0.75) < 0.02

    def test_boundary_block_stays(self):
        params = CyclicParams(stay=0.0, step=0.0, step2=1.0, drift=1.0)
        rng = np.random.default_rng(2)
        # from top state of a 3-state scale every +2 move is blocked
        assert (cyclic_moves(params, 2, 3, rng, 100) == 2).all()

    def test_step2_moves_two(self):
        params = CyclicParams(stay=0.0, step=0.0, step2=1.0, drift=1.0)
        rng = np.random.default_rng(3)
        assert cyclic_moves(params, 0, 3, rng, 1).tolist() == [2]

    def test_array_moves_equal_sequential_transitions(self):
        """_cyclic_moves on StreamBlock.uniforms against the reference
        transition_cyclic_state called descriptor by descriptor on each run's
        own cyclic stream."""
        rng = random.Random(31)
        seen = {"stay": 0, "blocked": 0, "up": 0, "down": 0, "two": 0, "three_cyclic": 0}
        for case in range(300):
            moves = []
            for _ in range(rng.randint(1, 3)):
                stay = rng.choice([0.0, 1.0, rng.random()])
                step = rng.choice([0.0, rng.uniform(0.0, 1.0 - stay)])
                drift = rng.choice([-1.0, 1.0, rng.uniform(-1, 1)])
                params = CyclicParams(stay, step, 1.0 - stay - step, drift)
                moves.append((params, rng.randint(1, 5)))
            runs = range(rng.randrange(100), 100 + rng.randrange(40))
            # each scale's edges and interior, for every run
            prior = np.array([[rng.choice([0, count - 1, rng.randrange(count)])
                               for _, count in moves] for _ in runs], np.int8)
            source = RandomSource(rng.randrange(2**40))
            block = source.block(runs, (2030,), PURPOSES)
            at = np.arange(len(runs)) * block.strides[0] + PURPOSES.index("cyclic")
            got = simulate._cyclic_moves(moves, prior, block.uniforms(at, 2 * len(moves)))
            for b, run in enumerate(runs):
                stream = source.substream(run, 2030, "cyclic")
                want = [
                    reference.transition_cyclic_state(params, int(state), count, stream)
                    for (params, count), state in zip(moves, prior[b])
                ]
                assert got[b].tolist() == want, (case, run)
                for (params, count), old, new in zip(moves, prior[b], want):
                    seen["stay"] += params.stay == 1.0
                    seen["blocked"] += new == old and params.stay == 0.0
                    seen["up"] += new > old
                    seen["down"] += new < old
                    seen["two"] += abs(new - old) == 2
            seen["three_cyclic"] += len(moves) == 3
        assert min(seen.values()) >= 30, seen


class TestSimulateRun:
    def test_first_period_is_baseline(self, mini_spec):
        rec = run_record(mini_spec, 0, RandomSource(42))
        assert rec.pathway.entries[0] == (2025, mini_spec.baseline)
        assert rec.converged[0] is True

    def test_covers_whole_grid(self, mini_spec):
        rec = run_record(mini_spec, 0, RandomSource(42))
        assert rec.pathway.periods == mini_spec.time_grid

    def test_degenerate_spec_reaches_fixed_point(self):
        spec = parse_study_spec(degenerate_document())
        rec = run_record(spec, 0, RandomSource(7))
        # baseline (0, 0) is consistent, so the pathway never leaves it
        assert rec.pathway.scenarios == ((0, 0), (0, 0), (0, 0))
        assert all(rec.converged)

    def test_run_reproducibility(self, mini_spec):
        a = run_record(mini_spec, 5, RandomSource(42))
        b = run_record(mini_spec, 5, RandomSource(42))
        assert a == b

    def test_runs_differ(self, mini_spec):
        a = run_record(mini_spec, 0, RandomSource(42))
        b = run_record(mini_spec, 1, RandomSource(42))
        c = run_record(mini_spec, 0, RandomSource(43))
        assert a.pathway != b.pathway or a.pathway != c.pathway

    def test_max_iter_guard(self, mini_spec):
        with pytest.raises(ConfigError):
            run_record(mini_spec, 0, RandomSource(0), max_iter=0)


CAPS = (1, 2, 3, 50, 100, 101)


def iterate_to_cap(step, start, max_iter):
    """Reference within-period loop with no cycle detection: step until a
    fixed point or until max_iter steps have been taken."""
    current, iterations = start, 0
    while iterations < max_iter:
        nxt = step(current)
        if nxt == current:
            return current, True, iterations
        current, iterations = nxt, iterations + 1
    return current, False, iterations


def one_period_spec(spec, prev, period):
    """spec cut to the grid step that ends at period, with prev as its
    baseline and the matrix drawn at period: the second period of its runs
    is the reference simulate_period(spec, prev, period, ...) with no
    per-run matrix."""
    grid = spec.time_grid
    return dataclasses.replace(
        spec,
        baseline=prev,
        time_grid=(grid[grid.index(period) - 1], period),
        uncertainty=dataclasses.replace(spec.uncertainty, resample="per_period"),
    )


def period_against_cap(monkeypatch, spec, prev, period, run_index, source, max_iter):
    """The block kernel's (scenario, converged, iterations) for one period,
    checked against the reference period, and what stepping the reference's
    succession to the cap gives."""
    captured = []

    def spy(step, start, max_steps):
        captured.append((step, start))
        return iterate_to_attractor(step, start, max_steps)

    monkeypatch.setattr(reference, "iterate_to_attractor", spy)
    scenario, _, converged, iterations = reference.simulate_period(
        spec, prev, period, reference.initial_eta(spec), source, run_index, max_iter
    )
    (step, start), = captured
    record = run_record(one_period_spec(spec, prev, period), run_index, source, max_iter)
    got = (record.pathway.terminal(), record.converged[-1], record.succession_iterations[-1])
    assert got == (scenario, converged, iterations)
    return got, iterate_to_cap(step, start, max_iter)


class TestCycleShortcut:
    @pytest.mark.parametrize("max_iter", CAPS)
    def test_hand_derived_two_cycle_lands_by_cap_parity(self, monkeypatch, max_iter):
        # (A1,B2) -> (A2,B1) -> (A1,B2): the member after max_iter steps
        spec = parse_study_spec(degenerate_document())
        got, naive = period_against_cap(
            monkeypatch, spec, (0, 1), 2030, 0, RandomSource(1), max_iter
        )
        expected = ((1, 0) if max_iter % 2 else (0, 1), False, max_iter)
        assert got == naive == expected

    @pytest.mark.parametrize("max_iter", CAPS)
    def test_random_periods_match_stepping_to_the_cap(self, monkeypatch, mini_spec, max_iter):
        rng = np.random.default_rng(max_iter)
        outcomes = set()
        for run_index in range(60):
            prev = tuple(int(rng.integers(n)) for n in mini_spec.state_counts)
            period = int(rng.choice(mini_spec.time_grid[1:]))
            got, naive = period_against_cap(
                monkeypatch, mini_spec, prev, period, run_index, RandomSource(5), max_iter
            )
            assert got == naive, (run_index, prev, period)
            outcomes.add(got[1])
        if max_iter > 2:  # a period converges after k < max_iter steps
            assert outcomes == {True, False}


ORACLE_CAPS = (1, 2, 3, 100, 101)


def random_lockstep_document(rng: random.Random, **size):
    """A random study exercising every rule and random channel: cyclic
    descriptors, forbidden pairs (sometimes blocking every state of a
    descriptor), implications, threshold rules, structural and dynamic
    shocks, Student-t draws, either resample policy, and sometimes no noise
    at all, so that integer scores tie. size goes to random_spec_document."""
    doc = random_spec_document(rng, **{"max_descriptors": 6, "max_states": 4, **size})
    descriptors = doc["descriptors"]
    ids = [d["id"] for d in descriptors]
    counts = {d["id"]: len(d["states"]) for d in descriptors}

    def state_of(did):
        return [did, rng.randrange(counts[did])]

    def distribution():
        return rng.choice(["gaussian", {"kind": "student_t", "df": rng.choice([3, 5, 30])}])

    for d in rng.sample(descriptors, rng.randint(0, min(2, len(descriptors) - 1))):
        stay = rng.choice([0.0, 0.3, 0.7, 1.0])
        step = rng.uniform(0.0, 1.0 - stay)
        d.update(kind="cyclic", cyclic={
            "stay": stay, "step": step, "step2": 1.0 - stay - step,
            "drift": rng.uniform(-1, 1),
        })
    forbidden = []
    for _ in range(rng.randint(0, 4)):
        a, b = rng.sample(ids, 2)
        forbidden.append([state_of(a), state_of(b)])
    if rng.random() < 0.35:
        a, b = rng.sample(ids, 2)
        other = state_of(b)
        forbidden.extend([[a, s], other] for s in range(counts[a]))
    doc["rules"] = {
        "forbidden_pairs": forbidden,
        "implications": [
            {"if": state_of(a), "then": state_of(c)}
            for a, c in (rng.sample(ids, 2) for _ in range(rng.randint(0, 3)))
        ],
    }
    doc["threshold_rules"] = [
        {
            "conditions": [state_of(i) for i in rng.sample(ids, rng.randint(1, 2))],
            "effect": dict(zip(
                ("source", "source_state", "target", "target_state"),
                state_of(src) + state_of(tgt),
            ), delta=rng.choice([1.0, -2.0, rng.uniform(-2, 2)])),
        }
        for src, tgt in (rng.sample(ids, 2) for _ in range(rng.randint(0, 3)))
    ]
    doc["time_grid"] = [2025 + 5 * k for k in range(rng.randint(2, 4))]
    quiet = rng.random() < 0.2
    doc["uncertainty"] = {
        "resample": rng.choice(["per_run", "per_period"]),
        "sampling_distribution": distribution(),
    }
    if quiet:
        doc["uncertainty"]["confidence_sigma"] = {str(c): 0 for c in range(1, 6)}
    doc["shocks"] = {
        "structural": {
            "enabled": not quiet and rng.random() < 0.5,
            "scale": rng.choice([0.1, 0.3, 1.0]),
            "distribution": distribution(),
        },
        "dynamic": {
            "enabled": not quiet and rng.random() < 0.5,
            "long_run_sd": rng.choice([0.2, 0.5, 1.5]),
            "persistence": rng.uniform(-0.9, 0.9),
            "distribution": distribution(),
        },
    }
    return doc


class TestLockStepOracle:
    def test_blocks_match_the_per_run_reference(self):
        """600 random specs and blocks: the block kernel's records equal the
        reference per-run loop's, run for run."""
        rng = random.Random(20061)
        seen = {
            "error": 0, "capped": 0, "per_run": 0, "cyclic": 0, "two_cyclic": 0, "dynamic": 0,
            "rules": 0,
        }
        for case in range(600):
            spec = parse_study_spec(random_lockstep_document(rng))
            max_iter = ORACLE_CAPS[case % len(ORACLE_CAPS)]
            first = rng.choice([0, rng.randrange(10_000), 2**32 - 3])
            runs = range(first, first + rng.randint(1, 8))
            source = RandomSource(rng.randrange(-2**40, 2**40))
            simulate._check_invariants(spec, max_iter)
            block = simulate._simulate_block(spec, source, runs, max_iter)
            got = simulate._records(block, spec.time_grid)
            want = [reference.simulate_run(spec, i, source, max_iter) for i in runs]
            assert got == want, (case, max_iter)
            seen["error"] += any(r.error for r in want)
            seen["capped"] += any(not all(r.converged) for r in want)
            seen["per_run"] += spec.uncertainty.resample == "per_run"
            seen["cyclic"] += bool(spec.cyclic_indices)
            seen["two_cyclic"] += len(spec.cyclic_indices) == 2
            seen["dynamic"] += spec.shocks.dynamic.enabled
            seen["rules"] += bool(spec.threshold_rules and spec.rules.implications)
        assert min(seen.values()) >= 30, seen

    def test_scenario_codes_spanning_two_words(self):
        # 33 descriptors of 4 states: 4**33 = 2**66 scenarios need two code words
        rng = random.Random(7)
        for max_iter in (3, 100):
            doc = random_lockstep_document(
                rng, min_descriptors=33, max_descriptors=33, min_states=4, max_states=4
            )
            spec = parse_study_spec(doc)
            source, runs = RandomSource(rng.randrange(2**32)), range(5, 9)
            block = simulate._simulate_block(spec, source, runs, max_iter)
            want = [reference.simulate_run(spec, i, source, max_iter) for i in runs]
            assert simulate._records(block, spec.time_grid) == want

    def test_infeasible_run_records_the_first_blocked_descriptor(self):
        doc = two_desc_document({
            "rules": {"forbidden_pairs": [[["A", 0], ["B", 0]], [["A", 1], ["B", 0]]]},
        })
        spec = parse_study_spec(doc)
        record = run_record(spec, 0, RandomSource(3))
        assert record == reference.simulate_run(spec, 0, RandomSource(3), 100)
        assert record.error == "no feasible state for descriptor 'A'"
        assert record.pathway.periods == (2025,)

    def test_scores_sum_in_source_order(self):
        spec = parse_study_spec(ulp_tie_document())
        record = run_record(spec, 0, RandomSource(0))
        assert record == reference.simulate_run(spec, 0, RandomSource(0), 100)
        assert record.pathway.terminal() == (0, 0, 0, 0)


def blocked_study(mini_spec_path, edits):
    with open(mini_spec_path) as fh:
        doc = json.load(fh)
    doc.update(edits)
    return parse_study_spec(doc)


#: Renewables deployment has no feasible state while public acceptance (a
#: locked cyclic descriptor) is Low, which some runs reach.
INFEASIBLE_WHEN_PA_LOW = {"rules": {"forbidden_pairs": [
    [["RD", s], ["PA", "Low"]] for s in ("Low", "Medium", "High")
]}}


def ulp_tie_document():
    """Three locked cyclic sources that never move and one target T whose
    two states score 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1: summed in source
    order, state 0 is one ulp higher, so T moves from state 1 to 0; summed
    in any other order it would not."""
    sources = [
        {"id": k, "states": ["x"], "kind": "cyclic",
         "cyclic": {"stay": 1.0, "step": 0.0, "step2": 0.0}}
        for k in "ABC"
    ]
    descriptors = sources + [{"id": "T", "states": ["t0", "t1"]}]
    scores = {("A", 0): 0.1, ("A", 1): 0.3, ("B", 0): 0.2, ("B", 1): 0.2,
              ("C", 0): 0.3, ("C", 1): 0.1}
    cells = [
        {"source": src["id"], "source_state": i, "target": tgt["id"], "target_state": t,
         "score": scores.get((src["id"], t), 0) if tgt["id"] == "T" else 0,
         "confidence": 3}
        for src in descriptors for tgt in descriptors if src is not tgt
        for i in range(len(src["states"])) for t in range(len(tgt["states"]))
    ]
    return {
        "descriptors": descriptors,
        "cim": cells,
        "baseline": {"A": 0, "B": 0, "C": 0, "T": 1},
        "time_grid": [2025, 2030],
        "uncertainty": {"confidence_sigma": {str(c): 0 for c in range(1, 6)}},
    }


class TestBlockBoundaries:
    @pytest.mark.parametrize(
        "edits", [INFEASIBLE_WHEN_PA_LOW, {"uncertainty": {"resample": "per_run"}}],
        ids=["infeasible-runs", "per-run-resample"],
    )
    def test_run_counts_across_block_and_chunk_edges(self, mini_spec_path, edits):
        spec = blocked_study(mini_spec_path, edits)
        full = simulate_ensemble(spec, 2 * BLOCK_RUNS + 1, 11)
        if "rules" in edits:
            assert any(r.error for r in full.runs)
        for count in (1, BLOCK_RUNS - 1, BLOCK_RUNS, BLOCK_RUNS + 1, 2 * BLOCK_RUNS + 1):
            for workers in (1, 2, 3):
                ensemble = simulate_ensemble(spec, count, 11, worker_count=workers)
                assert ensemble.run_count == count
                assert ensemble.runs == full.runs[:count], (count, workers)


class TestRunView:
    def test_reads_like_the_records_of_the_whole_ensemble(self, mini_spec_path, monkeypatch):
        spec = blocked_study(mini_spec_path, INFEASIBLE_WHEN_PA_LOW)
        ens = simulate_ensemble(spec, BLOCK_RUNS + 5, 11)
        n, failed = ens.run_count, sorted(ens.errors)
        assert failed
        whole = simulate.BlockResult(range(n), *ens._arrays(), [ens.errors.get(r) for r in range(n)])
        want = simulate._records(whole, ens.time_grid)
        runs = ens.runs
        assert len(runs) == n and runs == want and want == runs and runs == tuple(want)
        assert runs != want[:-1] and runs != want[::-1]
        assert [r.run_index for r in runs] == list(range(n))
        for i in (0, BLOCK_RUNS - 1, BLOCK_RUNS, n - 1, -1, -n, failed[0]):
            assert runs[i] == want[i], i
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                runs[i]
        part = runs[BLOCK_RUNS - 2:BLOCK_RUNS + 2]
        assert isinstance(part, simulate.RunView) and len(part) == 4
        assert part == want[BLOCK_RUNS - 2:BLOCK_RUNS + 2] and part[-1] == want[BLOCK_RUNS + 1]
        assert runs[::-3] == want[::-3]
        monkeypatch.setattr(simulate, "_records", None)  # len builds no record
        ok = ens.ok_runs()
        assert len(ok) == n - len(failed)
        monkeypatch.undo()
        assert ok == [r for r in want if r.error is None]
        assert [r.run_index for r in ok] == [r for r in range(n) if r not in ens.errors]

    def test_iterating_holds_one_block_of_records(self, mini_spec):
        """Reading every record of 8 blocks peaks at about what one block's
        records take, plus the freed tuples that CPython's free lists keep
        (tracemalloc counts them as held; up to some 450 KB here). Records
        kept for every run would take 8 times one block's."""
        def peak(call):
            gc.collect()  # empties the free lists
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = simulate_ensemble(mini_spec, BLOCK_RUNS, 5)
        eight = simulate_ensemble(mini_spec, 8 * BLOCK_RUNS, 5)
        one_block = peak(lambda: list(one.runs))
        every_run = peak(lambda: sum(1 for _ in eight.runs))
        assert every_run < 3 * one_block, (one_block, every_run)

    def test_reading_the_records_keeps_none(self, mini_spec):
        ens = simulate_ensemble(mini_spec, BLOCK_RUNS + 1, 5)
        size = len(pickle.dumps(ens))
        list(ens.runs), list(ens.ok_runs()), ens.runs[3]
        assert len(pickle.dumps(ens)) == size


class TestEnsemble:
    def test_run_indices_ordered(self, mini_spec):
        ens = simulate_ensemble(mini_spec, 20, 42)
        assert [r.run_index for r in ens.runs] == list(range(20))
        assert ens.run_count == 20
        assert ens.spec_digest == mini_spec.digest()

    def test_parallel_matches_serial(self, mini_spec):
        serial = simulate_ensemble(mini_spec, 60, 42, worker_count=1)
        parallel = simulate_ensemble(mini_spec, 60, 42, worker_count=4)
        assert serial == parallel

    def test_bad_args(self, mini_spec):
        with pytest.raises(ConfigError):
            simulate_ensemble(mini_spec, 0, 42)
        with pytest.raises(ConfigError):
            simulate_ensemble(mini_spec, 10, 42, worker_count=0)

    def test_stream_requests(self, monkeypatch, mini_spec):
        """A 2000-run mini ensemble sets a generator state once per drawn
        stream: runs x 5 periods x the cim, structural and dynamic streams.
        The cyclic moves take their uniforms from the state table."""
        purposes = []
        set_state = StreamBlock.set_state

        def counted(self, bit_generator, at):
            purposes.append(PURPOSES[at % len(PURPOSES)])
            set_state(self, bit_generator, at)

        monkeypatch.setattr(StreamBlock, "set_state", counted)
        ensemble = simulate_ensemble(mini_spec, 2000, 1)
        assert not ensemble.errors and len(mini_spec.time_grid) == 6
        assert len(purposes) == 30_000
        assert {p: purposes.count(p) for p in set(purposes)} == {
            "cim": 10_000, "structural": 10_000, "dynamic": 10_000,
        }

    def test_degenerate_ensemble_is_constant(self):
        spec = parse_study_spec(degenerate_document())
        ens = simulate_ensemble(spec, 50, 123)
        pathways = {r.pathway for r in ens.runs}
        assert len(pathways) == 1


@pytest.mark.parametrize("case", BAD_RULE_REFS)
def test_a_rule_reference_outside_the_spec_raises_before_any_run(fixture_spec, case):
    """A rule of a spec built in code that names a descriptor position or a
    state the spec lacks is refused once per call, by the engine's check."""
    spec = dataclasses.replace(fixture_spec, **BAD_RULE_REFS[case])
    with pytest.raises(StructureError, match="a rule names state"):
        simulate_ensemble(spec, 4, 1)
    with pytest.raises(StructureError, match="a rule names state"):
        robustness_fraction(spec, (0, 0), StructuralShockConfig(True, 0.5), 10, 1)


class TestRobustness:
    def test_zero_scale_is_exact(self, fixture_spec):
        cfg = StructuralShockConfig(True, 0.0, Distribution("gaussian"))
        assert robustness_fraction(fixture_spec, (0, 0), cfg, 100, 1) == 1.0
        assert robustness_fraction(fixture_spec, (0, 1), cfg, 100, 1) == 0.0

    def test_monotone_in_scale(self, fixture_spec):
        fractions = [
            robustness_fraction(
                fixture_spec,
                (0, 0),
                StructuralShockConfig(True, s, Distribution("gaussian")),
                2000,
                9,
            )
            for s in (0.0, 0.15, 0.30, 0.60)
        ]
        for lo, hi in zip(fractions[1:], fractions):
            assert lo <= hi + 0.02

    def test_reproducible(self, fixture_spec):
        cfg = StructuralShockConfig(True, 0.3, Distribution("student_t", 5))
        a = robustness_fraction(fixture_spec, (0, 0), cfg, 500, 5)
        b = robustness_fraction(fixture_spec, (0, 0), cfg, 500, 5)
        assert a == b

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 200])
    def test_chunks_equal_the_reference_streams(self, monkeypatch, mini_spec, count):
        monkeypatch.setattr(simulate, "ROBUSTNESS_CHUNK", 64)
        cfg = StructuralShockConfig(True, 1.0, Distribution("gaussian"))
        source, scenario = RandomSource(8), mini_spec.baseline
        hits = sum(
            check_consistency(
                mini_spec, apply_structural_shock(
                    mini_spec.cim, source.substream("robustness", s), cfg
                ), scenario,
            ).consistent
            for s in range(count)
        )
        assert robustness_fraction(mini_spec, scenario, cfg, count, 8) == hits / count
        if count == 200:
            assert 0 < hits < count

    def test_peak_memory_is_bounded_by_the_chunk(self, monkeypatch, fixture_spec):
        """Streams are derived a chunk at a time, so the peak does not grow
        with the sample count; one block of 16 chunks' streams peaks higher."""
        monkeypatch.setattr(simulate, "ROBUSTNESS_CHUNK", 256)
        cfg = StructuralShockConfig(True, 0.3, Distribution("gaussian"))

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two = peak(lambda: robustness_fraction(fixture_spec, (0, 0), cfg, 2 * 256, 4))
        sixteen = peak(lambda: robustness_fraction(fixture_spec, (0, 0), cfg, 16 * 256, 4))
        one_block = peak(lambda: RandomSource(4).block(("robustness",), range(16 * 256)))
        assert sixteen < 1.25 * two, (two, sixteen)
        assert sixteen < one_block / 2, (sixteen, one_block)


class TestEnsembleIo:
    def test_round_trip(self, mini_spec, tmp_path):
        ens = simulate_ensemble(mini_spec, 15, 42)
        path = str(tmp_path / "ens.jsonl")
        save_ensemble(ens, path)
        assert load_ensemble(path) == ens

    def test_byte_identical_reserialisation(self, mini_spec, tmp_path):
        ens = simulate_ensemble(mini_spec, 15, 42)
        p1 = str(tmp_path / "a.jsonl")
        p2 = str(tmp_path / "b.jsonl")
        save_ensemble(ens, p1)
        save_ensemble(load_ensemble(p1), p2)
        assert ensemble_digest(p1) == ensemble_digest(p2)

    @pytest.mark.parametrize("kept", [0, 9, 11])
    def test_record_count_must_match_header(self, mini_spec, tmp_path, kept):
        ens = simulate_ensemble(mini_spec, 10, 42)
        buf = io.StringIO()
        write_ensemble(ens, buf)
        header, *records = buf.getvalue().splitlines(keepends=True)
        records = (records * 2)[:kept]
        path = tmp_path / "ens.jsonl"
        path.write_text(header + "".join(records))
        with pytest.raises(ParseError, match=f"{kept} run records"):
            load_ensemble(str(path))

    def test_header_fields(self, mini_spec):
        ens = simulate_ensemble(mini_spec, 3, 42)
        buf = io.StringIO()
        write_ensemble(ens, buf)
        first = buf.getvalue().splitlines()[0]
        assert '"master_seed":42' in first
        assert '"run_count":3' in first
