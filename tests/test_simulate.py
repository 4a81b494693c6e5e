import io

import numpy as np
import pytest

from cibpath import simulate
from cibpath.engine import iterate_to_attractor
from cibpath.errors import ConfigError, ParseError
from cibpath.model import CyclicParams, StructuralShockConfig, Distribution, parse_study_spec
from cibpath.simulate import (
    RandomSource,
    ensemble_digest,
    load_ensemble,
    robustness_fraction,
    save_ensemble,
    simulate_ensemble,
    simulate_period,
    simulate_run,
    transition_cyclic_state,
    write_ensemble,
)
from cibpath.uncertainty import DynamicShockState

from conftest import two_desc_document


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


class TestCyclicTransition:
    def test_stay_probability(self):
        params = CyclicParams(stay=0.5, step=0.4, step2=0.1, drift=0.0)
        rng = np.random.default_rng(0)
        stays = sum(
            transition_cyclic_state(params, 2, 5, rng) == 2 for _ in range(20_000)
        )
        assert abs(stays / 20_000 - 0.5) < 0.02

    def test_drift_biases_direction(self):
        params = CyclicParams(stay=0.0, step=1.0, step2=0.0, drift=0.5)
        rng = np.random.default_rng(1)
        ups = sum(
            transition_cyclic_state(params, 1, 3, rng) == 2 for _ in range(20_000)
        )
        assert abs(ups / 20_000 - 0.75) < 0.02

    def test_boundary_block_stays(self):
        params = CyclicParams(stay=0.0, step=0.0, step2=1.0, drift=1.0)
        rng = np.random.default_rng(2)
        # from top state of a 3-state scale every +2 move is blocked
        assert all(
            transition_cyclic_state(params, 2, 3, rng) == 2 for _ in range(100)
        )

    def test_step2_moves_two(self):
        params = CyclicParams(stay=0.0, step=0.0, step2=1.0, drift=1.0)
        rng = np.random.default_rng(3)
        assert transition_cyclic_state(params, 0, 3, rng) == 2


class TestSimulateRun:
    def test_first_period_is_baseline(self, mini_spec):
        rec = simulate_run(mini_spec, 0, RandomSource(42))
        assert rec.pathway.entries[0] == (2025, mini_spec.baseline)
        assert rec.converged[0] is True

    def test_covers_whole_grid(self, mini_spec):
        rec = simulate_run(mini_spec, 0, RandomSource(42))
        assert rec.pathway.periods == mini_spec.time_grid

    def test_degenerate_spec_reaches_fixed_point(self):
        spec = parse_study_spec(degenerate_document())
        rec = simulate_run(spec, 0, RandomSource(7))
        # baseline (0, 0) is consistent, so the pathway never leaves it
        assert rec.pathway.scenarios == ((0, 0), (0, 0), (0, 0))
        assert all(rec.converged)

    def test_run_reproducibility(self, mini_spec):
        a = simulate_run(mini_spec, 5, RandomSource(42))
        b = simulate_run(mini_spec, 5, RandomSource(42))
        assert a == b

    def test_runs_differ(self, mini_spec):
        a = simulate_run(mini_spec, 0, RandomSource(42))
        b = simulate_run(mini_spec, 1, RandomSource(42))
        c = simulate_run(mini_spec, 0, RandomSource(43))
        assert a.pathway != b.pathway or a.pathway != c.pathway

    def test_max_iter_guard(self, mini_spec):
        with pytest.raises(ConfigError):
            simulate_run(mini_spec, 0, RandomSource(0), max_iter=0)


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


def period_against_cap(monkeypatch, spec, prev, period, run_index, source, max_iter):
    """simulate_period's (scenario, converged, iterations), and what stepping
    its own succession to the cap gives."""
    captured = []

    def spy(step, start, max_steps):
        captured.append((step, start))
        return iterate_to_attractor(step, start, max_steps)

    monkeypatch.setattr(simulate, "iterate_to_attractor", spy)
    shock = DynamicShockState.initial(spec)
    scenario, _, converged, iterations = simulate_period(
        spec, prev, period, shock, source, run_index, max_iter
    )
    (step, start), = captured
    return (scenario, converged, iterations), iterate_to_cap(step, start, max_iter)


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

    def test_degenerate_ensemble_is_constant(self):
        spec = parse_study_spec(degenerate_document())
        ens = simulate_ensemble(spec, 50, 123)
        pathways = {r.pathway for r in ens.runs}
        assert len(pathways) == 1


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
