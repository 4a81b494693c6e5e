import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from cibpath.analytics import (
    REASONS,
    Candidate,
    ScreeningConfig,
    _medoids,
    _ndtri,
    _wilson_z,
    screen_candidates,
    select_candidates,
    state_share_series,
    wilson_interval,
)
from cibpath.errors import (
    ConfigError, EmptyInputError, InsufficientCandidatesError, SpecReferenceError, StructureError,
)
from cibpath.model import parse_study_spec
from cibpath.pipeline import resolve_screening
from cibpath.simulate import EnsembleResult, Pathway

from conftest import make_ensemble, two_desc_document


class TestWilson:
    def test_frozen_reference_case(self):
        low, high = wilson_interval(5000, 10000, 0.95)
        assert low == pytest.approx(0.4902021, abs=1e-6)
        assert high == pytest.approx(0.5097979, abs=1e-6)

    def test_closed_form_agreement(self):
        # recompute from the quadratic directly as an independent check
        for s, n in [(0, 10), (10, 10), (3, 7), (250, 1000)]:
            z = norm.ppf(0.975)
            p = s / n
            low, high = wilson_interval(s, n)
            for bound in (low, high):
                if bound in (0.0, 1.0):
                    continue
                lhs = abs(p - bound)
                rhs = z * math.sqrt(bound * (1 - bound) / n + (z / (2 * n)) ** 2) * 0 + z * math.sqrt(
                    p * (1 - p) / n + z * z / (4 * n * n)
                ) / (1 + z * z / n)
                # bound = centre -+ half, so |centre - bound| == half
                centre = (p + z * z / (2 * n)) / (1 + z * z / n)
                assert abs(abs(centre - bound) - rhs) < 1e-12

    def test_degenerate_counts_stay_in_unit_interval(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0 and 0 < high < 1
        low, high = wilson_interval(20, 20)
        assert 0 < low < 1 and high == 1.0

    def test_interval_contains_proportion(self):
        for s, n in [(1, 5), (7, 9), (40, 80)]:
            low, high = wilson_interval(s, n)
            assert low <= s / n <= high

    def test_width_shrinks_with_trials(self):
        w1 = (lambda t: t[1] - t[0])(wilson_interval(50, 100))
        w2 = (lambda t: t[1] - t[0])(wilson_interval(500, 1000))
        assert w2 < w1

    def test_empty_guard(self):
        with pytest.raises(EmptyInputError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("level", [1.5, -0.2, math.nan, 0.0, 1.0, math.inf])
    def test_level_outside_the_open_unit_interval_is_refused(self, level):
        with pytest.raises(ConfigError):
            wilson_interval(30, 100, level)

    def test_z_equals_scipy_norm_ppf(self):
        levels = [*np.linspace(1e-6, 1 - 1e-9, 10_001).tolist(), 0.8, 0.9, 0.95, 0.99, 0.999]
        for level in levels:
            assert _wilson_z(level) == float(norm.ppf(0.5 + level / 2)), level


def _float_neighbours(x: float, n: int = 64) -> np.ndarray:
    """The n floats below a positive x, x itself and the n above it."""
    bits = np.array([x]).view(np.int64) + np.arange(-n, n + 1)
    return bits.view(np.float64)


class TestNdtri:
    """The port of Cephes ndtri against scipy.special.ndtri, bit for bit."""

    @staticmethod
    def assert_bitwise_equal(ps):
        ps = np.asarray(ps, dtype=np.float64)
        got = np.array([_ndtri(p) for p in ps.tolist()])
        np.testing.assert_array_equal(got.view(np.int64), ndtri(ps).view(np.int64))

    def test_dense_grid(self):
        rng = np.random.default_rng(20260)
        self.assert_bitwise_equal(np.linspace(0.0, 1.0, 100_001))
        self.assert_bitwise_equal(rng.random(50_000))

    def test_both_sides_of_the_branch_points(self):
        exp_m2 = math.exp(-2)
        for point in (exp_m2, 0.13533528323661269189, 1 - exp_m2, 0.5):
            self.assert_bitwise_equal(_float_neighbours(point))

    def test_tails(self):
        # below exp(-32) the x >= 8 polynomials run; 1 - p mirrors the tail
        self.assert_bitwise_equal(_float_neighbours(math.exp(-32)))
        self.assert_bitwise_equal(np.logspace(-300, -14, 20_001))
        self.assert_bitwise_equal([5e-324, 1e-310, 2.2250738585072014e-308])
        self.assert_bitwise_equal(1 - np.logspace(-16, -1, 20_001))

    def test_ends_are_infinite(self):
        assert _ndtri(0.0) == -math.inf and _ndtri(1.0) == math.inf


class TestShares:
    def test_counts_and_bands(self, fixture_spec):
        ens = make_ensemble(
            [
                [(0, 0), (0, 0), (1, 1)],
                [(0, 0), (1, 1), (1, 1)],
                [(0, 0), (0, 0), (0, 0)],
                [(0, 0), (1, 0), (1, 1)],
            ]
        )
        series = state_share_series(ens, fixture_spec, "A")
        by_period = dict(series.cells)
        assert by_period[2025][0].share == 1.0
        assert by_period[2030][0].share == 0.5
        assert by_period[2035][1].share == 0.75
        low, high = wilson_interval(2, 4)
        assert by_period[2030][0].low == pytest.approx(low)
        assert by_period[2030][0].high == pytest.approx(high)

    def test_shares_sum_to_one(self, fixture_spec):
        ens = make_ensemble([[(0, 0), (1, 0), (1, 1)], [(0, 0), (0, 1), (0, 0)]])
        series = state_share_series(ens, fixture_spec, "B")
        for _, cells in series.cells:
            assert sum(c.share for c in cells) == pytest.approx(1.0)

    def test_errored_runs_excluded(self, fixture_spec):
        ens = make_ensemble(
            [[(0, 0), (0, 0), (0, 0)], [(1, 1), (1, 1), (1, 1)]], errors={1: "boom"}
        )
        series = state_share_series(ens, fixture_spec, "A")
        assert dict(series.cells)[2035][0].share == 1.0

    def test_no_successful_run_is_refused(self, fixture_spec):
        """All runs errored, or none at all: shares and screening refuse."""
        errored = make_ensemble([[(0, 0)], [(1, 1)]], errors={0: "boom", 1: "boom"})
        grid = errored.time_grid
        empty = EnsembleResult(
            "test", 0, grid, np.zeros((0, 3, 2), np.int8), np.zeros((0, 3), bool),
            np.zeros((0, 3), np.int64), np.zeros(0, np.int64), {},
        )
        for ens in (errored, empty):
            with pytest.raises(EmptyInputError, match="no successful runs"):
                state_share_series(ens, fixture_spec, "A")
            with pytest.raises(EmptyInputError, match="no successful runs"):
                screen(ens, fixture_spec, TestScreening.config)

    def test_matches_counter_oracle_with_errors_and_permuted_runs(self):
        spec = spec3()
        rng = random.Random(7)
        periods = (2025, 2030, 2035)
        runs = [
            [(rng.randrange(3), rng.randrange(3)) for _ in periods] for _ in range(60)
        ]
        # Failed runs stop early, so their pathways are shorter.
        runs = [(seq[:2], "infeasible") if i % 7 == 0 else (seq, None) for i, seq in enumerate(runs)]
        rng.shuffle(runs)
        ens = make_ensemble(
            [seq for seq, _ in runs], periods,
            errors={i: error for i, (_, error) in enumerate(runs) if error},
        )
        ok = [seq for seq, error in runs if error is None]
        n = len(ok)
        for level in (0.95, 0.8):
            for j, did in enumerate(("A", "B")):
                series = state_share_series(ens, spec, did, level)
                assert [p for p, _ in series.cells] == list(periods)
                for t, (_, cells) in enumerate(series.cells):
                    counts = Counter(seq[t][j] for seq in ok)
                    expected = [
                        (counts[s] / n, *wilson_interval(counts[s], n, level))
                        for s in range(3)
                    ]
                    assert [(c.share, c.low, c.high) for c in cells] == expected


def spec3():
    """Three ordered states per descriptor so multi-step moves exist."""
    doc = two_desc_document()
    for d in doc["descriptors"]:
        d["states"] = ["s1", "s2", "s3"]
    doc["cim"] = [
        {"source": s, "source_state": si, "target": t, "target_state": ti,
         "score": 0, "confidence": 3}
        for s, t in [("A", "B"), ("B", "A")]
        for si in range(3)
        for ti in range(3)
    ]
    return parse_study_spec(doc)


def screen(ensemble, spec, doc):
    """screen_candidates under the screening config document doc."""
    return screen_candidates(ensemble, spec, resolve_screening(doc, spec))


class TestScreening:
    config = {"outcome_descriptor": "A"}

    def run_one(self, spec, states, config=None):
        ens = make_ensemble([states])
        result = screen(ens, spec, config or self.config)
        if result.candidates:
            return None
        return REASONS[result.rejected.labels[0]]

    def test_steady_progress_passes(self):
        assert self.run_one(spec3(), [(0, 0), (1, 0), (2, 0)]) is None

    def test_backsliding(self):
        assert self.run_one(spec3(), [(0, 0), (1, 0), (0, 0)]) == "backsliding"

    def test_monotone_decline_is_not_backsliding(self):
        # never improved, so a fall is allowed by this rule
        assert self.run_one(spec3(), [(2, 0), (1, 0), (0, 0)]) is None

    def test_full_vector_backsliding(self):
        cfg = {"outcome_descriptor": "A", "full_vector_backsliding": True}
        assert self.run_one(spec3(), [(0, 0), (0, 1), (0, 0)], cfg) == "backsliding"

    def test_endpoint_exclusion(self):
        cfg = {"outcome_descriptor": "A", "endpoint_exclusions": [[["A", 2], ["B", 0]]]}
        assert self.run_one(spec3(), [(0, 0), (1, 0), (2, 0)], cfg) == "endpoint_inconsistency"
        assert self.run_one(spec3(), [(0, 1), (1, 1), (2, 1)], cfg) is None

    def test_endpoint_exclusion_by_state_label(self):
        cfg = {"outcome_descriptor": "A", "endpoint_exclusions": [[["A", "s3"], ["B", "s1"]]]}
        assert self.run_one(spec3(), [(0, 0), (1, 0), (2, 0)], cfg) == "endpoint_inconsistency"
        assert self.run_one(spec3(), [(0, 1), (1, 1), (2, 1)], cfg) is None

    @pytest.mark.parametrize("pair", [["B", 3], ["B", "s9"], ["Z", 0]])
    def test_endpoint_exclusion_outside_the_spec_is_refused(self, pair):
        cfg = {"outcome_descriptor": "A", "endpoint_exclusions": [[["A", 2], pair]]}
        with pytest.raises(SpecReferenceError, match=r"^screening\.endpoint_exclusions\[0\]\[1\]: "):
            self.run_one(spec3(), [(0, 0), (1, 0), (2, 0)], cfg)

    @pytest.mark.parametrize("config", [
        ScreeningConfig(-1, 2), ScreeningConfig(2, 0), ScreeningConfig(0, 3), ScreeningConfig(0, -1),
        ScreeningConfig(True, 2), ScreeningConfig(0, 2.0),
        ScreeningConfig(0, 2, endpoint_exclusions=(((1, 3),),)),
        ScreeningConfig(0, 2, endpoint_exclusions=((("B", 0),),)),
        ScreeningConfig(0, 2, endpoint_exclusions=(((1, 0, 1),),)),
    ])
    def test_a_config_built_in_code_outside_the_spec_raises(self, config):
        """A position or state that spec3 (two descriptors of three states)
        lacks, or one that is no pair of ints: a negative position would
        otherwise screen the last descriptor."""
        ens = make_ensemble([[(0, 0), (1, 0), (2, 0)]])
        with pytest.raises(StructureError, match="^the screening config names state "):
            screen_candidates(ens, spec3(), config)

    def test_late_rush(self):
        assert self.run_one(spec3(), [(0, 0), (0, 0), (2, 0)]) == "late_rush"

    def test_discontinuity_on_non_outcome(self):
        assert self.run_one(spec3(), [(0, 0), (0, 2), (0, 2)]) == "discontinuity"

    def test_cyclic_step2_exempt_from_discontinuity(self):
        doc = two_desc_document()
        for d in doc["descriptors"]:
            d["states"] = ["s1", "s2", "s3"]
        doc["descriptors"][1]["kind"] = "cyclic"
        doc["descriptors"][1]["cyclic"] = {
            "stay": 0.7, "step": 0.2, "step2": 0.1, "drift": 0.0
        }
        doc["cim"] = [
            {"source": s, "source_state": si, "target": t, "target_state": ti,
             "score": 0, "confidence": 3}
            for s, t in [("A", "B"), ("B", "A")]
            for si in range(3)
            for ti in range(3)
        ]
        spec = parse_study_spec(doc)
        assert self.run_one(spec, [(0, 0), (0, 2), (0, 2)]) is None

    def test_rule_order_backsliding_first(self):
        # pathway violating both backsliding and discontinuity reports backsliding
        cfg = {"outcome_descriptor": "A", "full_vector_backsliding": True}
        assert self.run_one(spec3(), [(0, 2), (2, 0), (0, 2)], cfg) == "backsliding"

    def test_terminal_frequency_over_full_ensemble(self, fixture_spec):
        ens = make_ensemble(
            [
                [(0, 0), (0, 0), (1, 1)],
                [(0, 0), (1, 1), (1, 1)],
                [(0, 0), (0, 0), (0, 0)],
                [(0, 0), (0, 0), (1, 1)],
            ]
        )
        result = screen(ens, fixture_spec, self.config)
        freqs = {c.pathway.terminal(): c.terminal_frequency for c in result.candidates}
        assert freqs[(1, 1)] == 0.75
        assert freqs[(0, 0)] == 0.25
        # three distinct pathways survive, two sharing the (1, 1) terminal
        assert len(result.candidates) == 3

    def test_order_invariance(self, fixture_spec):
        states = [
            [(0, 0), (0, 0), (1, 1)],
            [(0, 0), (1, 1), (1, 1)],
            [(0, 0), (0, 0), (0, 0)],
        ]
        base = screen(make_ensemble(states), fixture_spec, self.config)
        for perm in itertools.permutations(states):
            other = screen(make_ensemble(list(perm)), fixture_spec, self.config)
            assert set(c.pathway for c in other.candidates) == set(
                c.pathway for c in base.candidates
            )
            assert {c.pathway: c.terminal_frequency for c in other.candidates} == {
                c.pathway: c.terminal_frequency for c in base.candidates
            }



def rules_spec():
    """Four descriptors of four states: A (the outcome), B, C cyclic with a
    two-step move (exempt from discontinuity) and D cyclic without one."""
    cyclic = {
        "C": {"stay": 0.6, "step": 0.3, "step2": 0.1, "drift": 0.0},
        "D": {"stay": 0.7, "step": 0.3, "step2": 0.0, "drift": 0.0},
    }
    ids = ["A", "B", "C", "D"]
    doc = two_desc_document()
    doc["descriptors"] = [
        {"id": i, "states": [f"{i}{k}" for k in range(4)],
         **({"kind": "cyclic", "cyclic": cyclic[i]} if i in cyclic else {})}
        for i in ids
    ]
    doc["cim"] = [
        {"source": a, "source_state": si, "target": b, "target_state": ti,
         "score": 0, "confidence": 3}
        for a in ids for b in ids if a != b for si in range(4) for ti in range(4)
    ]
    doc["baseline"] = {i: 0 for i in ids}
    return parse_study_spec(doc)


def brute_force_reason(sequence, spec, config):
    """The first rule in REASONS that one pathway (a list of state tuples,
    one per period) fails, or None, checked value by value."""
    ids = [d.id for d in spec.descriptors]
    out = config.outcome
    series = [[z[j] for z in sequence] for j in range(len(ids))]
    exempt = [d.kind == "cyclic" and d.cyclic_params.step2 > 0 for d in spec.descriptors]
    targets = range(len(ids)) if config.full_vector_backsliding else [out]
    steps = range(1, len(sequence))
    failed = {
        "backsliding": any(
            series[j][t] < series[j][t - 1]
            and any(series[j][u] > series[j][u - 1] for u in range(1, t))
            for j in targets for t in steps
        ),
        "endpoint_inconsistency": any(
            all(sequence[-1][j] == s for j, s in combo)
            for combo in config.endpoint_exclusions
        ),
        "late_rush": len(sequence) > 1
        and series[out][-1] - series[out][-2] >= config.late_rush_steps,
        "discontinuity": any(
            abs(series[j][t] - series[j][t - 1]) >= config.discontinuity_steps
            for j in range(len(ids)) if not exempt[j] for t in steps
        ),
    }
    return next((reason for reason in REASONS if failed[reason]), None)


class TestScreeningOracle:
    """screen_candidates against brute_force_reason on random ensembles."""

    @pytest.mark.parametrize("periods", [1, 2, 3, 6])
    @pytest.mark.parametrize("full_vector", [False, True])
    @pytest.mark.parametrize("late_rush_steps", [1, 2])
    def test_every_pathway_gets_the_brute_force_reason(self, periods, full_vector, late_rush_steps):
        spec = rules_spec()
        rng = random.Random(periods * 4 + full_vector * 2 + late_rush_steps)
        for trial in range(6):
            config = resolve_screening({
                "outcome_descriptor": rng.choice("ABCD"), "late_rush_steps": late_rush_steps,
                "discontinuity_steps": rng.choice([1, 2, 3]), "full_vector_backsliding": full_vector,
                "endpoint_exclusions": [[["A", 3], ["B", rng.randrange(4)]]] if trial % 2 else [],
            }, spec)
            # small moves, so that some pathways pass every rule
            runs = []
            for _ in range(120):
                z = [rng.randrange(4) for _ in range(4)]
                seq = [tuple(z)]
                for _ in range(periods - 1):
                    z = [min(3, max(0, x + rng.choice([-1, 0, 0, 1, 1, 2]))) for x in z]
                    seq.append(tuple(z))
                runs.append(seq)
            ens = make_ensemble(runs, periods=tuple(range(2025, 2025 + periods)))
            result = screen_candidates(ens, spec, config)
            distinct = list(dict.fromkeys(tuple(seq) for seq in runs))
            want = {seq: brute_force_reason(seq, spec, config) for seq in distinct}
            passed = [seq for seq in distinct if want[seq] is None]
            assert [c.pathway.scenarios for c in result.candidates] == passed
            rejected = result.rejected
            got = [
                (rejected.pathway(i).scenarios, REASONS[rejected.labels[i]])
                for i in range(len(rejected))
            ]
            assert got == [(seq, want[seq]) for seq in distinct if want[seq] is not None]

def _candidates(groups, periods):
    return [Candidate(Pathway(tuple(zip(periods, g))), 0.5) for g in groups]


def _hamming(a: Pathway, b: Pathway) -> int:
    return sum(
        x != y for za, zb in zip(a.scenarios, b.scenarios) for x, y in zip(za, zb)
    )


def _brute_force_medoid(members):
    """Smallest integer total Hamming distance, then smallest scenarios."""
    def key(c):
        return (sum(_hamming(c.pathway, m.pathway) for m in members), c.pathway.scenarios)
    return min(members, key=key)


def _sequence_ranks(members) -> np.ndarray:
    """Each member's place when members are sorted by their scenario
    sequences (Python's sort, so equal sequences keep member order)."""
    order = sorted(range(len(members)), key=lambda i: members[i].pathway.scenarios)
    rank = np.empty(len(members), np.intp)
    rank[order] = np.arange(len(members))
    return rank


def _medoid(members):
    """The member _medoids picks for members taken as one group."""
    states = np.array([c.pathway.scenarios for c in members], np.int8)
    (index,) = _medoids(states, np.zeros(len(members), np.intp), _sequence_ranks(members))
    return members[index]


class TestMedoid:
    def test_matches_brute_force_on_random_groups(self):
        rng = random.Random(11)
        for _ in range(300):
            n_periods, n_desc = rng.randint(1, 6), rng.randint(1, 4)
            states = rng.randint(2, 4)
            groups = [
                [
                    tuple(rng.randrange(states) for _ in range(n_desc))
                    for _ in range(n_periods)
                ]
                for _ in range(rng.randint(1, 12))
            ]
            members = _candidates(groups, range(2025, 2025 + n_periods))
            assert _medoid(members) is _brute_force_medoid(members)

    def test_interleaved_groups_match_brute_force(self):
        rng = random.Random(12)
        for _ in range(100):
            n_periods, n_desc = rng.randint(1, 5), rng.randint(1, 4)
            rows = [
                (rng.randrange(4), [
                    tuple(rng.randrange(3) for _ in range(n_desc)) for _ in range(n_periods)
                ])
                for _ in range(rng.randint(4, 30))
            ]
            group = np.unique([g for g, _ in rows], return_inverse=True)[1].ravel()
            states = np.array([seq for _, seq in rows], np.int8)
            members = _candidates([seq for _, seq in rows], range(2025, 2025 + n_periods))
            for g, index in enumerate(_medoids(states, group, _sequence_ranks(members))):
                assert group[index] == g
                assert members[index] is _brute_force_medoid(
                    [m for m, h in zip(members, group) if h == g]
                )

    def test_integer_tie_goes_to_smaller_scenarios(self):
        # Four members have total distance 8. Their old float means,
        # sum(d / periods) / members summed in member order, differ in
        # the last bit, and the smallest mean is not the smallest scenarios.
        groups = [
            [(0,), (1,), (1,)],
            [(1,), (1,), (1,)],
            [(1,), (1,), (0,)],
            [(0,), (0,), (1,)],
            [(0,), (0,), (0,)],
            [(1,), (0,), (1,)],
        ]
        members = _candidates(groups, (2025, 2030, 2035))
        totals = [sum(_hamming(c.pathway, m.pathway) for m in members) for c in members]
        means = [
            sum(_hamming(c.pathway, m.pathway) / 3 for m in members) / len(members)
            for c in members
        ]
        assert totals[0] == totals[3] == min(totals)
        assert means[0] < means[3]
        assert _medoid(members) is members[3]


class TestSelection:
    def config(self, fixture_spec):
        """Outcome A, whose best state is its last, 1."""
        return resolve_screening({"outcome_descriptor": "A"}, fixture_spec)

    def screened(self, fixture_spec, states):
        return screen_candidates(make_ensemble(states), fixture_spec, self.config(fixture_spec))

    def test_frequency_order_and_k(self, fixture_spec):
        states = (
            [[(0, 0), (0, 0), (1, 1)]] * 5
            + [[(0, 0), (1, 1), (1, 1)]] * 3
            + [[(0, 0), (0, 0), (0, 0)]] * 2
            + [[(0, 0), (1, 0), (1, 0)]] * 1
        )
        result = select_candidates(self.screened(fixture_spec, states), 3, self.config(fixture_spec))
        assert len(result.candidates) == 3
        terms = [c.pathway.terminal() for c in result.candidates]
        # groups by terminal frequency: (1,1) 8 runs, (0,0) 2, (1,0) 1
        assert terms == [(1, 1), (0, 0), (1, 0)]
        assert result.candidates[0].rationale.startswith("frequency-rank-1")

    def test_medoid_representative(self, fixture_spec):
        # two pathways share the (1, 1) terminal; medoid is nearest the
        # group mean, falling back on the lexicographically smaller one
        states = [
            [(0, 0), (0, 0), (1, 1)],
            [(0, 0), (1, 1), (1, 1)],
            [(0, 0), (0, 0), (0, 0)],
            [(0, 0), (0, 1), (0, 1)],
        ]
        result = select_candidates(self.screened(fixture_spec, states), 3, self.config(fixture_spec))
        rep = result.candidates[0]
        assert rep.pathway.terminal() == (1, 1)
        assert rep.pathway.scenarios == ((0, 0), (0, 0), (1, 1))

    def test_best_outcome_guarantee_swaps_in(self, fixture_spec):
        # only one frequency-top group reaches A=1; a second A=1 pathway
        # must displace the last non-best selection
        states = (
            [[(0, 0), (0, 0), (1, 1)]] * 6
            + [[(0, 0), (0, 0), (0, 0)]] * 5
            + [[(0, 0), (0, 1), (0, 1)]] * 4
            + [[(0, 0), (1, 1), (1, 0)]] * 1
        )
        result = select_candidates(self.screened(fixture_spec, states), 3, self.config(fixture_spec))
        terms = [c.pathway.terminal() for c in result.candidates]
        assert sum(1 for t in terms if t[0] == 1) >= 2
        assert any("best-outcome-guarantee" in c.rationale for c in result.candidates)
        assert not result.warnings

    def test_quota_relaxed_with_warning(self, fixture_spec):
        states = (
            [[(0, 0), (0, 0), (1, 1)]] * 3
            + [[(0, 0), (0, 0), (0, 0)]] * 2
            + [[(0, 0), (0, 1), (0, 1)]] * 1
        )
        result = select_candidates(self.screened(fixture_spec, states), 3, self.config(fixture_spec))
        assert result.warnings
        terms = [c.pathway.terminal() for c in result.candidates]
        assert sum(1 for t in terms if t[0] == 1) == 1

    def test_insufficient_pool(self, fixture_spec):
        states = [[(0, 0), (0, 0), (1, 1)]]
        with pytest.raises(InsufficientCandidatesError):
            select_candidates(self.screened(fixture_spec, states), 2, self.config(fixture_spec))

    def test_fewer_terminal_groups_than_k(self, fixture_spec):
        # three survivors, all reaching A=1, share one terminal scenario
        states = [[(0, 0), (0, 0), (1, 1)], [(0, 0), (1, 1), (1, 1)], [(0, 0), (0, 1), (1, 1)]]
        screened = self.screened(fixture_spec, states)
        assert len(screened.candidates) == 3
        with pytest.raises(InsufficientCandidatesError, match=(
            "^1 terminal groups among 3 surviving pathways, 2 requested$"
        )):
            select_candidates(screened, 2, self.config(fixture_spec))
