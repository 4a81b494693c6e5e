import math
from itertools import product

import numpy as np
import pytest

from cibpath.errors import ConfigError, OutOfRangeError
from cibpath.model import Distribution, DynamicShockConfig, parse_study_spec
from cibpath.simulate import PURPOSES, simulate_ensemble
from cibpath.uncertainty import (
    RandomSource,
    advance_dynamic_shock,
    apply_structural_shock,
    ar1_step,
    draw_factor,
    filler,
    sample_cim,
)

from conftest import two_desc_document


class TestRandomSource:
    def test_same_parts_same_stream(self):
        a = RandomSource(7).substream("run", 3).random(8)
        b = RandomSource(7).substream("run", 3).random(8)
        assert np.array_equal(a, b)

    def test_different_parts_differ(self):
        a = RandomSource(7).substream("run", 3).random(8)
        b = RandomSource(7).substream("run", 4).random(8)
        c = RandomSource(8).substream("run", 3).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_tags_separate_streams(self):
        a = RandomSource(7).substream("structural", 0).random(4)
        b = RandomSource(7).substream("dynamic", 0).random(4)
        assert not np.array_equal(a, b)

    def test_draw_order_independence(self):
        src = RandomSource(42)
        late = src.substream("run", 100).random(4)
        _ = src.substream("run", 0).random(1000)
        again = src.substream("run", 100).random(4)
        assert np.array_equal(late, again)

    def test_rejects_float_parts(self):
        with pytest.raises(TypeError):
            RandomSource(1).substream(1.5)


GAUSSIAN, STUDENT_T = Distribution("gaussian"), Distribution("student_t", 5)


def filled(block, at, distribution, shape):
    """StreamBlock.fill's rows of the given shape for the flat indices at."""
    rows = np.empty((len(at),) + shape)
    block.fill(at, distribution, rows)
    return rows


def reference_rows(source, parts, shape):
    """The Gaussian and the Student-t(5) row that the reference stream
    named by parts starts with."""
    normal, student = source.substream(*parts), source.substream(*parts)
    return normal.standard_normal(shape), student.standard_t(5, shape)


class TestStreamBlock:
    """StreamBlock against the reference definition, RandomSource.substream."""

    #: Entropy of one word (0), two words, and the 2**64 - 1 that -1 becomes.
    SEEDS = (0, 2**32 + 7, -1, 2**64 - 1, 42)
    #: One-word and two-word runs, run 0 first.
    RUNS = (0, 1, 2, 7, 500, 1999, 2**32 - 1, 2**32, 2**63 + 5)
    #: Negative periods are taken mod 2**64, so they have two words.
    PERIODS = (2025, 2030, 0, -1, -2030, 2**40)

    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_every_stream_equals_the_reference(self, master_seed):
        """fill gives every stream's Gaussian and Student-t rows, a vector
        and a matrix each, draw for draw."""
        source = RandomSource(master_seed)
        block = source.block(self.RUNS, self.PERIODS, PURPOSES)
        cases = list(product(self.RUNS, self.PERIODS, PURPOSES))
        every = range(len(cases))
        rows = {
            (distribution.kind, shape): filled(block, every, distribution, shape)
            for distribution in (GAUSSIAN, STUDENT_T) for shape in ((3,), (2, 3))
        }
        for at, parts in enumerate(cases):
            for shape in ((3,), (2, 3)):
                normal, student = reference_rows(source, parts, shape)
                assert np.array_equal(rows["gaussian", shape][at], normal), parts
                assert np.array_equal(rows["student_t", shape][at], student), parts
        assert len(cases) * len(self.SEEDS) >= 1000

    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_flat_index_requests_equal_the_reference(self, master_seed):
        """The flat index is row-major over the axes (strides), set_state
        puts a Generator at the stream's precomputed PCG64 state, uniforms
        gives each stream's first k draws of random(), for k = 1..6, and
        fill and uniforms take any subset of the streams, in any order."""
        source = RandomSource(master_seed)
        axes = (self.RUNS, self.PERIODS, PURPOSES)
        block = source.block(*axes)
        cases = list(product(*axes))
        for at, position in enumerate(product(*map(range, map(len, axes)))):
            assert np.dot(position, block.strides) == at
        every = np.arange(len(cases))
        uniforms = {k: block.uniforms(every, k) for k in range(1, 7)}
        rng = np.random.Generator(np.random.PCG64(0))
        for at, parts in enumerate(cases):
            block.set_state(rng.bit_generator, at)
            assert rng.bit_generator.state == source.substream(*parts).bit_generator.state
            for k, drawn in uniforms.items():
                assert np.array_equal(drawn[at], source.substream(*parts).random(k)), (parts, k)
        picked = every[::-7]
        assert np.array_equal(block.uniforms(picked, 6), uniforms[6][picked])
        assert np.array_equal(
            filled(block, picked, STUDENT_T, (4,)), filled(block, every, STUDENT_T, (4,))[picked]
        )

    def test_leading_str_axis_equals_the_reference(self):
        source = RandomSource(9)
        block = source.block(("robustness",), range(300))
        gaussian = filled(block, range(300), GAUSSIAN, (2, 3))
        student = filled(block, range(300), STUDENT_T, (2, 3))
        for s in range(300):
            normal, t = reference_rows(source, ("robustness", s), (2, 3))
            assert np.array_equal(gaussian[s], normal) and np.array_equal(student[s], t)

    def test_one_generator_fills_every_purpose_in_turn(self):
        """One block fills the cim, structural and dynamic rows of a period
        in turn, as the simulator does, each from its own stream."""
        source, runs = RandomSource(3), range(5)
        block = source.block(runs, (2025, 2030), PURPOSES)
        run_stride, period_stride, _ = block.strides
        drawn = {}
        for purpose, distribution in (("cim", GAUSSIAN), ("structural", STUDENT_T),
                                      ("dynamic", GAUSSIAN)):
            at = np.array(runs) * run_stride + period_stride + PURPOSES.index(purpose)
            drawn[purpose] = filled(block, at, distribution, (2, 3))
        for run in runs:
            for purpose, rows in drawn.items():
                normal, t = reference_rows(source, (run, 2030, purpose), (2, 3))
                want = t if purpose == "structural" else normal
                assert np.array_equal(rows[run], want), (run, purpose)

    def test_stream_outside_the_block(self):
        block = RandomSource(3).block(range(4), (2030,), PURPOSES)
        with pytest.raises(IndexError):
            block.fill([16], GAUSSIAN, np.empty((1, 2)))
        with pytest.raises(IndexError):
            block.uniforms(np.array([0, 16]), 2)

    def test_negative_flat_index_is_refused(self):
        """A negative index names no stream; numpy would count it from the
        end of the table and draw run 3's stream."""
        block = RandomSource(3).block(range(4), (2030,), PURPOSES)
        with pytest.raises(IndexError, match="-1"):
            block.fill([-1], GAUSSIAN, np.empty((1, 2)))
        with pytest.raises(IndexError, match="-3"):
            block.uniforms(np.array([0, -3]), 2)

    def test_rejects_float_parts(self):
        with pytest.raises(TypeError):
            RandomSource(1).block((1.5,))

    def test_numpy_draws_from_a_fixed_state_are_pinned(self):
        """numpy's first standard_normal, standard_t(5) and random() draws
        from one PCG64 state, as literals: a numpy release that moves them
        fails here by name, not only as a moved golden digest."""
        block = RandomSource(2026).block(("pin",))
        rng = np.random.Generator(np.random.PCG64(0))
        block.set_state(rng.bit_generator, 0)
        assert rng.bit_generator.state["state"] == {
            "state": 262823731008923097843675688636699274015,
            "inc": 133743883309780405594265679411851314921,
        }
        for draw, pinned in (
            (rng.standard_normal, [-0.9929964988769413, 0.024338451793951735, -1.0659057176341917]),
            (lambda n: rng.standard_t(5, n),
             [-1.0578913345393486, -2.3823064592712666, -0.9497276315443756]),
            (rng.random, [0.060427478248366806, 0.3768408386672071, 0.34202235572778594]),
        ):
            block.set_state(rng.bit_generator, 0)
            assert draw(3).tolist() == pinned


def draw_scaled(rng, distribution, sd, shape):
    """Zero-mean draws whose standard deviation is sd, made as
    apply_structural_shock makes its noise: unit draws from filler, scaled
    by draw_factor."""
    out = filler(rng, distribution)(np.empty(shape))
    out *= draw_factor(distribution, sd)
    return out


class TestDrawScaled:
    def test_gaussian_sd(self):
        rng = np.random.default_rng(0)
        x = draw_scaled(rng, Distribution("gaussian"), 0.85, 200_000)
        assert abs(x.std() - 0.85) < 0.01
        assert abs(x.mean()) < 0.01

    def test_student_t_sd_matches_request(self):
        rng = np.random.default_rng(1)
        x = draw_scaled(rng, Distribution("student_t", 5), 0.85, 400_000)
        assert abs(x.std() - 0.85) < 0.01

    def test_student_t_df_guard(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ConfigError):
            draw_scaled(rng, Distribution("student_t", 2), 1.0, 10)

    def test_zero_sd_is_degenerate(self):
        rng = np.random.default_rng(3)
        assert not draw_scaled(rng, Distribution("gaussian"), 0.0, 50).any()


class TestJudgementSigma:
    """A judgement's sampling scale, as spec.sigma_tables gives it: its
    confidence code's sigma times the period's time-scale factor."""

    def test_default_map_first_period(self):
        doc = two_desc_document()
        for k, cell in enumerate(doc["cim"]):
            cell["confidence"] = 1 + k % 5
        spec = parse_study_spec(doc)
        table, mask = spec.sigma_tables[2025], spec.cim.valid_mask
        expected = {1: 1.5, 2: 1.175, 3: 0.85, 4: 0.525, 5: 0.2}
        for code, sd in expected.items():
            cells = mask & (spec.cim.confidences == code)
            assert cells.any()
            np.testing.assert_allclose(table[cells], sd)
        assert not table[~mask].any()

    def test_time_scale_grows_linearly(self):
        doc = two_desc_document()
        for cell in doc["cim"]:
            cell["confidence"] = 3
        spec = parse_study_spec(doc)
        mask, unc = spec.cim.valid_mask, spec.uncertainty
        # default ramp 1.0 -> 1.5 across the grid (2025, 2030, 2035)
        ramp = dict(zip((2025, 2030, 2035), (1.0, 1.25, 1.5)))
        for period, factor in unc.time_scale:
            np.testing.assert_allclose(spec.sigma_tables[period][mask], 0.85 * ramp[period])
            # one multiply per code, as the simulator has always scaled
            assert (spec.sigma_tables[period][mask] == unc.confidence_sigma[2] * factor).all()

    def test_bad_inputs(self, fixture_spec):
        """A valid cell's code outside 1..5, however it got there, is refused
        naming the first such cell; so is a period off the time grid."""
        with pytest.raises(OutOfRangeError, match="period 1999"):
            sample_cim(fixture_spec, np.random.default_rng(0), 1999)
        for code in (0, -1, 6):
            spec = parse_study_spec(two_desc_document())
            spec.cim.confidences[1, 0, 0, 1] = code
            spec.cim.confidences[0, 1, 1, 0] = code
            with pytest.raises(OutOfRangeError, match=rf"cim\[A:1->B:0\]: confidence {code} "):
                spec.sigma_tables
            with pytest.raises(OutOfRangeError, match=rf"cim\[A:1->B:0\]: confidence {code} "):
                simulate_ensemble(spec, 4, 1)


class TestSampleCim:
    def test_point_estimates_recovered_at_zero_sigma(self):
        doc = two_desc_document(
            {"uncertainty": {"confidence_sigma": {"1": 0, "2": 0, "3": 0, "4": 0, "5": 0}}}
        )
        spec = parse_study_spec(doc)
        out = sample_cim(spec, np.random.default_rng(0), 2025)
        assert np.array_equal(out.scores, spec.cim.scores)

    def test_clip_bounds(self, fixture_spec):
        for seed in range(5):
            out = sample_cim(fixture_spec, np.random.default_rng(seed), 2035)
            assert out.scores.min() >= -3.0
            assert out.scores.max() <= 3.0

    def test_invalid_cells_stay_zero(self, fixture_spec):
        out = sample_cim(fixture_spec, np.random.default_rng(4), 2025)
        assert not out.scores[~fixture_spec.cim.valid_mask].any()

    def test_empirical_sd_tracks_confidence_code(self):
        doc = two_desc_document()
        for cell in doc["cim"]:
            cell["confidence"] = 3
        spec = parse_study_spec(doc)
        rng = np.random.default_rng(11)
        mask = spec.cim.valid_mask
        devs = []
        for _ in range(4000):
            out = sample_cim(spec, rng, 2025)
            devs.append((out.scores - spec.cim.scores)[mask])
        sd = np.concatenate(devs).std()
        # clipping at +-3 shaves a little off 0.85 for the |score|=2 cells
        assert 0.7 < sd < 0.87

    def test_confidences_pass_through(self, fixture_spec):
        out = sample_cim(fixture_spec, np.random.default_rng(5), 2025)
        assert np.array_equal(out.confidences, fixture_spec.cim.confidences)


class TestStructuralShock:
    def test_zero_scale_identity(self, fixture_spec):
        from cibpath.model import StructuralShockConfig

        cfg = StructuralShockConfig(True, 0.0, Distribution("gaussian"))
        out = apply_structural_shock(fixture_spec.cim, np.random.default_rng(0), cfg)
        assert np.array_equal(out.scores, fixture_spec.cim.scores)

    def test_scale_reflected_in_deviation(self, fixture_spec):
        from cibpath.model import StructuralShockConfig

        cfg = StructuralShockConfig(True, 0.3, Distribution("student_t", 5))
        rng = np.random.default_rng(1)
        mask = fixture_spec.cim.valid_mask
        devs = []
        for _ in range(4000):
            out = apply_structural_shock(fixture_spec.cim, rng, cfg)
            devs.append((out.scores - fixture_spec.cim.scores)[mask])
        sd = np.concatenate(devs).std()
        assert 0.25 < sd < 0.32


def ar1(rho, tau):
    return DynamicShockConfig(True, long_run_sd=tau, persistence=rho)


class TestDynamicShock:
    def test_initial_state_is_zero(self, mini_spec):
        """The simulator's eta starts at zero, so the first step is the
        innovation alone, scaled to tau * sqrt(1 - rho^2)."""
        cfg = mini_spec.shocks.dynamic
        assert cfg.enabled and cfg.persistence == 0.6 and cfg.long_run_sd == 0.4
        shape = (len(mini_spec.descriptors), max(mini_spec.state_counts))
        first = advance_dynamic_shock(np.zeros(shape), np.random.default_rng(3), cfg)
        sd = 0.4 * math.sqrt(1 - 0.6**2)
        innovation = draw_scaled(np.random.default_rng(3), cfg.distribution, sd, shape)
        assert np.array_equal(first, innovation)
        noise = np.empty(shape)
        noise[...] = np.random.default_rng(3).standard_t(cfg.distribution.df, shape)
        assert np.array_equal(ar1_step(np.zeros(shape), noise, cfg), first)

    def test_stationary_sd_approaches_long_run(self):
        cfg, eta = ar1(0.8, 1.0), np.zeros((2, 2))
        rng = np.random.default_rng(9)
        samples = []
        for i in range(60_000):
            eta = advance_dynamic_shock(eta, rng, cfg)
            if i > 200:
                samples.append(eta.copy())
        assert abs(np.concatenate(samples).std() - 1.0) < 0.03

    def test_lag_one_autocorrelation(self):
        cfg, eta = ar1(0.6, 0.4), np.zeros((1, 1))
        rng = np.random.default_rng(10)
        xs = []
        for _ in range(40_000):
            eta = advance_dynamic_shock(eta, rng, cfg)
            xs.append(eta[0, 0])
        x = np.asarray(xs)
        corr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(corr - 0.6) < 0.02

    def test_persistence_bound(self):
        with pytest.raises(ConfigError):
            advance_dynamic_shock(np.zeros((1, 1)), np.random.default_rng(0), ar1(1.0, 0.4))
