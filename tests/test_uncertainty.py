from itertools import product

import numpy as np
import pytest

from cibpath.errors import ConfigError, OutOfRangeError
from cibpath.model import Distribution, parse_study_spec
from cibpath.simulate import PURPOSES
from cibpath.uncertainty import (
    DynamicShockState,
    RandomSource,
    advance_dynamic_shock,
    apply_structural_shock,
    draw_scaled,
    judgement_sigma,
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


def same_stream(got, want):
    """Equal PCG64 state, and equal draws of each kind the simulator takes."""
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(2), want.random(2))
    assert np.array_equal(got.standard_normal(3), want.standard_normal(3))
    assert np.array_equal(got.standard_t(5, 3), want.standard_t(5, 3))


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
        source = RandomSource(master_seed)
        block = source.block(self.RUNS, self.PERIODS, PURPOSES)
        cases = list(product(self.RUNS, self.PERIODS, PURPOSES))
        for run, period, purpose in cases:
            same_stream(
                block.substream(run, period, purpose), source.substream(run, period, purpose)
            )
        assert len(cases) * len(self.SEEDS) >= 1000

    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_flat_index_requests_equal_the_reference(self, master_seed):
        """index is row-major over the axes, set_state puts a Generator at
        the stream's precomputed PCG64 state, and uniforms gives each
        stream's first k draws of random(), for k = 1..6."""
        source = RandomSource(master_seed)
        block = source.block(self.RUNS, self.PERIODS, PURPOSES)
        cases = list(product(self.RUNS, self.PERIODS, PURPOSES))
        every = np.arange(len(cases))
        uniforms = {k: block.uniforms(every, k) for k in range(1, 7)}
        rng = np.random.Generator(np.random.PCG64(0))
        for at, parts in enumerate(cases):
            assert block.index(*parts) == at
            block.set_state(rng.bit_generator, at)
            same_stream(rng, source.substream(*parts))
            for k, drawn in uniforms.items():
                assert np.array_equal(drawn[at], source.substream(*parts).random(k)), (parts, k)
        picked = every[::-7]  # any subset, in any order
        assert np.array_equal(block.uniforms(picked, 6), uniforms[6][picked])

    def test_generators_are_reused_per_key(self):
        block = RandomSource(3).block((0, 1), (2030,), PURPOSES)
        assert block.generator("cim") is block.generator("cim")
        assert block.generator("cim") is not block.generator("dynamic")
        assert block.substream(1, 2030, "cim") is block.generator("cim")

    def test_leading_str_axis_equals_the_reference(self):
        source = RandomSource(9)
        block = source.block(("robustness",), range(300))
        for s in range(300):
            same_stream(block.substream("robustness", s), source.substream("robustness", s))

    def test_purposes_do_not_share_a_generator(self):
        source = RandomSource(3)
        block = source.block((0,), (2030,), PURPOSES)
        held = [block.substream(0, 2030, purpose) for purpose in PURPOSES]
        for purpose, got in zip(PURPOSES, held):
            same_stream(got, source.substream(0, 2030, purpose))

    def test_stream_outside_the_block(self):
        block = RandomSource(3).block(range(4), (2030,), PURPOSES)
        with pytest.raises(KeyError):
            block.substream(4, 2030, "cim")
        with pytest.raises(KeyError):
            block.substream(0, 2030)
        with pytest.raises(KeyError):
            block.index(0, 2035, "cim")

    def test_rejects_float_parts(self):
        with pytest.raises(TypeError):
            RandomSource(1).block((1.5,))


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
    def test_default_map_first_period(self, fixture_spec):
        unc = fixture_spec.uncertainty
        expected = {1: 1.5, 2: 1.175, 3: 0.85, 4: 0.525, 5: 0.2}
        for code, sd in expected.items():
            assert judgement_sigma(unc, code, 2025) == pytest.approx(sd)

    def test_time_scale_grows_linearly(self, fixture_spec):
        unc = fixture_spec.uncertainty
        # default ramp 1.0 -> 1.5 across the grid (2025, 2030, 2035)
        assert judgement_sigma(unc, 3, 2025) == pytest.approx(0.85)
        assert judgement_sigma(unc, 3, 2030) == pytest.approx(0.85 * 1.25)
        assert judgement_sigma(unc, 3, 2035) == pytest.approx(0.85 * 1.5)

    def test_bad_inputs(self, fixture_spec):
        unc = fixture_spec.uncertainty
        with pytest.raises(OutOfRangeError):
            judgement_sigma(unc, 0, 2025)
        with pytest.raises(OutOfRangeError):
            judgement_sigma(unc, 3, 1999)


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


class TestDynamicShock:
    def test_initial_state_is_zero(self, mini_spec):
        st = DynamicShockState.initial(mini_spec)
        assert not st.eta.any()
        assert st.persistence == 0.6
        assert st.long_run_sd == 0.4

    def test_stationary_sd_approaches_long_run(self):
        st = DynamicShockState(
            np.zeros((2, 2)), 0.8, 1.0, Distribution("gaussian")
        )
        rng = np.random.default_rng(9)
        samples = []
        for i in range(60_000):
            st = advance_dynamic_shock(st, rng)
            if i > 200:
                samples.append(st.eta.copy())
        assert abs(np.concatenate(samples).std() - 1.0) < 0.03

    def test_lag_one_autocorrelation(self):
        st = DynamicShockState(np.zeros((1, 1)), 0.6, 0.4, Distribution("gaussian"))
        rng = np.random.default_rng(10)
        xs = []
        for _ in range(40_000):
            st = advance_dynamic_shock(st, rng)
            xs.append(st.eta[0, 0])
        x = np.asarray(xs)
        corr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(corr - 0.6) < 0.02

    def test_persistence_bound(self):
        st = DynamicShockState(np.zeros((1, 1)), 1.0, 0.4, Distribution("gaussian"))
        with pytest.raises(ConfigError):
            advance_dynamic_shock(st, np.random.default_rng(0))
