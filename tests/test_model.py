import dataclasses
import json
import random

import numpy as np
import pytest

from cibpath.errors import ParseError, SpecReferenceError, StructureError
from cibpath.model import (
    DEFAULT_CONFIDENCE_SIGMA,
    CrossImpactMatrix,
    CyclicParams,
    DomainRules,
    StateDef,
    ThresholdEffect,
    ThresholdRule,
    parse_study_spec,
    serialize_study_spec,
    validate_study_spec,
)

from conftest import random_spec_document, two_desc_document


def errors_of(findings):
    return [f for f in findings if f.severity == "error"]


class TestParse:
    def test_minimal_two_descriptor_cell_count(self, fixture_spec):
        # 2 ordered pairs x 2x2 state combinations
        assert len(list(fixture_spec.cim.iter_cells())) == 8
        assert len(fixture_spec.descriptors) == 2

    def test_cells_in_nested_loop_order(self):
        """iter_cells, which serialize_study_spec and so every digest
        follow, gives the cells source by source, state by state."""
        rng = random.Random(5)
        for _ in range(20):
            spec = parse_study_spec(random_spec_document(rng, max_states=4))
            counts = spec.state_counts
            expected = [
                (i, si, j, tj)
                for i in range(len(counts)) for si in range(counts[i])
                for j in range(len(counts)) if j != i for tj in range(counts[j])
            ]
            assert list(spec.cim.iter_cells()) == expected
            assert spec.cim.valid_mask.sum() == len(expected)

    def test_with_scores_shares_structure_and_mask(self, fixture_spec):
        cim = fixture_spec.cim
        out = cim.with_scores(cim.scores * 0.5)
        assert out.valid_mask is cim.valid_mask and out.confidences is cim.confidences
        assert out != cim and out == cim.with_scores(cim.scores * 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cim.scores = out.scores

    @pytest.mark.parametrize("kind", ["structural", "dynamic"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_shock_enabled_must_be_a_boolean(self, kind, value):
        doc = two_desc_document({"shocks": {kind: {"enabled": value}}})
        with pytest.raises(ParseError, match=rf"^shocks\.{kind}\.enabled: "):
            parse_study_spec(doc)

    @pytest.mark.parametrize("edit, node", [
        (lambda d: d.update(shocks={"structural": {"scale": "0.3"}}), "shocks.structural.scale"),
        (lambda d: d.update(shocks={"dynamic": {"persistence": True}}), "shocks.dynamic.persistence"),
        (lambda d: d["cim"][0].update(score="2"), "cim[0].score"),
        (lambda d: d.update(uncertainty={"confidence_sigma": dict.fromkeys("12345", "1")}),
         "uncertainty.confidence_sigma.1"),
        (lambda d: d["descriptors"][0].update(name=5), "descriptors[0].name"),
        (lambda d: d["descriptors"][0].update(states=[{"label": 1}, "A2"]),
         "descriptors[0].states[0].label"),
        (lambda d: d.update(rules=None), "rules"),
        (lambda d: d.update(rules={"forbidden_pairs": [["A", 0]]}), "rules.forbidden_pairs[0][0]"),
    ])
    def test_a_value_of_another_json_type_is_refused(self, edit, node):
        """Text is no number, true is no number, and null is no object; each
        is refused naming the node, where a cast once read them."""
        doc = two_desc_document()
        edit(doc)
        with pytest.raises(ParseError) as exc:
            parse_study_spec(doc)
        assert exc.value.path == node

    def test_cyclic_drift_defaults_to_zero(self):
        doc = two_desc_document()
        doc["descriptors"][0]["kind"] = "cyclic"
        doc["descriptors"][0]["cyclic"] = {"stay": 0.7, "step": 0.2, "step2": 0.1}
        spec = parse_study_spec(doc)
        assert spec.descriptors[0].cyclic_params.drift == 0.0

    def test_score_out_of_range_names_cell_path(self):
        doc = two_desc_document()
        doc["cim"][3]["score"] = 3.5
        with pytest.raises(ParseError) as exc:
            parse_study_spec(doc)
        assert "cim[3]" in str(exc.value)

    def test_unknown_descriptor_reference(self):
        doc = two_desc_document()
        doc["cim"][0]["source"] = "Z"
        with pytest.raises(SpecReferenceError):
            parse_study_spec(doc)

    def test_state_reference_by_label(self):
        doc = two_desc_document()
        doc["baseline"] = {"A": "A2", "B": 1}
        spec = parse_study_spec(doc)
        assert spec.baseline == (1, 1)

    def test_missing_cim_cell(self):
        doc = two_desc_document()
        doc["cim"] = doc["cim"][:-1]
        with pytest.raises(ParseError) as exc:
            parse_study_spec(doc)
        assert "missing cell" in str(exc.value)

    def test_default_sigma_mapping_is_linear_between_anchors(self, fixture_spec):
        assert fixture_spec.uncertainty.confidence_sigma == DEFAULT_CONFIDENCE_SIGMA
        doc = two_desc_document()
        doc["cim"][0]["confidence"] = 1  # A:0->B:0; the other cells keep code 5
        spec = parse_study_spec(doc)
        first = spec.sigma_tables[2025]
        assert first[0, 0, 1, 0] == 1.5
        assert (first[spec.cim.valid_mask & (spec.cim.confidences == 5)] == 0.2).all()

    def test_default_time_scale_linear_to_last_period(self):
        doc = two_desc_document()
        doc["time_grid"] = [2025, 2030, 2035, 2040, 2045, 2050]
        spec = parse_study_spec(doc)
        # all cells have code 5, so every valid cell's scale is 0.2 x the factor
        scale = {p: spec.sigma_tables[p][spec.cim.valid_mask] for p in (2025, 2040, 2050)}
        assert (scale[2025] == 0.2).all()
        assert (scale[2050] == 0.2 * 1.5).all()
        np.testing.assert_allclose(scale[2040], 0.2 * 1.3)

    def test_resample_defaults(self):
        spec = parse_study_spec(two_desc_document())
        assert spec.uncertainty.resample == "per_period"  # non-constant default scale
        doc = two_desc_document(
            {"uncertainty": {"time_scale": {"2025": 1.0, "2030": 1.0, "2035": 1.0}}}
        )
        assert parse_study_spec(doc).uncertainty.resample == "per_run"


class TestRoundTrip:
    def test_fixture_round_trip(self, fixture_spec):
        assert parse_study_spec(serialize_study_spec(fixture_spec)) == fixture_spec

    def test_mini_round_trip(self, mini_spec):
        again = parse_study_spec(serialize_study_spec(mini_spec))
        assert again == mini_spec
        assert again.digest() == mini_spec.digest()

    def test_random_specs_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            spec = parse_study_spec(random_spec_document(rng))
            assert parse_study_spec(serialize_study_spec(spec)) == spec

    def test_serialized_form_is_json_compatible(self, mini_spec):
        json.dumps(serialize_study_spec(mini_spec))


class TestValidate:
    def test_valid_spec_no_errors(self, mini_spec):
        assert errors_of(validate_study_spec(mini_spec)) == []

    def test_valid_fifteen_descriptor_spec(self):
        import random

        rng = random.Random(3)
        doc = random_spec_document(rng, max_descriptors=15, max_states=3, min_states=3)
        while len(doc["descriptors"]) != 15:
            doc = random_spec_document(rng, max_descriptors=15, max_states=3, min_states=3)
        spec = parse_study_spec(doc)
        assert errors_of(validate_study_spec(spec)) == []

    def test_cyclic_probability_sum(self):
        doc = two_desc_document()
        doc["descriptors"][0]["kind"] = "cyclic"
        doc["descriptors"][0]["cyclic"] = {"stay": 0.6, "step": 0.2, "step2": 0.1}
        findings = validate_study_spec(parse_study_spec(doc))
        assert any("sum to 1.0" in f.message for f in errors_of(findings))

    def test_baseline_forbidden_pair(self):
        doc = two_desc_document(
            {"rules": {"forbidden_pairs": [[["A", 0], ["B", 0]]]}}
        )
        findings = validate_study_spec(parse_study_spec(doc))
        errs = errors_of(findings)
        assert any("forbidden pair" in f.message for f in errs)

    def test_forbidden_pair_same_descriptor(self):
        doc = two_desc_document(
            {"rules": {"forbidden_pairs": [[["A", 0], ["A", 1]]]}}
        )
        findings = validate_study_spec(parse_study_spec(doc))
        assert any("twice" in f.message for f in errors_of(findings))

    def test_single_state_descriptor_rejected(self):
        doc = two_desc_document()
        # bypass the parser to hit the validator invariant directly
        spec = parse_study_spec(doc)
        from dataclasses import replace

        d0 = spec.descriptors[0]
        broken = replace(
            spec, descriptors=(replace(d0, states=d0.states[:1]), spec.descriptors[1])
        )
        assert any(
            "expected 2 to 5" in f.message for f in errors_of(validate_study_spec(broken))
        )

    def test_time_grid_must_increase(self):
        doc = two_desc_document({"time_grid": [2030, 2025, 2035]})
        spec = parse_study_spec(doc)
        assert any(
            "strictly increasing" in f.message
            for f in errors_of(validate_study_spec(spec))
        )

    def test_sigma_must_not_increase_with_confidence(self):
        doc = two_desc_document(
            {
                "uncertainty": {
                    "confidence_sigma": {"1": 0.2, "2": 0.5, "3": 0.8, "4": 1.1, "5": 1.5}
                }
            }
        )
        spec = parse_study_spec(doc)
        assert any(
            "non-increasing" in f.message for f in errors_of(validate_study_spec(spec))
        )

    def test_all_zero_row_warning(self):
        doc = two_desc_document()
        for rec in doc["cim"]:
            if rec["source"] == "A" and rec["source_state"] == 0:
                rec["score"] = 0
        findings = validate_study_spec(parse_study_spec(doc))
        warnings = [f for f in findings if f.severity == "warning"]
        assert any("all-zero" in f.message for f in warnings)

    def test_dynamic_shock_persistence_bound(self):
        doc = two_desc_document(
            {
                "shocks": {
                    "dynamic": {"enabled": True, "long_run_sd": 0.5, "persistence": 1.0}
                }
            }
        )
        spec = parse_study_spec(doc)
        assert any(
            "stationarity" in f.message for f in errors_of(validate_study_spec(spec))
        )


def _descriptor(spec, i, **changes):
    """spec with descriptor i changed."""
    descriptors = list(spec.descriptors)
    descriptors[i] = dataclasses.replace(descriptors[i], **changes)
    return dataclasses.replace(spec, descriptors=tuple(descriptors))


def _cell(spec, at, scores=None, confidences=None):
    """spec with the cim cell at (source, state, target, state) set."""
    cim = spec.cim
    arrays = {"scores": cim.scores.copy(), "confidences": cim.confidences.copy()}
    for name, value in (("scores", scores), ("confidences", confidences)):
        if value is not None:
            arrays[name][at] = value
    return dataclasses.replace(spec, cim=dataclasses.replace(cim, **arrays))


def _effect(*effect, conditions=(("A", 0),)):
    return (ThresholdRule(tuple(conditions), ThresholdEffect(*effect)),)


#: Specs built in code, not parsed, that break an invariant the parser
#: owns, and the node (or StudySpec field) their error finding names. The
#: validator finds each through parse_study_spec(serialize_study_spec(spec)).
PROGRAMMATIC = {
    "duplicate-descriptor-id": (lambda s: _descriptor(s, 1, id="A"), "descriptors[1].id"),
    "state-index-not-position": (lambda s: _descriptor(
        s, 0, states=(StateDef(1, "A1"), StateDef(0, "A2"))), "descriptors"),
    "unknown-kind": (lambda s: _descriptor(s, 0, kind="periodic"), "descriptors[0].kind"),
    "cyclic-without-parameters": (lambda s: _descriptor(s, 0, kind="cyclic"),
                                  "descriptors[0].cyclic"),
    "parameters-on-endogenous": (lambda s: _descriptor(
        s, 0, cyclic_params=CyclicParams(0.5, 0.3, 0.2)), "descriptors[0].cyclic"),
    "cim-of-other-descriptors": (lambda s: dataclasses.replace(
        s, cim=CrossImpactMatrix.zeros(("A", "C"), (2, 2))), "cim[0].target"),
    "cim-of-other-state-counts": (lambda s: dataclasses.replace(
        s, cim=CrossImpactMatrix.zeros(("A", "B"), (3, 2))), "cim[4].source_state"),
    "score-above-range": (lambda s: _cell(s, (0, 0, 1, 0), scores=3.5), "cim[0].score"),
    "score-not-a-number": (lambda s: _cell(s, (0, 0, 1, 1), scores=np.nan), "cim[1].score"),
    "confidence-outside-codes": (lambda s: _cell(s, (1, 1, 0, 1), confidences=0),
                                 "cim[7].confidence"),
    "nonzero-masked-cell": (lambda s: _cell(s, (0, 0, 0, 1), scores=1.0), "cim"),
    "forbidden-pair-unknown-descriptor": (lambda s: dataclasses.replace(
        s, rules=DomainRules(forbidden_pairs=((("C", 0), ("B", 0)),))),
        "rules.forbidden_pairs[0][0]"),
    "implication-state-out-of-range": (lambda s: dataclasses.replace(
        s, rules=DomainRules(implications=((("A", 0), ("B", 5)),))), "rules.implications[0].then"),
    "threshold-condition-state-out-of-range": (lambda s: dataclasses.replace(
        s, threshold_rules=_effect("A", 0, "B", 0, 1.0, conditions=(("A", 9),))),
        "threshold_rules[0].conditions[0]"),
    "threshold-effect-unknown-descriptor": (lambda s: dataclasses.replace(
        s, threshold_rules=_effect("C", 0, "B", 0, 1.0)), "threshold_rules[0].effect.source"),
    "threshold-delta-not-finite": (lambda s: dataclasses.replace(
        s, threshold_rules=_effect("A", 0, "B", 0, float("inf"))),
        "threshold_rules[0].effect.delta"),
    "time-scale-without-last-period": (lambda s: dataclasses.replace(s, uncertainty=(
        dataclasses.replace(s.uncertainty, time_scale=s.uncertainty.time_scale[:-1]))),
        "uncertainty.time_scale.2035"),
    "unknown-resample-policy": (lambda s: dataclasses.replace(s, uncertainty=(
        dataclasses.replace(s.uncertainty, resample="per_step"))), "uncertainty.resample"),
    "baseline-too-short": (lambda s: dataclasses.replace(s, baseline=(0,)), "baseline.B"),
    "baseline-state-out-of-range": (lambda s: dataclasses.replace(s, baseline=(0, 2)),
                                    "baseline.B"),
    "baseline-too-long": (lambda s: dataclasses.replace(s, baseline=(0, 0, 1)), "baseline"),
    "baseline-numpy-integers": (lambda s: dataclasses.replace(
        s, baseline=tuple(np.array([0, 0]))), "baseline.A"),
    "time-grid-numpy-integers": (lambda s: dataclasses.replace(
        s, time_grid=tuple(np.array([2025, 2030, 2035]))), "time_grid[0]"),
    "two-confidence-sigmas": (lambda s: dataclasses.replace(s, uncertainty=(
        dataclasses.replace(s.uncertainty, confidence_sigma=(1.5, 0.2)))),
        "uncertainty.confidence_sigma.3"),
    "six-confidence-sigmas": (lambda s: dataclasses.replace(s, uncertainty=(
        dataclasses.replace(s.uncertainty, confidence_sigma=DEFAULT_CONFIDENCE_SIGMA + (0.1,)))),
        "uncertainty"),
}


class TestValidateProgrammaticSpecs:
    """A spec built in code rather than parsed meets the parser's structural
    checks through its serialized form; validation reports, never raises."""

    def test_the_base_spec_is_valid(self, fixture_spec):
        assert errors_of(validate_study_spec(fixture_spec)) == []

    @pytest.mark.parametrize("case", PROGRAMMATIC)
    def test_broken_structure_is_a_named_error(self, fixture_spec, case):
        edit, node = PROGRAMMATIC[case]
        paths = [f.path for f in errors_of(validate_study_spec(edit(fixture_spec)))]
        assert node in paths, paths

    @pytest.mark.parametrize("field, node", [
        ("uncertainty", "uncertainty.sampling_distribution"),
        ("structural", "shocks.structural.distribution"),
        ("dynamic", "shocks.dynamic.distribution"),
    ])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_student_t_df_two_is_refused_where_it_is_drawn(self, field, node, enabled):
        """draw_factor needs df > 2 for every distribution the simulator
        scales: the sampling one always, a shock's when it is enabled."""
        t2 = {"kind": "student_t", "df": 2}
        if field == "uncertainty":
            doc = two_desc_document({"uncertainty": {"sampling_distribution": t2}})
        else:
            sd = {"structural": "scale", "dynamic": "long_run_sd"}[field]
            doc = two_desc_document(
                {"shocks": {field: {"enabled": enabled, sd: 0.5, "distribution": t2}}}
            )
        paths = [f.path for f in errors_of(validate_study_spec(parse_study_spec(doc)))]
        assert paths == ([node] if enabled or field == "uncertainty" else [])

    @pytest.mark.parametrize("changes", [
        {"state_counts": (2, 2, 2)},
        {"descriptor_ids": ("A",)},
        {"scores": np.zeros((2, 3, 2, 3))},
        {"confidences": np.ones((2, 2, 2), dtype=np.int64)},
    ])
    def test_a_matrix_off_its_layout_cannot_be_built(self, fixture_spec, changes):
        """Ids, state counts and both arrays must agree on the
        (D, S_max, D, S_max) layout, so validation never meets a matrix
        whose valid_mask cannot be formed."""
        with pytest.raises(StructureError, match="expected"):
            dataclasses.replace(fixture_spec.cim, **changes)
