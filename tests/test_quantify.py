import itertools

import pytest

from cibpath.errors import (
    CoverageError, OutOfRangeError, ParseError, SpecReferenceError,
)
from cibpath.model import parse_study_spec
from cibpath.quantify import (
    Dimension,
    QuantifiedPathway,
    Identity,
    TranslationMatrix,
    attach_uncertainty_ranges,
    build_extreme_scenarios,
    enforce_identities,
    parse_identities,
    parse_translation_file,
    quantified_table_rows,
    quantify_pathway,
    read_extreme_axes,
    read_ranges,
)
from cibpath.simulate import Pathway

from conftest import make_ensemble, two_desc_document


def spec3():
    doc = two_desc_document()
    for d in doc["descriptors"]:
        d["states"] = ["Low", "Medium", "High"]
    doc["cim"] = [
        {"source": s, "source_state": si, "target": t, "target_state": ti,
         "score": 0, "confidence": 3}
        for s, t in [("A", "B"), ("B", "A")]
        for si in range(3)
        for ti in range(3)
    ]
    doc["time_grid"] = [2025, 2030, 2035, 2040, 2045, 2050]
    return parse_study_spec(doc)


PRICE = Dimension("price", "EUR/tCO2", "A")
CAP = Dimension("capacity", "GW", "B")
MATRIX = TranslationMatrix(
    entries={
        ("price", 0): 50.0, ("price", 1): 100.0, ("price", 2): 200.0,
        ("capacity", 0): 10.0, ("capacity", 1): 30.0, ("capacity", 2): 70.0,
    }
)


def pathway(states, periods=(2025, 2030, 2035, 2040, 2045, 2050)):
    return Pathway(tuple((p, tuple(z)) for p, z in zip(periods, states)))


class TestQuantify:
    def test_step_series_from_state_steps(self):
        # Medium through 2040, High from 2045
        pw = pathway([(1, 0), (1, 0), (1, 0), (1, 0), (2, 0), (2, 0)])
        qp = quantify_pathway(pw, (PRICE,), MATRIX, spec3())
        series = [qp.values["price", p] for p in pw.periods]
        assert series == [100.0, 100.0, 100.0, 100.0, 200.0, 200.0]

    def test_constant_driver_flat_series(self):
        pw = pathway([(2, 1)] * 6)
        qp = quantify_pathway(pw, (PRICE, CAP), MATRIX, spec3())
        assert {qp.values["price", p] for p in pw.periods} == {200.0}
        assert {qp.values["capacity", p] for p in pw.periods} == {30.0}

    def test_step_count_matches_driver_changes(self):
        pw = pathway([(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 2)])
        qp = quantify_pathway(pw, (PRICE, CAP), MATRIX, spec3())
        for dim, j in ((PRICE, 0), (CAP, 1)):
            vals = [qp.values[dim.id, p] for p in pw.periods]
            steps = sum(1 for a, b in zip(vals, vals[1:]) if a != b)
            states = [z[j] for _, z in pw.entries]
            changes = sum(1 for a, b in zip(states, states[1:]) if a != b)
            assert steps == changes

    def test_dimension_order_irrelevant(self):
        pw = pathway([(0, 0), (1, 1), (1, 1), (2, 1), (2, 2), (2, 2)])
        for perm in itertools.permutations((PRICE, CAP)):
            qp = quantify_pathway(pw, perm, MATRIX, spec3())
            assert qp.values["price", 2030] == 100.0
            assert qp.values["capacity", 2045] == 70.0

    def test_missing_entry_names_cell(self):
        sparse = TranslationMatrix(entries={("price", 0): 50.0, ("price", 1): 100.0})
        pw = pathway([(2, 0)] * 6)
        with pytest.raises(CoverageError) as exc:
            quantify_pathway(pw, (PRICE,), sparse, spec3())
        assert "price" in str(exc.value) and "2" in str(exc.value)

    def test_timed_entries_take_precedence(self):
        timed = TranslationMatrix(
            entries=MATRIX.entries,
            timed_entries={("price", 1, 2045): 130.0},
        )
        pw = pathway([(1, 0)] * 6)
        qp = quantify_pathway(pw, (PRICE,), timed, spec3())
        assert qp.values["price", 2045] == 130.0
        assert qp.values["price", 2040] == 100.0


class TestRanges:
    def test_relative(self):
        pw = pathway([(1, 0)] * 6)
        qp = quantify_pathway(pw, (PRICE,), MATRIX, spec3())
        qp = attach_uncertainty_ranges(qp, read_ranges({"price": {"relative": 0.2}}, (PRICE,)))
        assert qp.ranges["price", 2030] == (pytest.approx(80.0), pytest.approx(120.0))

    def test_offsets(self):
        pw = pathway([(1, 0)] * 6)
        qp = quantify_pathway(pw, (PRICE,), MATRIX, spec3())
        qp = attach_uncertainty_ranges(
            qp, read_ranges({"price": {"low_offset": -15.0, "high_offset": 30.0}}, (PRICE,))
        )
        assert qp.ranges["price", 2030] == (85.0, 130.0)

    def test_absolute_and_missing_dimension(self):
        pw = pathway([(1, 1)] * 6)
        qp = quantify_pathway(pw, (PRICE, CAP), MATRIX, spec3())
        rules = read_ranges({"price": {"low": 90.0, "high": 150.0}}, (PRICE, CAP))
        qp = attach_uncertainty_ranges(qp, rules)
        assert qp.ranges["price", 2030] == (90.0, 150.0)
        assert qp.ranges.get(("capacity", 2030)) is None

    def test_central_outside_absolute_range(self):
        pw = pathway([(1, 0)] * 6)
        qp = quantify_pathway(pw, (PRICE,), MATRIX, spec3())
        rules = read_ranges({"price": {"low": 150.0, "high": 250.0}}, (PRICE,))
        with pytest.raises(OutOfRangeError):
            attach_uncertainty_ranges(qp, rules)

    def test_inverted_offsets(self):
        """read_ranges refuses them; a rule built in code meets the band check."""
        pw = pathway([(1, 0)] * 6)
        qp = quantify_pathway(pw, (PRICE,), MATRIX, spec3())
        with pytest.raises(ParseError) as exc:
            read_ranges({"price": {"low_offset": 30.0, "high_offset": -15.0}}, (PRICE,))
        assert exc.value.path == "ranges.price.low_offset"
        with pytest.raises(OutOfRangeError):
            attach_uncertainty_ranges(qp, {"price": lambda central: (central + 30, central - 15)})

    @pytest.mark.parametrize("rs, node", [
        ({"low_offset": 5, "high_offset": 80}, "ranges.price.low_offset"),
        ({"low_offset": 0.5}, "ranges.price.low_offset"),
        ({"high_offset": -0.5}, "ranges.price.high_offset"),
        ({"low": 10, "high": 5}, "ranges.price.low"),
    ])
    def test_a_band_that_cannot_hold_its_central_value_is_refused(self, rs, node):
        with pytest.raises(ParseError) as exc:
            read_ranges({"price": rs}, (PRICE,))
        assert exc.value.path == node

    def test_a_band_of_one_value_is_read(self):
        rules = read_ranges({"price": {"low_offset": 0, "high_offset": 0}, "capacity": {
            "low": 7, "high": 7}}, (PRICE, CAP))
        assert rules["price"](4.0) == (4.0, 4.0) and rules["capacity"](7.0) == (7, 7)

    def test_key_that_is_no_dimension_is_refused(self):
        with pytest.raises(ParseError) as exc:
            read_ranges({"price": {"relative": 0.2}, "prise": {"relative": 0.2}}, (PRICE,))
        assert exc.value.path == "ranges.prise"


class TestExtremes:
    periods = (2025, 2030, 2035, 2040, 2045, 2050)

    def ensemble(self):
        runs = (
            [[(0, 0)] * 5 + [(2, 2)]] * 5
            + [[(0, 0)] * 5 + [(1, 1)]] * 3
            + [[(0, 0)] * 6] * 1
        )
        return make_ensemble(runs, periods=self.periods)

    def extremes(self, dimensions, axes):
        spec = spec3()
        return build_extreme_scenarios(
            self.ensemble(), dimensions, MATRIX, spec, read_extreme_axes(axes, spec)
        )

    def test_outcome_axis(self):
        scenarios, warnings = self.extremes((PRICE, CAP), {"outcome": {"descriptor": "A"}})
        assert [s.label for s in scenarios] == ["outcome-low", "outcome-high"]
        assert all(s.period == 2050 for s in scenarios)
        low = dict(scenarios[0].values)
        high = dict(scenarios[1].values)
        assert low == {"price": 50.0, "capacity": 10.0}
        assert high == {"price": 200.0, "capacity": 70.0}
        assert not warnings

    def test_descriptor_stack_fills_from_modal_terminal(self):
        scenarios, _ = self.extremes((PRICE, CAP), {
            "descriptor_stacks": {"ambitious": {"A": "High"}}, "frequency": {"min_count": 1},
        })
        stacked = dict(next(s for s in scenarios if s.label == "stack-ambitious").values)
        # modal terminal is (2, 2); A restated High keeps B at its modal state
        assert stacked == {"price": 200.0, "capacity": 70.0}

    def test_frequency_axis_picks_rarest(self):
        scenarios, _ = self.extremes(
            (PRICE, CAP), {"outcome": {"descriptor": "A"}, "frequency": {"min_count": 1}}
        )
        tail = dict(next(s for s in scenarios if s.label == "tail-outcome").values)
        assert tail == {"price": 50.0, "capacity": 10.0}

    @pytest.mark.parametrize("min_count", [2.7, True, "2"])
    def test_min_count_must_be_an_integer(self, min_count):
        with pytest.raises(ParseError) as exc:
            read_extreme_axes({"frequency": {"min_count": min_count}}, spec3())
        assert exc.value.path == "extremes.frequency.min_count"

    def test_count_warning_outside_two_to_four(self):
        _, warnings = self.extremes((PRICE,), {"frequency": {"min_count": 1}})
        assert any("expected" in w for w in warnings)


class TestIdentities:
    def qp(self, values_by_dim):
        dims = tuple(Dimension(d, "", "A") for d in values_by_dim)
        periods = (2025, 2030)
        values = {
            (d, p): v
            for d, series in values_by_dim.items()
            for p, v in zip(periods, series)
        }
        return QuantifiedPathway(dims, periods, values)

    def test_satisfied_identity_untouched(self):
        qp = self.qp({"a": (30.0, 40.0), "b": (70.0, 60.0), "total": (100.0, 100.0)})
        ident = Identity("sum", (("a", 1.0), ("b", 1.0)), ("a", "b"), rhs_dimension="total")
        out = enforce_identities(qp, (ident,))
        assert out.values == qp.values
        assert out.provenance == {}

    def test_proportional_repair(self):
        qp = self.qp({"a": (30.0, 30.0), "b": (50.0, 50.0), "total": (100.0, 100.0)})
        ident = Identity("sum", (("a", 1.0), ("b", 1.0)), ("a", "b"), rhs_dimension="total")
        out = enforce_identities(qp, (ident,))
        assert out.values["a", 2025] == pytest.approx(37.5)
        assert out.values["b", 2025] == pytest.approx(62.5)
        assert out.values["a", 2025] + out.values["b", 2025] == pytest.approx(100.0, abs=1e-9)
        assert out.provenance["a", 2025] == "repair:identity 'sum': scaled by 1.25"
        assert out.values["total", 2025] == 100.0

    def test_an_identity_off_by_a_millionth_is_repaired(self):
        qp = self.qp({"a": (30.0, 30.0), "b": (70.000001, 70.0), "total": (100.0, 100.0)})
        ident = Identity("sum", (("a", 1.0), ("b", 1.0)), ("a",), rhs_dimension="total")
        out = enforce_identities(qp, (ident,))
        assert out.values["a", 2025] + out.values["b", 2025] == pytest.approx(100.0, rel=0, abs=1e-9)
        assert list(out.provenance) == [("a", 2025)]

    def test_only_adjustable_moves(self):
        qp = self.qp({"a": (30.0, 30.0), "b": (50.0, 50.0), "total": (100.0, 100.0)})
        ident = Identity("sum", (("a", 1.0), ("b", 1.0)), ("a",), rhs_dimension="total")
        out = enforce_identities(qp, (ident,))
        assert out.values["b", 2025] == 50.0
        assert out.values["a", 2025] == pytest.approx(50.0)

    def test_constant_rhs_and_coefficients(self):
        qp = self.qp({"a": (10.0, 10.0), "b": (20.0, 20.0)})
        ident = Identity("combo", (("a", 2.0), ("b", 1.0)), ("a", "b"), rhs_value=80.0)
        out = enforce_identities(qp, (ident,))
        assert 2 * out.values["a", 2025] + out.values["b", 2025] == pytest.approx(80.0, abs=1e-9)

    def test_config_errors(self):
        qp = self.qp({"a": (30.0, 30.0), "b": (50.0, 50.0)})
        for identity, node in (
            ({"terms": {"a": 1.0}, "adjustable": [], "equals": 1.0}, "identities[0].adjustable"),
            ({"terms": {"a": 1.0}, "adjustable": ["b"], "equals": 1.0}, "identities[0].adjustable"),
            ({"terms": {"a": 1.0, "c": 1.0}, "adjustable": ["a"], "equals": 1.0}, "identities[0]"),
            ({"terms": {"a": 1.0}, "adjustable": ["a"], "equals_dimension": "total"},
             "identities[0]"),
            # rescaling a moves the target a itself: the repair would not hold
            ({"terms": {"a": 1.0, "b": 1.0}, "adjustable": ["a"], "equals_dimension": "a"},
             "identities[0].equals_dimension"),
        ):
            with pytest.raises(ParseError) as exc:
                parse_identities({"identities": [identity]}, qp.dimensions)
            assert exc.value.path == node
        zero = self.qp({"a": (0.0, 0.0), "b": (50.0, 50.0)})
        with pytest.raises(OutOfRangeError, match=r"^identities\[0\]: .* at period 2025: "):
            enforce_identities(
                zero, (Identity("x", (("a", 1.0),), ("a",), rhs_value=10.0),)
            )

    def test_a_dimension_adjusted_by_two_identities_is_refused_on_read(self):
        """{a, b} = 100 and {a, c} = 50, both adjusting a, would repair a to
        40 for the second and leave a + b = 90."""
        dims = self.qp({"a": (30.0, 30.0), "b": (50.0, 50.0), "c": (10.0, 10.0)}).dimensions
        doc = {"identities": [
            {"terms": {"a": 1.0, "b": 1.0}, "adjustable": ["a"], "equals": 100.0},
            {"terms": {"a": 1.0, "c": 1.0}, "adjustable": ["a"], "equals": 50.0},
        ]}
        with pytest.raises(ParseError, match=r"'a' is adjusted by identities\[0\] already") as exc:
            parse_identities(doc, dims)
        assert exc.value.path == "identities[1].adjustable"
        doc["identities"][1]["adjustable"] = ["c"]
        assert len(parse_identities(doc, dims)) == 2

    @pytest.mark.parametrize("equals", [40.0, 50.0])
    def test_a_repair_that_scales_by_zero_or_less_is_refused(self, equals):
        """a = 30, b = 50 and a + b = 40 would scale a by -1/3 and write
        a = -10; a + b = 50 would scale it by 0."""
        qp = self.qp({"a": (30.0, 30.0), "b": (50.0, 50.0)})
        ident = Identity("sum", (("a", 1.0), ("b", 1.0)), ("a",), rhs_value=equals)
        with pytest.raises(OutOfRangeError, match=r"^identities\[0\]: .* at period 2025: "):
            enforce_identities(qp, (ident,))

    def test_an_identity_a_later_repair_breaks_is_refused(self):
        """Repairing b for {b, c} = 50 after a for {a, b} = 100 leaves
        a + b = 50 + 40 = 90; the other order holds both."""
        qp = self.qp({"a": (30.0, 30.0), "b": (50.0, 50.0), "c": (10.0, 10.0)})
        identities = (
            Identity("ab", (("a", 1.0), ("b", 1.0)), ("a",), rhs_value=100.0),
            Identity("bc", (("b", 1.0), ("c", 1.0)), ("b",), rhs_value=50.0),
        )
        with pytest.raises(OutOfRangeError, match=(
            r"^identities\[0\]: identity 'ab' broken at period 2025 by a later repair: 90 != 100$"
        )):
            enforce_identities(qp, identities)
        assert enforce_identities(qp, identities[::-1]).values["a", 2025] == pytest.approx(60.0)

    def test_repairs_of_large_values_hold_within_rounding(self):
        """At 1e9 one rounding step exceeds IDENTITY_TOL; the check after
        the repairs holds each identity to IDENTITY_TOL of its largest term."""
        qp = self.qp({"a": (3e8 + 0.1, 3e8 + 0.7), "b": (7.3e8, 5.1e8)})
        ident = Identity("sum", (("a", 3.0), ("b", 1.0)), ("a",), rhs_value=1.7e9 + 0.3)
        out = enforce_identities(qp, (ident,))
        for p in (2025, 2030):
            assert 3 * out.values["a", p] + out.values["b", p] == pytest.approx(1.7e9 + 0.3, rel=1e-15)

    def test_zero_adjustable_coefficients_refused_on_read(self):
        """Adjustable terms whose coefficients are all 0 can repair nothing,
        whatever the values: the reader refuses them, before any stage."""
        dims = self.qp({"a": (30.0, 30.0), "b": (50.0, 50.0)}).dimensions
        doc = {"identities": [{"terms": {"a": 0.0, "b": 1.0}, "adjustable": ["a"], "equals": 1.0}]}
        with pytest.raises(ParseError) as exc:
            parse_identities(doc, dims)
        assert exc.value.path == "identities[0].adjustable"
        doc["identities"][0]["adjustable"] = ["a", "b"]
        assert parse_identities(doc, dims)[0].adjustable == ("a", "b")


class TestFiles:
    def test_parse_translation_with_labels_and_periods(self):
        spec = spec3()
        doc = {
            "dimensions": [
                {"id": "price", "unit": "EUR/tCO2", "driver": "A",
                 "values": {"Low": 50, "Medium": 100, "High": {"2045": 180, "2050": 220}}},
            ]
        }
        dims, matrix = parse_translation_file(doc, spec)
        assert dims[0].unit == "EUR/tCO2"
        assert matrix.value("price", 0, 2030) == 50.0
        assert matrix.value("price", 2, 2045) == 180.0
        assert matrix.value("price", 2, 2050) == 220.0

    def test_state_given_by_label_and_by_index_is_refused(self):
        doc = {
            "dimensions": [
                {"id": "price", "driver": "A", "values": {"Low": 50, "0": 60, "High": 200}},
            ]
        }
        with pytest.raises(ParseError) as exc:
            parse_translation_file(doc, spec3())
        assert exc.value.path == "dimensions[0].values.0"

    @pytest.mark.parametrize("ref", ["3", "-1", "7"])
    def test_state_index_outside_the_driver_is_refused(self, ref):
        doc = {"dimensions": [{"id": "price", "driver": "A", "values": {"Low": 50, ref: 60}}]}
        with pytest.raises(SpecReferenceError) as exc:
            parse_translation_file(doc, spec3())
        assert exc.value.path == f"dimensions[0].values.{ref}"

    @pytest.mark.parametrize("dim, node", [
        ({"id": "price", "driver": "A", "values": {"Low": "50"}}, "dimensions[0].values.Low"),
        ({"id": "price", "driver": "A", "values": {"Low": {"2030": True}}},
         "dimensions[0].values.Low.2030"),
        ({"id": "price", "driver": "A", "values": {"Low": {" 2030": 1.0}}},
         "dimensions[0].values.Low. 2030"),
        ({"id": 5, "driver": "A"}, "dimensions[0].id"),
        ({"id": "price", "unit": None, "driver": "A"}, "dimensions[0].unit"),
    ])
    def test_a_value_of_another_json_type_is_refused(self, dim, node):
        with pytest.raises(ParseError) as exc:
            parse_translation_file({"dimensions": [dim]}, spec3())
        assert exc.value.path == node

    @pytest.mark.parametrize("rs, node", [
        ({"relative": "0.2"}, "ranges.price.relative"),
        ({"low_offset": True}, "ranges.price.low_offset"),
        ({"low": 1, "high": "9"}, "ranges.price.high"),
    ])
    def test_a_range_that_is_no_number_is_refused(self, rs, node):
        with pytest.raises(ParseError) as exc:
            read_ranges({"price": rs}, (PRICE,))
        assert exc.value.path == node

    def test_dimension_given_twice_is_refused(self):
        dim = {"id": "price", "driver": "A", "values": {"Low": 50}}
        with pytest.raises(ParseError) as exc:
            parse_translation_file({"dimensions": [dim, dim]}, spec3())
        assert exc.value.path == "dimensions[1].id"

    def test_parse_identities(self):
        doc = {
            "identities": [
                {"name": "sum", "terms": {"a": 1, "b": 1}, "adjustable": ["a"],
                 "equals_dimension": "total"}
            ]
        }
        dims = tuple(Dimension(d, "", "A") for d in ("a", "b", "total"))
        (ident,) = parse_identities(doc, dims)
        assert ident.terms == (("a", 1.0), ("b", 1.0))
        assert ident.rhs_dimension == "total"

    def test_table_rows_cover_every_cell(self):
        pw = pathway([(1, 1)] * 6)
        qp = quantify_pathway(pw, (PRICE, CAP), MATRIX, spec3())
        qp = attach_uncertainty_ranges(qp, read_ranges({"price": {"relative": 0.1}}, (PRICE,)))
        rows = quantified_table_rows(qp)
        assert len(rows) == 12
        price_row = next(r for r in rows if r["dimension"] == "price" and r["period"] == 2030)
        assert price_row["central"] == 100.0
        assert price_row["low"] == pytest.approx(90.0)
        assert price_row["provenance"] == "lookup"
