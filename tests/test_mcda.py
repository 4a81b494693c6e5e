import itertools
import json

import pytest

from cibpath.errors import ParseError
from cibpath.mcda import (
    McdaInput,
    Persona,
    load_mcda_input,
    parse_mcda_input,
    rank_pathways,
    ranking_report,
)


def persona(pid, *weights, criteria=("c1", "c2")):
    return Persona(pid, tuple(zip(criteria, weights)))


def two_pathway_input():
    """Hand-worked example: V_p1 = 3.3, V_p2 = 3.7."""
    return McdaInput(
        pathways=("p1", "p2"),
        criteria=("c1", "c2"),
        scores=((4.0, 2.0), (3.0, 5.0)),
        personas=(
            persona("alpha", 0.5, 0.5),
            persona("beta", 0.8, 0.2),
        ),
    )


class TestValidation:
    """McdaInput refuses a bad input on construction, naming its node."""

    def test_valid_input(self):
        two_pathway_input()

    def test_weight_sum(self):
        with pytest.raises(ParseError) as exc:
            McdaInput(
                ("p1", "p2"), ("c1", "c2"), ((2.0, 4.0), (5.0, 3.0)),
                (persona("a", 0.5, 0.6),),
            )
        assert "sum" in exc.value.reason and exc.value.path == "personas.a"

    def test_negative_weight(self):
        with pytest.raises(ParseError) as exc:
            McdaInput(
                ("p1", "p2"), ("c1", "c2"), ((2.0, 4.0), (5.0, 3.0)),
                (persona("a", 1.2, -0.2),),
            )
        assert "negative" in exc.value.reason and exc.value.path == "personas.a.c2"

    def test_score_outside_scale(self):
        with pytest.raises(ParseError) as exc:
            McdaInput(
                ("p1", "p2"), ("c1", "c2"), ((2.0, 6.0), (5.0, 3.0)),
                (persona("a", 0.5, 0.5),),
            )
        assert "outside scale" in exc.value.reason and exc.value.path == "scores.p1.c2"

    def test_missing_criterion_weight(self):
        with pytest.raises(ParseError) as exc:
            McdaInput(
                ("p1", "p2"), ("c1", "c2"), ((2.0, 4.0), (5.0, 3.0)),
                (Persona("a", (("c1", 1.0),)),),
            )
        assert "missing weight" in exc.value.reason and exc.value.path == "personas.a"

    def test_single_pathway_rejected(self):
        with pytest.raises(ParseError) as exc:
            McdaInput(("p1",), ("c1",), ((3.0,),), (Persona("a", (("c1", 1.0),)),))
        assert exc.value.path == "pathways"

    def test_rank_raises_on_invalid(self):
        """No invalid input reaches rank_pathways: it cannot be built."""
        with pytest.raises(ParseError):
            McdaInput(
                ("p1", "p2"), ("c1", "c2"), ((2.0, 4.0), (5.0, 3.0)),
                (persona("a", 0.5, 0.6),),
            )


class TestRanking:
    def test_hand_worked_values(self):
        ranking = rank_pathways(two_pathway_input())
        assert ranking.value_of("p1") == pytest.approx(3.3)
        assert ranking.value_of("p2") == pytest.approx(3.7)
        assert ranking.order == ("p2", "p1")

    def test_per_persona_audit_trail(self):
        ranking = rank_pathways(two_pathway_input())
        audit = dict(ranking.per_persona_values)
        assert dict(audit["alpha"]) == pytest.approx({"p1": 3.0, "p2": 4.0})
        assert dict(audit["beta"]) == pytest.approx({"p1": 3.6, "p2": 3.4})

    def test_duplicate_persona_is_inert(self):
        base = two_pathway_input()
        dup = McdaInput(
            base.pathways, base.criteria, base.scores,
            base.personas + (persona("beta_clone", 0.8, 0.2),),
        )
        a = rank_pathways(base)
        b = rank_pathways(dup)
        assert a.values == b.values
        assert a.order == b.order
        # the clone still shows up in the audit trail
        assert dict(b.per_persona_values).keys() == {"alpha", "beta", "beta_clone"}

    def test_persona_order_invariance(self):
        base = two_pathway_input()
        extra = persona("gamma", 0.6, 0.4)
        personas = base.personas + (extra,)
        reference = None
        for perm in itertools.permutations(personas):
            inp = McdaInput(base.pathways, base.criteria, base.scores, tuple(perm))
            values = rank_pathways(inp).values
            if reference is None:
                reference = values
            else:
                assert values == reference

    def test_ties_reported_not_broken(self):
        inp = McdaInput(
            ("pa", "pb"), ("c1",), ((3.0,), (3.0,)),
            (Persona("a", (("c1", 1.0),)),),
        )
        ranking = rank_pathways(inp)
        assert ranking.ties == (("pa", "pb"),)
        assert ranking.order == ("pa", "pb")

    def test_tied_pathways_are_ordered_by_id_not_by_input(self):
        inp = McdaInput(
            ("pc", "pb", "pa"), ("c1",), ((3.0,), (4.0,), (4.0,)),
            (Persona("a", (("c1", 1.0),)),),
        )
        ranking = rank_pathways(inp)
        assert ranking.order == ("pa", "pb", "pc")
        assert ranking.ties == (("pa", "pb"),)

    def test_single_criterion_recovers_raw_scores(self):
        inp = McdaInput(
            ("p1", "p2"), ("c1",), ((2.0,), (5.0,)),
            (Persona("a", (("c1", 1.0),)), Persona("b", (("c1", 1.0),))),
        )
        ranking = rank_pathways(inp)
        assert ranking.value_of("p1") == 2.0
        assert ranking.value_of("p2") == 5.0


class TestIo:
    def test_fixture_file_round_trip(self, tmp_path):
        import importlib.resources

        path = importlib.resources.files("cibpath") / "fixtures" / "mini_mcda.json"
        inp = load_mcda_input(str(path))  # refused if invalid
        assert len(inp.pathways) == 4
        ranking = rank_pathways(inp)
        report = ranking_report(inp, ranking)
        assert set(report["values"]) == set(inp.pathways)
        assert sorted(report["ranking"]) == sorted(inp.pathways)

    def test_parse_preserves_criteria_order(self):
        doc = {
            "criteria": ["c2", "c1"],
            "pathways": ["p1", "p2"],
            "scores": {"p1": {"c1": 2, "c2": 4}, "p2": {"c1": 5, "c2": 3}},
            "personas": {"a": {"c1": 0.3, "c2": 0.7}},
        }
        inp = parse_mcda_input(doc)
        assert inp.criteria == ("c2", "c1")
        assert inp.scores[0] == (4.0, 2.0)

    @pytest.mark.parametrize("edit, node", [
        (lambda d: d["scores"]["p1"].update(c1="2"), "scores.p1.c1"),
        (lambda d: d["personas"]["a"].update(c2=True), "personas.a.c2"),
        (lambda d: d.update(pathways="p1"), "pathways"),
        (lambda d: d.update(scale=["1", "5"]), "scale[0]"),
        (lambda d: d.update(scale=[5, 1]), "scale"),
    ])
    def test_a_value_of_another_json_type_is_refused(self, edit, node):
        doc = {
            "criteria": ["c1", "c2"],
            "pathways": ["p1", "p2"],
            "scores": {"p1": {"c1": 2, "c2": 4}, "p2": {"c1": 5, "c2": 3}},
            "personas": {"a": {"c1": 0.3, "c2": 0.7}},
        }
        edit(doc)
        with pytest.raises(ParseError) as exc:
            parse_mcda_input(doc)
        assert exc.value.path == node

    def test_report_is_json_serialisable(self):
        inp = two_pathway_input()
        report = ranking_report(inp, rank_pathways(inp))
        assert json.loads(json.dumps(report)) == report
