import dataclasses
import random

import numpy as np
import pytest

from cibpath import engine
from cibpath.engine import (
    Attractor,
    NonConvergence,
    check_consistency,
    enumerate_consistent,
    find_attractor,
    impact_balance,
    succession_step,
)
from cibpath.errors import InfeasibilityError, StructureError, TractabilityError
from cibpath.model import CrossImpactMatrix, parse_study_spec

from conftest import (
    BAD_RULE_REFS, brute_force_consistent, random_spec_document, two_desc_document,
)
from sim_reference import iterate_to_attractor, reference_succession_step


def zero_cim(spec):
    return CrossImpactMatrix.zeros(
        tuple(d.id for d in spec.descriptors), spec.state_counts
    )


class TestImpactBalance:
    def test_all_zero_cim(self, fixture_spec):
        ib = impact_balance(fixture_spec, zero_cim(fixture_spec), (0, 0))
        assert ib.scores == ((0.0, 0.0), (0.0, 0.0))

    def test_hand_computed_fixture(self, fixture_spec):
        ib = impact_balance(fixture_spec, fixture_spec.cim, (0, 0))
        assert ib.scores[0] == (1.0, -1.0)
        assert ib.scores[1] == (2.0, -2.0)

    def test_changing_one_source_only_moves_its_terms(self):
        rng = random.Random(11)
        doc = random_spec_document(rng, max_descriptors=3)
        while len(doc["descriptors"]) != 3:
            doc = random_spec_document(rng, max_descriptors=3)
        spec = parse_study_spec(doc)
        k = 0
        base = tuple(0 for _ in spec.descriptors)
        varied = (1,) + base[1:]
        ib0 = impact_balance(spec, spec.cim, base)
        ib1 = impact_balance(spec, spec.cim, varied)
        for j in range(1, 3):
            delta = np.array(ib1.scores[j]) - np.array(ib0.scores[j])
            expect = (
                spec.cim.scores[k, 1, j, : spec.descriptors[j].state_count]
                - spec.cim.scores[k, 0, j, : spec.descriptors[j].state_count]
            )
            assert np.allclose(delta, expect)

    def test_additivity_in_the_matrix(self):
        rng = random.Random(5)
        for _ in range(10):
            spec = parse_study_spec(random_spec_document(rng))
            other = parse_study_spec(random_spec_document(rng))
            if other.state_counts != spec.state_counts:
                continue
            c2 = spec.cim.with_scores(spec.cim.scores * 0.5)
            summed = spec.cim.with_scores(spec.cim.scores + c2.scores)
            z = tuple(0 for _ in spec.descriptors)
            a = np.array(impact_balance(spec, spec.cim, z).scores[0])
            b = np.array(impact_balance(spec, c2, z).scores[0])
            s = np.array(impact_balance(spec, summed, z).scores[0])
            assert np.allclose(a + b, s)

    def test_structure_mismatch(self, fixture_spec, mini_spec):
        with pytest.raises(StructureError):
            impact_balance(fixture_spec, mini_spec.cim, (0, 0))


class TestRulesBuiltInCode:
    """A rule of a spec built in code, not parsed, may name a descriptor
    position or a state that the spec lacks; each call refuses it before
    any step."""

    CALLS = {
        "impact_balance": lambda s: impact_balance(s, s.cim, (0, 0)),
        "check_consistency": lambda s: check_consistency(s, s.cim, (0, 0)),
        "succession_step": lambda s: succession_step(s, s.cim, (0, 0)),
        "find_attractor": lambda s: find_attractor(s, s.cim, (0, 0)),
        "enumerate_consistent": lambda s: enumerate_consistent(s, s.cim),
        "violates_forbidden": lambda s: engine.violates_forbidden(s, (0, 0)),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("case", BAD_RULE_REFS)
    def test_a_rule_reference_outside_the_spec_raises(self, fixture_spec, case, call):
        spec = dataclasses.replace(fixture_spec, **BAD_RULE_REFS[case])
        with pytest.raises(StructureError, match="a rule names state"):
            self.CALLS[call](spec)


class TestConsistency:
    def test_all_zero_cim_everything_consistent(self, fixture_spec):
        cim = zero_cim(fixture_spec)
        for z in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert check_consistency(fixture_spec, cim, z).consistent

    def test_fixture_consistent_scenario(self, fixture_spec):
        res = check_consistency(fixture_spec, fixture_spec.cim, (0, 0))
        assert res.consistent
        assert res.deficits == (0.0, 0.0)

    def test_fixture_inconsistent_with_deficit(self, fixture_spec):
        res = check_consistency(fixture_spec, fixture_spec.cim, (0, 1))
        assert not res.consistent
        assert res.deficits == (2.0, 4.0)


class TestSuccession:
    def test_consistent_scenario_is_fixed(self, fixture_spec):
        assert succession_step(fixture_spec, fixture_spec.cim, (0, 0)) == (0, 0)

    def test_simultaneous_argmax(self, fixture_spec):
        assert succession_step(fixture_spec, fixture_spec.cim, (0, 1)) == (1, 0)

    def test_all_locked_returns_input(self, fixture_spec):
        out = succession_step(
            fixture_spec, fixture_spec.cim, (0, 1), locked=frozenset({"A", "B"})
        )
        assert out == (0, 1)

    def test_tie_keeps_current_state(self, fixture_spec):
        cim = zero_cim(fixture_spec)
        for z in [(0, 0), (1, 1), (0, 1)]:
            assert succession_step(fixture_spec, cim, z) == z

    def test_perturbation_can_flip_a_state(self, fixture_spec):
        bump = np.zeros((2, 2))
        bump[0, 1] = 10.0  # overwhelm theta_A
        assert succession_step(fixture_spec, fixture_spec.cim, (0, 0), perturbation=bump) == (1, 0)

    def test_forbidden_pair_filters_candidates(self):
        doc = two_desc_document({"rules": {"forbidden_pairs": [[["A", 1], ["B", 1]]]}})
        spec = parse_study_spec(doc)
        # from (A1,B2): A's argmax A2 is blocked because B is at B2
        assert succession_step(spec, spec.cim, (0, 1)) == (0, 0)

    def test_infeasibility_raises_with_descriptor(self):
        doc = two_desc_document(
            {
                "rules": {
                    "forbidden_pairs": [[["A", 0], ["B", 0]], [["A", 1], ["B", 0]]]
                }
            }
        )
        spec = parse_study_spec(doc)
        with pytest.raises(InfeasibilityError) as exc:
            succession_step(spec, spec.cim, (0, 0))
        assert exc.value.descriptor_id == "A"

    def test_implication_repair_pass(self):
        doc = two_desc_document(
            {"rules": {"implications": [{"if": ["A", 1], "then": ["B", 0]}]}}
        )
        spec = parse_study_spec(doc)
        # succession from (A1,B2) yields (A2,B1); antecedent A2 holds, B forced to B1
        assert succession_step(spec, spec.cim, (0, 1)) == (1, 0)
        # from (A2,B2) theta moves both, then repair applies on the successor
        out = succession_step(spec, spec.cim, (1, 1))
        assert out[1] == 0 if out[0] == 1 else True

    def test_determinism(self, fixture_spec):
        outs = {succession_step(fixture_spec, fixture_spec.cim, (0, 1)) for _ in range(10)}
        assert len(outs) == 1


class TestAttractor:
    def test_fixed_point_from_consistent_start(self, fixture_spec):
        att = find_attractor(fixture_spec, fixture_spec.cim, (0, 0), 50)
        assert att == Attractor("fixed_point", ((0, 0),), 0)

    def test_two_cycle(self, fixture_spec):
        att = find_attractor(fixture_spec, fixture_spec.cim, (0, 1), 50)
        assert att.kind == "cycle"
        assert att.scenarios == ((0, 1), (1, 0))

    def test_zero_cim_start_is_fixed(self, fixture_spec):
        cim = zero_cim(fixture_spec)
        att = find_attractor(fixture_spec, cim, (1, 0), 50)
        assert att == Attractor("fixed_point", ((1, 0),), 0)

    def test_matches_iterating_the_reference_step(self):
        """find_attractor against iterate_to_attractor over
        reference_succession_step, on specs with thresholds, forbidden pairs
        (sometimes blocking every state of a descriptor) and implications,
        from random starts."""
        rng = random.Random(2006)
        seen = {"fixed_point": 0, "cycle": 0, "nonconverged": 0, "infeasible": 0}
        for case in range(400):
            spec = parse_study_spec(random_rule_document(rng))
            start = tuple(rng.randrange(n) for n in spec.state_counts)
            max_steps = (1, 2, 3, 1000)[case % 4]
            try:
                sequence, first = iterate_to_attractor(
                    lambda z: reference_succession_step(spec, spec.cim, z), start, max_steps
                )
            except InfeasibilityError as e:
                with pytest.raises(InfeasibilityError) as exc:
                    find_attractor(spec, spec.cim, start, max_steps)
                assert exc.value.descriptor_id == e.descriptor_id
                seen["infeasible"] += 1
                continue
            got = find_attractor(spec, spec.cim, start, max_steps)
            if first is None:
                assert got == NonConvergence(max_steps, sequence[-1]), case
                seen["nonconverged"] += 1
            else:
                kind = "fixed_point" if first == len(sequence) - 1 else "cycle"
                assert got == Attractor(kind, tuple(sequence[first:]), first), case
                seen[kind] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_max_steps_below_one(self, fixture_spec, max_steps):
        with pytest.raises(ValueError):
            find_attractor(fixture_spec, fixture_spec.cim, (0, 0), max_steps)

    def test_cycle_members_map_to_successors(self):
        rng = random.Random(23)
        for _ in range(30):
            spec = parse_study_spec(random_spec_document(rng))
            start = tuple(0 for _ in spec.descriptors)
            att = find_attractor(spec, spec.cim, start, 2000)
            if att.kind == "cycle":
                n = len(att.scenarios)
                for i, z in enumerate(att.scenarios):
                    assert succession_step(spec, spec.cim, z) == att.scenarios[(i + 1) % n]
            else:
                assert check_consistency(spec, spec.cim, att.scenarios[0]).consistent


class TestEnumeration:
    def test_fixture_consistent_set(self, fixture_spec):
        assert enumerate_consistent(fixture_spec, fixture_spec.cim) == [(0, 0), (1, 1)]

    def test_zero_cim_all_consistent(self, fixture_spec):
        assert enumerate_consistent(fixture_spec, zero_cim(fixture_spec)) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_forbidden_pair_filter(self):
        doc = two_desc_document({"rules": {"forbidden_pairs": [[["A", 1], ["B", 1]]]}})
        spec = parse_study_spec(doc)
        assert enumerate_consistent(spec, spec.cim) == [(0, 0)]

    def test_limit_enforced(self, fixture_spec):
        with pytest.raises(TractabilityError) as exc:
            enumerate_consistent(fixture_spec, fixture_spec.cim, limit=3)
        assert exc.value.space == 4

    def test_matches_brute_force_oracle(self, monkeypatch):
        """Specs without rules, with up to five states a descriptor (one-state
        descriptors too), and with forbidden pairs, at several chunk sizes."""
        rng = random.Random(99)
        docs = [random_spec_document(rng) for _ in range(25)]
        docs += [random_spec_document(rng, 4, 5, 1) for _ in range(25)]
        docs += [random_rule_document(rng) for _ in range(25)]
        cases = [(parse_study_spec(doc), brute_force_consistent(doc)) for doc in docs]
        assert sum(bool(doc["rules"]["forbidden_pairs"]) for doc in docs[50:]) >= 15
        for chunk in (1, 7, engine.ENUMERATION_CHUNK):
            monkeypatch.setattr(engine, "ENUMERATION_CHUNK", chunk)
            for spec, expected in cases:
                assert enumerate_consistent(spec, spec.cim) == expected, chunk

    def test_idempotence_on_consistent_scenarios(self):
        rng = random.Random(17)
        for _ in range(15):
            doc = random_spec_document(rng)
            spec = parse_study_spec(doc)
            for z in enumerate_consistent(spec, spec.cim):
                assert succession_step(spec, spec.cim, z) == z


def random_rule_document(rng):
    """A random integer-scored spec with random forbidden pairs,
    implications and integer-delta threshold rules."""
    doc = random_spec_document(rng, max_descriptors=5)
    ids = [d["id"] for d in doc["descriptors"]]
    counts = {d["id"]: len(d["states"]) for d in doc["descriptors"]}

    def state_of(did):
        return [did, rng.randrange(counts[did])]

    forbidden = []
    for _ in range(rng.randint(0, 4)):
        a, b = rng.sample(ids, 2)
        forbidden.append([state_of(a), state_of(b)])
    if rng.random() < 0.2:  # block every state of one descriptor behind one other state
        a, b = rng.sample(ids, 2)
        other = state_of(b)
        forbidden += [[[a, s], other] for s in range(counts[a])]
    implications = []
    for _ in range(rng.randint(0, 2)):
        a, c = rng.sample(ids, 2)
        implications.append({"if": state_of(a), "then": state_of(c)})
    thresholds = []
    for _ in range(rng.randint(0, 3)):
        src, tgt = rng.sample(ids, 2)
        conditions = [state_of(did) for did in rng.sample(ids, rng.randint(1, 2))]
        thresholds.append(
            {
                "conditions": conditions,
                "effect": {
                    "source": src,
                    "source_state": rng.randrange(counts[src]),
                    "target": tgt,
                    "target_state": rng.randrange(counts[tgt]),
                    "delta": rng.choice([-2, -1, 1, 2]),
                },
            }
        )
    doc["rules"] = {"forbidden_pairs": forbidden, "implications": implications}
    doc["threshold_rules"] = thresholds
    return doc


class TestSuccessionOracle:
    def test_kernel_matches_reference_loop(self):
        rng = random.Random(2024)
        seen = {"cases": 0, "infeasible": 0, "moved": 0, "ties": 0, "thresholds": 0}
        while seen["cases"] < 600:
            spec = parse_study_spec(random_rule_document(rng))
            shape = (len(spec.descriptors), max(spec.state_counts))
            for _ in range(5):
                z = tuple(rng.randrange(n) for n in spec.state_counts)
                locked = frozenset(
                    d.id for d in spec.descriptors if rng.random() < 0.25
                )
                perturbation = None
                if rng.random() < 0.5:
                    perturbation = np.array(
                        [[rng.randint(-1, 1) for _ in range(shape[1])] for _ in range(shape[0])],
                        dtype=float,
                    )
                try:
                    expected = reference_succession_step(spec, spec.cim, z, locked, perturbation)
                except InfeasibilityError as e:
                    with pytest.raises(InfeasibilityError) as exc:
                        succession_step(spec, spec.cim, z, locked, perturbation)
                    assert exc.value.descriptor_id == e.descriptor_id
                    seen["infeasible"] += 1
                else:
                    assert succession_step(spec, spec.cim, z, locked, perturbation) == expected
                    seen["moved"] += expected != z
                    rows = impact_balance(spec, spec.cim, z).scores
                    seen["ties"] += any(row.count(max(row)) > 1 for row in rows)
                seen["thresholds"] += any(
                    all(z[i] == s for i, s in r.conditions)
                    for r in spec.threshold_rules
                )
                seen["cases"] += 1
        assert seen["infeasible"] >= 40 and seen["moved"] >= 200 and seen["ties"] >= 100, seen
        assert seen["thresholds"] >= 100, seen
