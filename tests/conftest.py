import importlib.resources
import json
import random

import numpy as np
import pytest

from cibpath.model import DomainRules, ThresholdEffect, ThresholdRule, parse_study_spec
from cibpath.simulate import EnsembleResult


def two_desc_document(extra=None):
    """The hand-checked 2x2 fixture: a 2-cycle and two fixed points."""
    doc = {
        "descriptors": [
            {"id": "A", "name": "A", "states": ["A1", "A2"]},
            {"id": "B", "name": "B", "states": ["B1", "B2"]},
        ],
        "cim": [
            {"source": "A", "source_state": 0, "target": "B", "target_state": 0, "score": 2, "confidence": 5},
            {"source": "A", "source_state": 0, "target": "B", "target_state": 1, "score": -2, "confidence": 5},
            {"source": "A", "source_state": 1, "target": "B", "target_state": 0, "score": -2, "confidence": 5},
            {"source": "A", "source_state": 1, "target": "B", "target_state": 1, "score": 2, "confidence": 5},
            {"source": "B", "source_state": 0, "target": "A", "target_state": 0, "score": 1, "confidence": 5},
            {"source": "B", "source_state": 0, "target": "A", "target_state": 1, "score": -1, "confidence": 5},
            {"source": "B", "source_state": 1, "target": "A", "target_state": 0, "score": -1, "confidence": 5},
            {"source": "B", "source_state": 1, "target": "A", "target_state": 1, "score": 1, "confidence": 5},
        ],
        "baseline": {"A": 0, "B": 0},
        "time_grid": [2025, 2030, 2035],
    }
    if extra:
        doc.update(extra)
    return doc


#: Rules built in code that name a descriptor position or a state that the
#: 2x2 fixture spec lacks, as dataclasses.replace changes by case; a
#: negative position would index from the end.
BAD_RULE_REFS = {
    "forbidden-pair-beyond": {"rules": DomainRules(forbidden_pairs=(((0, 1), (2, 0)),))},
    "implication-negative": {"rules": DomainRules(implications=(((-1, 0), (1, 0)),))},
    "implication-state-beyond": {"rules": DomainRules(implications=(((0, 0), (1, 2)),))},
    "threshold-condition-negative": {
        "threshold_rules": (ThresholdRule(((-2, 0),), ThresholdEffect(0, 0, 1, 0, 1.0)),)
    },
    "threshold-effect-beyond": {
        "threshold_rules": (ThresholdRule(((0, 0),), ThresholdEffect(0, 0, 2, 0, 1.0)),)
    },
}


@pytest.fixture
def fixture_spec():
    return parse_study_spec(two_desc_document())


@pytest.fixture
def mini_spec_path():
    return str(importlib.resources.files("cibpath") / "fixtures" / "mini_study.json")


@pytest.fixture
def mini_spec(mini_spec_path):
    with open(mini_spec_path) as fh:
        return parse_study_spec(json.load(fh))


def random_spec_document(
    rng: random.Random, max_descriptors=6, max_states=3, min_states=2, min_descriptors=2
):
    """Random small study spec with integer scores in [-3, 3] and no rules."""
    n = rng.randint(min_descriptors, max_descriptors)
    descriptors = []
    for i in range(n):
        k = rng.randint(min_states, max_states)
        descriptors.append(
            {"id": f"D{i}", "name": f"D{i}", "states": [f"s{j}" for j in range(k)]}
        )
    cells = []
    for i, src in enumerate(descriptors):
        for j, tgt in enumerate(descriptors):
            if i == j:
                continue
            for si in range(len(src["states"])):
                for ti in range(len(tgt["states"])):
                    cells.append(
                        {
                            "source": src["id"],
                            "source_state": si,
                            "target": tgt["id"],
                            "target_state": ti,
                            "score": rng.randint(-3, 3),
                            "confidence": rng.randint(1, 5),
                        }
                    )
    baseline = {d["id"]: rng.randrange(len(d["states"])) for d in descriptors}
    return {
        "descriptors": descriptors,
        "cim": cells,
        "baseline": baseline,
        "time_grid": [2025, 2030],
    }


def brute_force_consistent(document):
    """Independent oracle: enumerate all state combinations, drop those
    holding a forbidden pair, and check the impact-balance maximum directly
    from the raw cell records."""
    from itertools import product

    ids = [d["id"] for d in document["descriptors"]]
    counts = [len(d["states"]) for d in document["descriptors"]]
    table = {}
    for rec in document["cim"]:
        key = (rec["source"], rec["source_state"], rec["target"], rec["target_state"])
        table[key] = float(rec["score"])
    forbidden = [
        (ids.index(a), a_state, ids.index(b), b_state)
        for (a, a_state), (b, b_state) in document.get("rules", {}).get("forbidden_pairs", [])
    ]
    consistent = []
    for combo in product(*(range(c) for c in counts)):
        ok = not any(combo[a] == sa and combo[b] == sb for a, sa, b, sb in forbidden)
        for j, tgt in enumerate(ids):
            theta = []
            for l in range(counts[j]):
                total = 0.0
                for i, src in enumerate(ids):
                    if i == j:
                        continue
                    total += table[(src, combo[i], tgt, l)]
                theta.append(total)
            if theta[combo[j]] < max(theta):
                ok = False
                break
        if ok:
            consistent.append(combo)
    return consistent


def make_ensemble(pathway_states, periods=(2025, 2030, 2035), digest="test", errors=None):
    """Hand-built ensemble: pathway_states is a list of per-run state-vector
    sequences (one vector per period). errors maps a run index to its error
    text; such a run's sequence may stop before the last period."""
    n, width = len(pathway_states), len(pathway_states[0][0])
    states = np.zeros((n, len(periods), width), np.int8)
    converged = np.zeros((n, len(periods)), bool)
    for r, seq in enumerate(pathway_states):
        states[r, :len(seq)] = seq
        converged[r, :len(seq)] = True
    lengths = np.array([len(seq) for seq in pathway_states])
    iterations = np.zeros((n, len(periods)), np.int64)
    return EnsembleResult(
        digest, 0, tuple(periods), states, converged, iterations, lengths, dict(errors or {})
    )
