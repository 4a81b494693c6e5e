"""Single-node mutations of the mini study's input files.

Every node of the study spec (of its cim, the first two cells), the
pipeline config (with its screening, ranges and extremes), the MCDA input,
the translation file and an identities file is deleted, or replaced by each
of null, true, 0, -1, 1.5, "x", [] and {}; so is every node of each optional
block that a reader accepts but the fixtures leave out. Each mutated
document goes through the readers and stages that take it, in process,
under the CLI's exit-code mapping. Every case must end in exit 0, 1, 2 or
3, never in a traceback, and an exit-3 message must name the mutated node
(in its dotted path, or in words: "confidence level" for confidence_level)
or, below the top level, its parent; the path of the file that holds the
node, which the message gives first, is not read for it. A mutated name or
list item that other nodes refer to (a descriptor, a state, a pathway, a
criterion, a dimension or a stage) may instead be refused where it is
referred to; a top-level node that refers to a file or a pathway, when
set to "x", by naming 'x' or the file .../x; and a root emptied to {} for
the first node it lacks, or where that node is referred to.
"""

import copy
import importlib.resources
import json
import re

import pytest

from cibpath import pipeline
from cibpath.cli import _guarded
from cibpath.mcda import parse_mcda_input
from cibpath.model import load_study_spec, parse_study_spec, read_json, validate_study_spec
from cibpath.simulate import Pathway, simulate_ensemble

FIXTURES = importlib.resources.files("cibpath") / "fixtures"
DELETE = object()
MUTATIONS = (DELETE, None, True, 0, -1, 1.5, "x", [], {})
#: The cim cells whose nodes are mutated; the others are read by the same code.
CIM_CELLS = 2
#: The runs that a mutated pipeline config simulates, as `--runs` would set.
RUNS = 20

GRID = [2025, 2030, 2035, 2040, 2045, 2050]
IDENTITIES = {"identities": [{
    "name": "indices", "terms": {"grid_investment_index": 1.0, "acceptance_index": 1.0},
    "adjustable": ["acceptance_index"], "equals": 1.5,
}]}

#: Optional blocks that the readers accept and the fixtures leave out, as
#: (key path, a valid value) pairs, by document.
OPTIONAL = {
    "spec": [
        (("uncertainty",), {
            "confidence_sigma": {"1": 1.5, "2": 1.2, "3": 0.9, "4": 0.5, "5": 0.2},
            "time_scale": {str(p): 1.0 + k / 10 for k, p in enumerate(GRID)},
            "sampling_distribution": {"kind": "student_t", "df": 5},
            "resample": "per_run",
        }),
        (("descriptors", 1, "states"), ["Low", "Medium", "High"]),
        (("shocks", "structural", "distribution"), "gaussian"),
    ],
    "pipeline": [
        (("output_dir",), "out"), (("stages",), ["validate", "simulate", "screen", "quantify"]),
        (("selected_pathway",), "C1"), (("max_iter",), 100), (("confidence_level",), 0.9),
        (("screening", "late_rush_steps"), 2), (("screening", "discontinuity_steps"), 2),
        (("screening", "full_vector_backsliding"), False),
        (("screening", "endpoint_exclusions"), [[["PS", "High"], ["RD", 0]]]),
        (("ranges", "grid_investment_index"), {"low": 0.5, "high": 2.0}),
    ],
    "mcda": [(("scale",), [1, 5])],
    "translation": [(("dimensions", 0, "values", "High"), {"2045": 180.0, "2050": 220.0})],
    # equals_dimension in place of equals: an identity gives exactly one
    "identities": [(("identities", 0), {
        **{k: v for k, v in IDENTITIES["identities"][0].items() if k != "equals"},
        "equals_dimension": "grid_investment_index",
    })],
}

#: The cyclic descriptor's drift in the mini study.
DRIFT = ("descriptors", 4, "cyclic", "drift")


def _time_factor(doc, factor):
    """doc with a time scale of 1.0, but factor at the last period."""
    return mutated(doc, ("uncertainty", "time_scale"), {**{str(p): 1.0 for p in GRID}, str(GRID[-1]): factor})


def _states(doc, k):
    """doc with descriptor PS given k states: the first k of its three, then
    new ones whose cells, in either role, are zero; without the rules, which
    name its states."""
    doc = {key: value for key, value in doc.items() if key not in ("rules", "threshold_rules")}
    ps, *others = doc["descriptors"]
    cells = [
        c for c in doc["cim"]
        if (c["source"] != "PS" or c["source_state"] < k) and (c["target"] != "PS" or c["target_state"] < k)
    ]
    zero = {"score": 0.0, "confidence": 3}
    for s in range(3, k):
        for d in others:
            for t in range(len(d["states"])):
                cells.append({"source": "PS", "source_state": s, "target": d["id"], "target_state": t, **zero})
                cells.append({"source": d["id"], "source_state": t, "target": "PS", "target_state": s, **zero})
    states = [*ps["states"][:k], *(f"S{s}" for s in range(3, k))]
    return {
        **doc, "descriptors": [{**ps, "states": states}, *others], "cim": cells,
        "baseline": {**doc["baseline"], "PS": 0},
    }


#: Each numeric bound of the study spec's validation, met and missed: the
#: case's edit of the mini study, the exit code that reading and validating
#: it gets, and the node of its one error finding.
BOUNDS = {
    "cyclic-drift-1": (lambda d: mutated(d, DRIFT, 1.0), 0, None),
    "cyclic-drift-minus-1": (lambda d: mutated(d, DRIFT, -1.0), 0, None),
    "cyclic-drift-1.01": (lambda d: mutated(d, DRIFT, 1.01), 1, "descriptors[4].cyclic.drift"),
    "cyclic-drift-minus-1.01": (lambda d: mutated(d, DRIFT, -1.01), 1, "descriptors[4].cyclic.drift"),
    "time-scale-factor-0": (lambda d: _time_factor(d, 0.0), 0, None),
    "time-scale-factor-minus-0.01": (lambda d: _time_factor(d, -0.01), 1, "uncertainty.time_scale"),
    "2-states": (lambda d: _states(d, 2), 0, None),
    "5-states": (lambda d: _states(d, 5), 0, None),
    "1-state": (lambda d: _states(d, 1), 1, "descriptors[0].states"),
    "6-states": (lambda d: _states(d, 6), 1, "descriptors[0].states"),
}

#: The nodes that hold a name or a list item that other nodes refer to.
REFERENCED = re.compile(
    r"descriptors\[\d+\](\.id|\.states(\[\d+\](\.label)?)?)?|(pathways|criteria|stages)\[\d+\]"
    r"|dimensions(\[\d+\](\.id)?)?|identities\[\d+\]\.terms\.\w+"
)


def node_path(keys) -> str:
    """The dotted path of the node at keys, as the readers name it."""
    path = ""
    for key in keys:
        path = f"{path}[{key}]" if type(key) is int else f"{path}.{key}" if path else key
    return path


def nodes(doc, keys=()):
    """The key paths of doc's nodes, depth first, the root first; of the
    cim, only the first CIM_CELLS cells."""
    yield keys
    items = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for key, value in items:
        if keys == ("cim",) and key >= CIM_CELLS:
            break
        yield from nodes(value, keys + (key,))


def mutated(doc, keys, value):
    """doc with the node at keys deleted (DELETE) or replaced by value; the
    containers on the way are copied, and those missing made objects."""
    if not keys:
        return value
    head, *rest = keys
    doc = copy.copy(doc)
    if rest:
        doc[head] = mutated(doc[head] if type(doc) is list else doc.get(head, {}), rest, value)
    elif value is DELETE:
        del doc[head]
    else:
        doc[head] = value
    return doc


def cases(doc, optional):
    """(mutated document, the mutated node's path, the mutation) triples:
    each node of doc,
    and each node of each optional block added to it, deleted or replaced
    (the root only replaced)."""
    bases = [(doc, ())] + [(mutated(doc, keys, value), keys) for keys, value in optional]
    for base, block in bases:
        for keys in nodes(base):
            if keys[:len(block)] == block and (keys or not block):
                for value in MUTATIONS if keys else MUTATIONS[1:]:
                    yield mutated(base, keys, value), node_path(keys), value


def names_node(message: str, path: str, value) -> bool:
    """Whether an exit-3 message names the node at path, set to value, as
    the module's docstring says."""
    cut = max(path.rfind("."), path.rfind("["))
    names = [path or "(root)", *([path[:cut]] if cut > 0 else [])]
    if "_" in path:
        names.append(path.replace("_", " "))
    if value == "x" and cut < 0:
        names += ["'x'", "/x'"]
    return (
        any(name in message for name in names) or REFERENCED.fullmatch(path) is not None
        or path == "" and value == {}
    )


def check(name, doc, run, capsys, optional=()):
    """Run each case of doc and its optional blocks through run(mutated
    document) under the CLI's exit-code mapping; fails the test with the
    cases that end in a traceback, or in exit 3 with a message that does not
    name the node. Returns the count of cases by exit code."""
    failures, counts = [], {}
    for case, node, value in cases(doc, [*OPTIONAL[name], *optional]):
        capsys.readouterr()
        try:
            _guarded(lambda: run(case))()
            code, message = 0, ""
        except SystemExit as e:
            code, message = e.code, json.loads(capsys.readouterr().err)["message"]
            # the path of the file that holds the node, which names no node
            message = re.sub(r"^/[^:]*\.json: ", "", message)
        except Exception as e:  # a traceback from the CLI
            code, message = "traceback", repr(e)
        counts[code] = counts.get(code, 0) + 1
        if code not in (0, 1, 2, 3) or code == 3 and not names_node(message, node, value):
            failures.append((node, json.dumps(case)[:60], code, message))
    assert not failures, "\n".join(map(str, failures))
    return counts


def write(doc, path) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def fixtures():
    return {
        name: read_json(str(FIXTURES / f"mini_{name}.json"))
        for name in ("study", "pipeline", "mcda", "translation")
    }


def read_spec(doc):
    """Read and validate a study spec document, as the validate stage does."""
    spec = parse_study_spec(doc)
    pipeline.raise_on_errors(validate_study_spec(spec), "")
    spec.sigma_tables  # built on first use


def test_study_spec_mutations(fixtures, capsys):
    counts = check("spec", fixtures["study"], read_spec, capsys)
    assert counts[3] > counts[0] > 0 and counts[1] > 0


@pytest.mark.parametrize("case", BOUNDS)
def test_each_validation_bound_from_both_sides(fixtures, case):
    edit, code, node = BOUNDS[case]
    doc = edit(fixtures["study"])
    outcome = 0
    try:
        _guarded(lambda: read_spec(doc))()
    except SystemExit as e:
        outcome = e.code
    errors = [f.path for f in validate_study_spec(parse_study_spec(doc)) if f.severity == "error"]
    assert (outcome, errors) == (code, [node] if node else [])


def test_pipeline_config_mutations(fixtures, tmp_path, capsys, monkeypatch):
    """Each config runs the pipeline at RUNS runs; an ensemble is simulated
    once for each spec and set of arguments."""
    ensembles = {}

    def simulate(spec, *args):
        key = spec.digest(), *args
        if key not in ensembles:
            ensembles[key] = simulate_ensemble(spec, *args)
        return ensembles[key]

    monkeypatch.setattr(pipeline, "simulate_ensemble", simulate)
    doc = dict(fixtures["pipeline"])
    for key in ("spec", "mcda_input", "translation"):
        doc[key] = str(FIXTURES / doc[key])
    identities = write(IDENTITIES, tmp_path / "identities.json")

    def run(case):
        config = pipeline.load_pipeline_config(write(case, tmp_path / "pipeline.json"))
        config.run_count = RUNS
        pipeline.run_pipeline(config)

    counts = check("pipeline", doc, run, capsys, [(("identities",), identities)])
    assert counts[3] > counts[0] > 0


def test_mcda_input_mutations(fixtures, tmp_path, capsys):
    counts = check("mcda", fixtures["mcda"], lambda doc: pipeline.mcda_stage(
        parse_mcda_input(doc), str(tmp_path)
    ), capsys)
    assert counts[3] > counts[0] > 0


def test_translation_and_identities_mutations(fixtures, tmp_path, capsys):
    """Quantify the first run of a 40-run ensemble, with the pipeline
    fixture's ranges and extremes, from each translation or identities file."""
    spec = load_study_spec(str(FIXTURES / "mini_study.json"))
    ensemble = simulate_ensemble(spec, 40, 1)
    pathway = Pathway(tuple(zip(GRID, map(tuple, ensemble.states[0].tolist()))))
    config = fixtures["pipeline"]

    def quantify(translation, identities=None):
        inputs = pipeline.read_quantify_inputs(
            spec, write(translation, tmp_path / "translation.json"), config["ranges"], identities,
            config["extremes"],
        )
        pipeline.quantify_stage(spec, "C1", pathway, inputs, str(tmp_path), ensemble)

    counts = check("translation", fixtures["translation"], quantify, capsys)
    assert counts[3] > counts[0] > 0
    counts = check("identities", IDENTITIES, lambda doc: quantify(
        fixtures["translation"], write(doc, tmp_path / "identities.json")
    ), capsys)
    assert counts[3] > 0 and counts[0] > 0
