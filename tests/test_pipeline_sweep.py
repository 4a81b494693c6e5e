"""Every single-node mutation case of tests/test_input_mutations.py, run end
to end through run_pipeline, each into a fresh directory.

The mutated document is the study spec, the pipeline config, the MCDA
input, the translation file or an identities file of the mini pipeline,
the others being the fixtures; the pipeline simulates RUNS runs, as
`--runs` would set. Every input is read and checked before the first stage
writes a file, so a case that exits 3 must leave no file. A case that exits
1 or 2 having written files must be one of LEAVE_FILES: its refusal needs
what an earlier stage computed, or is the validate stage's own.
"""

import json
import shutil

from cibpath import pipeline
from cibpath.cli import _guarded
from cibpath.model import read_json
from cibpath.simulate import simulate_ensemble
from test_input_mutations import FIXTURES, IDENTITIES, OPTIONAL, RUNS, cases

FIRST_STAGES = frozenset({"findings.json", "ensemble.jsonl", "shares.csv", "shares.json"})
ALL_BUT_QUANTIFY = FIRST_STAGES | {"candidates.json", "mcda_report.json"}

#: (mutated document, exit code, error, the files left) of the cases
#: that may leave files behind: a spec that fails validation, after the
#: validate stage writes findings.json; a structural shock that leaves fewer
#: terminal groups than candidates; a translation that misses a state that
#: the selected pathway reaches; an absolute range that misses a central
#: value; and an identity whose repair would scale by zero or less.
LEAVE_FILES = {
    ("spec", 1, "ValidationFailure", frozenset({"findings.json"})),
    ("spec", 2, "InsufficientCandidatesError", FIRST_STAGES),
    ("translation", 2, "CoverageError", ALL_BUT_QUANTIFY),
    ("pipeline", 2, "OutOfRangeError", ALL_BUT_QUANTIFY),
    ("identities", 2, "OutOfRangeError", ALL_BUT_QUANTIFY),
}


def test_every_mutation_case_through_the_pipeline(tmp_path, capsys, monkeypatch):
    """Each case runs in a directory of its own, which holds its pipeline
    config and its output; an ensemble is simulated once for each spec and
    set of arguments."""
    ensembles = {}

    def simulate(spec, *args):
        key = spec.digest(), *args
        if key not in ensembles:
            ensembles[key] = simulate_ensemble(spec, *args)
        return ensembles[key]

    monkeypatch.setattr(pipeline, "simulate_ensemble", simulate)
    docs = {
        name: read_json(str(FIXTURES / f"mini_{name}.json"))
        for name in ("study", "pipeline", "mcda", "translation")
    }
    config = dict(docs["pipeline"])
    for key in ("spec", "mcda_input", "translation"):
        config[key] = str(FIXTURES / config[key])
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    identities = inputs / "identities.json"
    identities.write_text(json.dumps(IDENTITIES))
    # (document, the config key that names its file, the document, its own optional blocks)
    sweep = [
        ("spec", "spec", docs["study"], []),
        ("pipeline", None, config, [(("identities",), str(identities))]),
        ("mcda", "mcda_input", docs["mcda"], []),
        ("translation", "translation", docs["translation"], []),
        ("identities", "identities", IDENTITIES, []),
    ]
    failures, seen = [], set()
    for name, key, doc, optional in sweep:
        for n, (case, node, value) in enumerate(cases(doc, [*OPTIONAL[name], *optional])):
            if key is not None:
                path = inputs / f"{name}{n}.json"
                path.write_text(json.dumps(case))
                case = {**config, key: str(path)}
            case_dir = tmp_path / f"{name}{n}"
            case_dir.mkdir()
            (case_dir / "pipeline.json").write_text(json.dumps(case))

            def run():
                cfg = pipeline.load_pipeline_config(str(case_dir / "pipeline.json"))
                cfg.run_count = RUNS
                pipeline.run_pipeline(cfg)

            capsys.readouterr()
            try:
                _guarded(run)()
                code, error = 0, None
            except SystemExit as e:
                code, error = e.code, json.loads(capsys.readouterr().err)["error"]
            except Exception as e:  # a traceback from the CLI
                code, error = "traceback", repr(e)
            left = [p for p in case_dir.rglob("*") if p.name != "pipeline.json"]
            files = frozenset(p.name for p in left if p.is_file())
            shutil.rmtree(case_dir)
            outcome = name, code, error, files
            seen.add(outcome)
            if code not in (0, 1, 2, 3) or code == 3 and left or (
                code in (1, 2) and files and outcome not in LEAVE_FILES
            ):
                failures.append((node, value, *outcome))
    assert not failures, "\n".join(map(str, failures))
    # each class still occurs: the sweep reaches the stages that refuse them
    assert LEAVE_FILES <= seen
