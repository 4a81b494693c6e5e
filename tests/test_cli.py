import hashlib
import importlib.resources
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import cibpath
import legacy_format
from cibpath.cli import main
from cibpath.model import parse_study_spec
from cibpath.simulate import load_ensemble, save_ensemble
from conftest import make_ensemble, two_desc_document


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fixture_dir(mini_spec_path):
    return os.path.dirname(mini_spec_path)


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def child_env(env=None):
    """os.environ and env, with PYTHONPATH led by the directory of the
    cibpath that the tests imported, so that a child interpreter imports it."""
    src = os.path.dirname(os.path.dirname(cibpath.__file__))
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(path)}


class TestValidate:
    def test_valid_spec_exits_zero(self, runner, mini_spec_path):
        result = invoke(runner, "validate", "--spec", mini_spec_path)
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["errors"] == []

    def test_invalid_spec_exits_one(self, runner, tmp_path, mini_spec_path):
        with open(mini_spec_path) as fh:
            doc = json.load(fh)
        doc["baseline"]["PS"] = "High"  # trips the forbidden pair with PA Low? no:
        # make the baseline violate the PS-High / PA-Low exclusion directly
        doc["baseline"]["PA"] = "Low"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = invoke(runner, "validate", "--spec", str(bad))
        assert result.exit_code == 1
        # the findings report ends at the first top-level closing brace
        end = result.output.index("\n}") + 2
        report = json.loads(result.output[:end])
        assert report["errors"]

    def test_student_t_df_two_stops_validate_and_simulate_alike(
        self, runner, tmp_path, mini_spec_path
    ):
        """The simulator refuses a Student-t df <= 2 for every distribution
        it scales; validate flags the sampling one, and so does simulate's
        own validation, before any draw."""
        with open(mini_spec_path) as fh:
            doc = json.load(fh)
        doc["uncertainty"] = {"sampling_distribution": {"kind": "student_t", "df": 2}}
        bad = tmp_path / "df2.json"
        bad.write_text(json.dumps(doc))
        result = invoke(runner, "validate", "--spec", str(bad))
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert [e["path"] for e in report["errors"]] == ["uncertainty.sampling_distribution"]
        result = invoke(runner, "simulate", "--spec", str(bad), "--out", str(tmp_path),
                        "--runs", "10")
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "ValidationFailure"

    def test_malformed_file_exits_three(self, runner, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"descriptors": []}')
        result = invoke(runner, "validate", "--spec", str(bad))
        assert result.exit_code == 3


class TestEnumerate:
    def test_consistent_scenarios_listed(self, runner, mini_spec_path):
        result = invoke(runner, "enumerate", "--spec", mini_spec_path)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert [0, 0, 0, 0, 0] in doc["consistent_scenarios"]
        assert doc["count"] == len(doc["consistent_scenarios"])

    def test_limit_exceeded_exits_three(self, runner, mini_spec_path):
        result = invoke(runner, "enumerate", "--spec", mini_spec_path, "--limit", "10")
        assert result.exit_code == 3


class TestSimulateStats:
    def test_simulate_then_stats(self, runner, mini_spec_path, tmp_path):
        out = str(tmp_path / "out")
        result = invoke(
            runner, "simulate", "--spec", mini_spec_path, "--out", out,
            "--runs", "50", "--seed", "7",
        )
        assert result.exit_code == 0
        ens_path = result.output.strip()
        assert os.path.exists(ens_path)

        result = invoke(
            runner, "stats", "--spec", mini_spec_path, "--out", out,
            "--ensemble", ens_path,
        )
        assert result.exit_code == 0
        assert os.path.exists(os.path.join(out, "shares.csv"))
        with open(os.path.join(out, "shares.json")) as fh:
            doc = json.load(fh)
        assert doc["confidence_level"] == 0.95

    def test_reruns_are_byte_identical(self, runner, mini_spec_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            invoke(runner, "simulate", "--spec", mini_spec_path, "--out", out,
                   "--runs", "40", "--seed", "7")
            with open(os.path.join(out, "ensemble.jsonl"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_workers_env_var(self, runner, mini_spec_path, tmp_path):
        out_serial = str(tmp_path / "serial")
        out_env = str(tmp_path / "env")
        invoke(runner, "simulate", "--spec", mini_spec_path, "--out", out_serial,
               "--runs", "40", "--seed", "7")
        invoke(runner, "simulate", "--spec", mini_spec_path, "--out", out_env,
               "--runs", "40", "--seed", "7", env={"CIBPATH_WORKERS": "3"})
        with open(os.path.join(out_serial, "ensemble.jsonl"), "rb") as a:
            with open(os.path.join(out_env, "ensemble.jsonl"), "rb") as b:
                assert a.read() == b.read()


class TestPipeline:
    def test_end_to_end(self, runner, fixture_dir, tmp_path):
        out = str(tmp_path / "out")
        config = os.path.join(fixture_dir, "mini_pipeline.json")
        result = invoke(
            runner, "pipeline", "--config", config, "--out", out, "--runs", "400",
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads(result.output)
        assert set(manifest["stages"]) == {
            "validate", "simulate", "stats", "screen", "mcda", "quantify"
        }
        for name in (
            "findings.json", "ensemble.jsonl", "shares.csv", "shares.json",
            "candidates.json", "mcda_report.json", "quantified.csv",
            "quantified.json", "manifest.json",
        ):
            assert os.path.exists(os.path.join(out, name)), name
        with open(os.path.join(out, "candidates.json")) as fh:
            candidates = json.load(fh)
        assert len(candidates["candidates"]) == 4
        with open(os.path.join(out, "quantified.json")) as fh:
            bundle = json.load(fh)
        assert bundle["selected_pathway"] in {c["id"] for c in candidates["candidates"]}
        assert 2 <= len(bundle["extreme_scenarios"]) <= 4

    def test_manifest_digests_reproducible(self, runner, fixture_dir, tmp_path):
        config = os.path.join(fixture_dir, "mini_pipeline.json")
        manifests = []
        for name in ("m1", "m2"):
            out = str(tmp_path / name)
            result = invoke(
                runner, "pipeline", "--config", config, "--out", out, "--runs", "300",
            )
            assert result.exit_code == 0, result.output
            manifests.append(json.loads(result.output)["stages"])
        assert manifests[0] == manifests[1]

    def test_missing_config_key_exits_three(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run_count": 10}))
        result = invoke(runner, "pipeline", "--config", str(cfg))
        assert result.exit_code == 3


class TestScreenMcdaQuantify:
    def test_stagewise_handoff(self, runner, mini_spec_path, fixture_dir, tmp_path):
        out = str(tmp_path / "out")
        invoke(runner, "simulate", "--spec", mini_spec_path, "--out", out,
               "--runs", "400", "--seed", "42")
        ens = os.path.join(out, "ensemble.jsonl")

        scfg = tmp_path / "screening.json"
        scfg.write_text(json.dumps(
            {"outcome_descriptor": "RD", "best_outcome_state": 2}
        ))
        result = invoke(
            runner, "screen", "--spec", mini_spec_path, "--out", out,
            "--ensemble", ens, "--config", str(scfg), "-k", "4",
        )
        assert result.exit_code == 0, result.output
        candidates = result.output.strip()

        result = invoke(
            runner, "mcda", "--out", out,
            "--input", os.path.join(fixture_dir, "mini_mcda.json"),
        )
        assert result.exit_code == 0

        result = invoke(
            runner, "quantify", "--spec", mini_spec_path, "--out", out,
            "--candidates", candidates, "--pathway", "C1",
            "--matrix", os.path.join(fixture_dir, "mini_translation.json"),
        )
        assert result.exit_code == 0, result.output
        assert os.path.exists(os.path.join(out, "quantified.csv"))

    def test_unknown_pathway_exits_three(self, runner, mini_spec_path, fixture_dir, tmp_path):
        out = str(tmp_path / "out")
        invoke(runner, "simulate", "--spec", mini_spec_path, "--out", out,
               "--runs", "200", "--seed", "42")
        ens = os.path.join(out, "ensemble.jsonl")
        scfg = tmp_path / "screening.json"
        scfg.write_text(json.dumps({"outcome_descriptor": "RD"}))
        invoke(runner, "screen", "--spec", mini_spec_path, "--out", out,
               "--ensemble", ens, "--config", str(scfg))
        result = invoke(
            runner, "quantify", "--spec", mini_spec_path, "--out", out,
            "--candidates", os.path.join(out, "candidates.json"),
            "--pathway", "C99",
            "--matrix", os.path.join(fixture_dir, "mini_translation.json"),
        )
        assert result.exit_code == 3


#: The mini study's time grid length and descriptor count, and where a run
#: record's converged flags and iteration counts start: a record is [run,
#: periods recorded, states period by period, flags, iterations].
PERIODS, WIDTH = 6, 5
CONVERGED = 2 + PERIODS * WIDTH
ITERATIONS = CONVERGED + PERIODS
INFEASIBLE = "no feasible state for descriptor 'PS'"


def _set(offset, value):
    def edit(header, record):
        record[offset] = value
    return edit


def _set_state(value):
    return _set(2 + 2 * WIDTH + 1, value)  # period 2, descriptor 1


def _stop_after(periods, error=None):
    """The record ends after periods periods, zero past them; error, if
    given, is its entry in the header's error list."""
    def edit(header, record):
        record[1] = periods
        for t in range(periods, PERIODS):
            record[2 + t * WIDTH:2 + (t + 1) * WIDTH] = [0] * WIDTH
            record[CONVERGED + t] = record[ITERATIONS + t] = 0
        if error is not None:
            header["errors"] = [[5, error]]
    return edit


def _drop_last_period(header, record):
    del record[ITERATIONS + PERIODS - 1]
    del record[CONVERGED + PERIODS - 1]
    del record[2 + (PERIODS - 1) * WIDTH:2 + PERIODS * WIDTH]


def _errored(header, record):
    header["errors"] = [[5, INFEASIBLE]]


#: Ensemble files whose record 5 does not fit the mini study, by stem.
MISFITS = {
    "state7": _set_state(7),
    "state300": _set_state(300),
    "short_row": lambda header, record: record.pop(2 + 2 * WIDTH + 1),
    "state_text": _set_state("a"),
    "state_float": _set_state(1.5),
    "state_bool": _set_state(True),
}

#: Ensemble files whose record 5 does not fit the mini study's time grid,
#: or whose recorded periods and error disagree, by stem.
RECORD_MISFITS = {
    "period_missing": _stop_after(PERIODS - 1),
    "period_off_grid": _set(1, PERIODS + 1),
    "periods_short": _drop_last_period,
    "errored_off_grid": _errored,
}

#: Malformed ensemble files: the edit, the record it edits and the node the
#: error message names, by stem.
MALFORMED = {
    "run_index_text": (_set(0, "x"), 5, "runs[5]"),
    "run_index_duplicated": (_set(0, 5), 6, "runs[6]"),
    "converged_seven": (_set(CONVERGED + 2, 7), 5, "runs[5]"),
    "iterations_negative": (_set(ITERATIONS + 2, -5), 5, "runs[5]"),
    "iterations_beyond_int64": (_set(ITERATIONS + 2, 2 ** 64), 5, "runs[5]"),
    "error_not_text": (_stop_after(3, 5), 5, "header.errors[0][1]"),
    "run_count_text": (lambda header, record: header.update(run_count="200"), 5,
                       "header.run_count"),
}


#: Screening configs beside the outcome descriptor RD, by stem.
SCREENINGS = {
    "text_steps_screening": {"late_rush_steps": "two"},
    "float_steps_screening": {"late_rush_steps": 1.7},
    "bool_steps_screening": {"discontinuity_steps": True},
    "zero_steps_screening": {"late_rush_steps": 0},
    "negative_steps_screening": {"discontinuity_steps": -1},
    "text_backsliding_screening": {"full_vector_backsliding": "no"},
    "label_exclusion_screening": {"endpoint_exclusions": [[["RD", "High"]]]},
    "index_exclusion_screening": {"endpoint_exclusions": [[["RD", 2]]]},
    "state9_exclusion_screening": {"endpoint_exclusions": [[["PS", 0], ["RD", 9]]]},
    "unknown_label_exclusion_screening": {"endpoint_exclusions": [[["PS", 0], ["RD", "Top"]]]},
    "unknown_descriptor_exclusion_screening": {"endpoint_exclusions": [[["PS", 0], ["XX", 0]]]},
}

#: Malformed --ranges and --identities files, by stem.
RANGES = {
    "text_ranges": {"carbon_price": {"relative": "abc"}},
    "number_ranges": {"carbon_price": 0.2},
    "unknown_key_ranges": {"carbon_price": {"relative": 0.2}, "carbn_price": {"relative": 0.2}},
    "list_ranges": [],
}
IDENTITIES = {
    "terms_list_identities": {"identities": [{"terms": ["carbon_price"], "adjustable": []}]},
    "text_coefficient_identities": {
        "identities": [{"terms": {"carbon_price": "one"}, "adjustable": ["carbon_price"]}]
    },
    "object_identities": {"identities": {"terms": {"carbon_price": 1.0}}},
}
#: Malformed --extremes files: the axes config and the node the error
#: message names, by stem.
EXTREMES = {
    "label_extremes": ({"descriptor_stacks": {"adverse": {"PS": "Nope"}}},
                       "extremes.descriptor_stacks.adverse.PS"),
    "state7_extremes": ({"descriptor_stacks": {"adverse": {"PS": 7}}},
                        "extremes.descriptor_stacks.adverse.PS"),
    "outcome_empty_extremes": ({"outcome": {}}, "extremes.outcome.descriptor"),
    "min_count_text_extremes": ({"frequency": {"min_count": "x"}},
                                "extremes.frequency.min_count"),
    "min_count_float_extremes": ({"frequency": {"min_count": 2.7}},
                                 "extremes.frequency.min_count"),
    "min_count_bool_extremes": ({"frequency": {"min_count": True}},
                                "extremes.frequency.min_count"),
    "stacks_list_extremes": ({"descriptor_stacks": [{"PS": 0}]}, "extremes.descriptor_stacks"),
    "list_extremes": ([], "extremes"),
    "min_count_zero_extremes": ({"frequency": {"min_count": 0}}, "extremes.frequency.min_count"),
    "min_count_negative_extremes": ({"frequency": {"min_count": -1}},
                                    "extremes.frequency.min_count"),
}

#: A JSON integer of more digits than Python's int() reads (4 300).
HUGE = "1" * 5000

#: Malformed study specs: the edit of the mini study, by stem.
SPECS = {
    "shocks_number_spec": lambda doc: doc.update(shocks=5),
    "text_scale_spec": lambda doc: doc["shocks"]["structural"].update(scale="abc"),
    "empty_forbidden_pair_spec": lambda doc: doc["rules"].update(forbidden_pairs=[[]]),
    "uncertainty_number_spec": lambda doc: doc.update(uncertainty=5),
    "sigma_list_spec": lambda doc: doc.update(uncertainty={"confidence_sigma": [1, 0.8, 0.6]}),
    "text_time_scale_spec": lambda doc: doc.update(
        uncertainty={"time_scale": dict.fromkeys(map(str, doc["time_grid"]), "x")}
    ),
    "number_name_spec": lambda doc: doc["descriptors"][0].update(name=5),
    "nan_scale_spec": lambda doc: doc["shocks"]["structural"].update(scale=float("nan")),
}
#: MCDA inputs whose scale is malformed, by stem.
SCALES = {"number_scale_mcda": 5, "one_number_scale_mcda": [1], "text_scale_mcda": ["a", "b"]}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 200-run mini-study ensemble and the inputs the failure cases need."""
    spec = str(importlib.resources.files("cibpath") / "fixtures" / "mini_study.json")
    root = tmp_path_factory.mktemp("small")
    result = invoke(CliRunner(), "simulate", "--spec", spec, "--out", str(root),
                    "--runs", "200", "--seed", "42")
    assert result.exit_code == 0, result.output
    ensemble = root / "ensemble.jsonl"
    first, *lines = ensemble.read_text().splitlines()
    (root / "truncated.jsonl").write_text("\n".join([first, *lines[:49]]) + "\n")
    (root / "huge_descriptors.jsonl").write_text("\n".join(
        [first.replace('"descriptors":5,', f'"descriptors":{10 ** 12},', 1), *lines]
    ) + "\n")

    def write_edited(stem, edit, run=5):
        header, records = json.loads(first), [json.loads(line) for line in lines]
        edit(header, records[run])
        with open(root / f"{stem}.jsonl", "w") as fh:
            for doc in (header, *records):
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")

    for stem, edit in {**MISFITS, **RECORD_MISFITS}.items():
        write_edited(stem, edit)
    for stem, (edit, run, _) in MALFORMED.items():
        write_edited(stem, edit, run)
    # an errored record stops on a prefix of the time grid
    write_edited("errored_prefix", _stop_after(3, INFEASIBLE))
    write_edited("stateless", _set(slice(2, None), []), run=3)
    with open(root / "parent_format.jsonl", "w") as fh:
        legacy_format.write_ensemble(load_ensemble(str(ensemble)), fh)
    (root / "not_utf8.json").write_bytes(b"\xff\xfe{}")
    # integers of more digits than int() reads, written as text: json.dumps refuses them
    (root / "huge_seed.jsonl").write_text("\n".join(
        [first.replace('"master_seed":42,', f'"master_seed":{HUGE},', 1), *lines]
    ) + "\n")
    numbers = lines[5][1:-1].split(",")
    numbers[ITERATIONS + 2] = HUGE
    (root / "huge_iterations.jsonl").write_text("\n".join(
        [first, *lines[:5], f"[{','.join(numbers)}]", *lines[6:]]
    ) + "\n")
    (root / "periodless.json").write_text(json.dumps({"candidates": [{"id": "C1"}]}))
    (root / "broken.json").write_text('{"descriptors": [')
    grid = [2025, 2030, 2035, 2040, 2045, 2050]
    (root / "candidate.json").write_text(json.dumps(
        {"candidates": [{"id": "C1", "periods": grid, "states": [[0] * 5] * 6}]}
    ))
    (root / "ragged_candidate.json").write_text(json.dumps(
        {"candidates": [{"id": "C1", "periods": grid[:3], "states": [[0] * 5] * 6}]}
    ))
    for stem, periods, states in (
        ("short_row_candidate", grid, [[0] * 5] * 5 + [[0] * 4]),
        ("off_grid_candidate", [p - 35 for p in grid], [[0] * 5] * 6),
        ("state7_candidate", grid, [[0] * 5] * 5 + [[0, 0, 7, 0, 0]]),
    ):
        (root / f"{stem}.json").write_text(json.dumps({"candidates": [
            {"id": "C0", "periods": grid, "states": [[0] * 5] * 6},
            {"id": "C1", "periods": periods, "states": states},
        ]}))
    (root / "duplicate_id_candidate.json").write_text(json.dumps({"candidates": [
        {"id": "C1", "periods": grid, "states": [[0] * 5] * 6},
        {"id": "C1", "periods": grid, "states": [[1] * 5] * 6},
    ]}))
    translation = os.path.join(os.path.dirname(spec), "mini_translation.json")
    with open(translation) as fh:
        doc = json.load(fh)
    for stem, ref, value in (
        ("text", "Low", "abc"), ("state7", "7", 1.0), ("minus1", "-1", 1.0), ("huge", "Low", 10**400)
    ):
        edited = json.loads(json.dumps(doc))
        edited["dimensions"][0]["values"][ref] = value
        (root / f"{stem}_translation.json").write_text(json.dumps(edited))
    mcda = os.path.join(os.path.dirname(spec), "mini_mcda.json")
    with open(mcda) as fh:
        doc = json.load(fh)
    (root / "personas_list_mcda.json").write_text(
        json.dumps({**doc, "personas": list(doc["personas"].values())})
    )
    for stem, scale in SCALES.items():
        (root / f"{stem}.json").write_text(json.dumps({**doc, "scale": scale}))
    doc["scores"]["C2"]["ambition"] = "high"
    (root / "text_score_mcda.json").write_text(json.dumps(doc))
    (root / "list_translation.json").write_text("[]")
    (root / "screening.json").write_text(json.dumps({"outcome_descriptor": "RD"}))
    for stem, best in (("top", "top"), ("seven", 7), ("high", "High"), ("two", 2)):
        (root / f"best_{stem}_screening.json").write_text(
            json.dumps({"outcome_descriptor": "RD", "best_outcome_state": best})
        )
    for stem, ranges in RANGES.items():
        (root / f"{stem}.json").write_text(json.dumps(ranges))
    for stem, identities in IDENTITIES.items():
        (root / f"{stem}.json").write_text(json.dumps(identities))
    for stem, (extremes, _) in EXTREMES.items():
        (root / f"{stem}.json").write_text(json.dumps(extremes))
    (root / "outcome_extremes.json").write_text(json.dumps({"outcome": {"descriptor": "RD"}}))
    for stem, field in SCREENINGS.items():
        (root / f"{stem}.json").write_text(json.dumps({"outcome_descriptor": "RD", **field}))
    with open(spec) as fh:
        doc = json.load(fh)
    for stem, edit in SPECS.items():
        edited = json.loads(json.dumps(doc))
        edit(edited)
        (root / f"{stem}.json").write_text(json.dumps(edited))
    (root / "huge_int_spec.json").write_text(
        json.dumps(doc).replace('"time_grid": [2025,', f'"time_grid": [{HUGE},', 1)
    )
    (root / "huge_scale_spec.json").write_text(
        (root / "nan_scale_spec.json").read_text().replace("NaN", "1e400")
    )
    (root / "df2_spec.json").write_text(json.dumps(
        {**doc, "uncertainty": {"sampling_distribution": {"kind": "student_t", "df": 2}}}
    ))
    # cyclic probabilities summing to 0.35: a validation error, not a parse error
    invalid = json.loads(json.dumps(doc))
    next(d for d in invalid["descriptors"] if "cyclic" in d)["cyclic"]["stay"] = 0.1
    (root / "stay_spec.json").write_text(json.dumps(invalid))
    for stem, stages in (("simulate", ["simulate"]), ("validate", ["validate", "simulate"])):
        (root / f"invalid_{stem}_pipeline.json").write_text(json.dumps({
            "spec": str(root / "stay_spec.json"), "run_count": 50, "stages": stages,
            "output_dir": str(root / f"invalid_{stem}_out"),
        }))
    spec_digest = parse_study_spec(doc).digest()
    doc["shocks"]["structural"]["enabled"] = "false"
    (root / "text_shock_spec.json").write_text(json.dumps(doc))
    doc["shocks"]["structural"]["enabled"] = True
    doc["descriptors"][0]["name"] = "Renamed policy stringency"
    (root / "other_spec.json").write_text(json.dumps(doc))
    # the spec's own digest, but a time grid one period short
    save_ensemble(make_ensemble([[[0] * WIDTH] * (PERIODS - 1)] * 3, grid[:-1], spec_digest),
                  str(root / "short_grid.jsonl"))
    # every run infeasible after the baseline period
    save_ensemble(make_ensemble([[[0] * WIDTH]] * 3, grid, spec_digest, dict.fromkeys(
        range(3), INFEASIBLE)), str(root / "infeasible.jsonl"))
    (root / "k1_pipeline.json").write_text(json.dumps({
        "spec": spec, "run_count": 50, "master_seed": 42, "candidate_count": 1,
        "stages": ["simulate", "screen"], "screening": {"outcome_descriptor": "RD"},
        "output_dir": str(root / "k1_out"),
    }))
    with open(os.path.join(os.path.dirname(spec), "mini_pipeline.json")) as fh:
        doc = json.load(fh)
    for key in ("spec", "mcda_input", "translation"):
        doc[key] = os.path.join(os.path.dirname(spec), doc[key])
    (root / "runs_pipeline.json").write_text(
        json.dumps({**doc, "output_dir": str(root / "runs_out")})
    )
    (root / "outcome_empty_extremes_pipeline.json").write_text(json.dumps({
        **doc, "run_count": 300, "extremes": {"outcome": {}},
        "output_dir": str(root / "extremes_out"),
    }))
    for stem, field in (("bad_value", {"run_count": "many"}), ("float_runs", {"run_count": 1.5}),
                        ("bool_workers", {"worker_count": True}), ("no_stages", {"stages": []})):
        (root / f"{stem}_pipeline.json").write_text(json.dumps({"spec": spec, **field}))
    (root / "huge_runs_pipeline.json").write_text(
        json.dumps({"spec": spec, "run_count": 1}).replace(": 1}", f": {HUGE}}}")
    )
    (root / "level0_pipeline.json").write_text(json.dumps({
        "spec": spec, "run_count": 50, "confidence_level": 0,
        "stages": ["validate", "simulate", "stats"], "output_dir": str(root / "level0_out"),
    }))
    (root / "missing_input_pipeline.json").write_text(json.dumps({
        "spec": spec, "stages": ["quantify"], "selected_pathway": "C1",
        "translation": str(root / "missing.json"), "output_dir": str(root / "out"),
    }))
    # Each input file by its stem: ensemble, truncated, stateless, broken, ...
    files = {p.stem: str(p) for p in root.iterdir() if p.is_file()}
    return {"spec": spec, "out": str(root / "out"), "translation": translation, **files}


def _screen(f, k, config="screening", ensemble="ensemble"):
    return ["screen", "--spec", f["spec"], "--out", f["out"], "--ensemble", f[ensemble],
            "--config", f[config], "-k", k]


def _simulate(f, *extra):
    return ["simulate", "--spec", f["spec"], "--out", f["out"], "--runs", "10", *extra]


def _stats(f, spec, ensemble):
    return ["stats", "--spec", f[spec], "--out", f["out"], "--ensemble", f[ensemble]]


def _quantify(f, candidates, matrix, option=None, stem=None):
    return ["quantify", "--spec", f["spec"], "--out", f["out"], "--candidates", f[candidates],
            "--pathway", "C1", "--matrix", f[matrix], *((option, f[stem]) if option else ())]


def _extremes(f, stem, ensemble="ensemble"):
    return [*_quantify(f, "candidate", "translation", "--extremes", stem),
            "--ensemble", f[ensemble]]


def _mcda(f, mcda):
    return ["mcda", "--out", f["out"], "--input", f[mcda]]


# (case, argv builder, environment, exit code, error type on stderr)
FAILURES = [
    ("screen-k-1", lambda f: _screen(f, "1"), None, 3, "ConfigError"),
    ("screening-steps-not-int", lambda f: _screen(f, "4", "text_steps_screening"), None, 3,
     "ConfigError"),
    ("pipeline-candidate-count-1", lambda f: ["pipeline", "--config", f["k1_pipeline"]],
     None, 3, "ConfigError"),
    ("workers-env-not-int", lambda f: _simulate(f), {"CIBPATH_WORKERS": "abc"}, 3, "ConfigError"),
    ("workers-zero", lambda f: _simulate(f, "--workers", "0"), {"CIBPATH_WORKERS": "2"},
     3, "ConfigError"),
    ("spec-not-json", lambda f: ["validate", "--spec", f["broken"]], None, 3, "JSONDecodeError"),
    ("mcda-not-json", lambda f: ["mcda", "--out", f["out"], "--input", f["broken"]],
     None, 3, "JSONDecodeError"),
    ("ensemble-not-json", lambda f: _stats(f, "spec", "broken"), None, 3, "JSONDecodeError"),
    ("spec-not-utf8", lambda f: ["validate", "--spec", f["not_utf8"]], None, 3,
     "UnicodeDecodeError"),
    ("mcda-not-utf8", lambda f: _mcda(f, "not_utf8"), None, 3, "UnicodeDecodeError"),
    ("ensemble-not-utf8", lambda f: _stats(f, "spec", "not_utf8"), None, 3,
     "UnicodeDecodeError"),
    ("ensemble-parent-format", lambda f: _stats(f, "spec", "parent_format"), None, 3,
     "ParseError"),
    ("ensemble-run-index-not-integer", lambda f: _stats(f, "spec", "run_index_text"),
     None, 3, "ParseError"),
    ("ensemble-run-index-duplicated", lambda f: _stats(f, "spec", "run_index_duplicated"),
     None, 3, "ParseError"),
    ("ensemble-converged-not-flag", lambda f: _stats(f, "spec", "converged_seven"),
     None, 3, "ParseError"),
    ("ensemble-iterations-negative", lambda f: _stats(f, "spec", "iterations_negative"),
     None, 3, "ParseError"),
    ("ensemble-error-not-text", lambda f: _stats(f, "spec", "error_not_text"),
     None, 3, "ParseError"),
    ("ensemble-header-run-count-text", lambda f: _stats(f, "spec", "run_count_text"),
     None, 3, "ParseError"),
    ("ensemble-truncated", lambda f: _stats(f, "spec", "truncated"), None, 3, "ParseError"),
    ("ensemble-record-without-states", lambda f: _stats(f, "spec", "stateless"),
     None, 3, "ParseError"),
    ("ensemble-state-out-of-range", lambda f: _stats(f, "spec", "state7"),
     None, 3, "ParseError"),
    ("ensemble-state-beyond-int8", lambda f: _stats(f, "spec", "state300"),
     None, 3, "ParseError"),
    ("ensemble-state-row-short", lambda f: _stats(f, "spec", "short_row"),
     None, 3, "ParseError"),
    ("ensemble-state-not-integer", lambda f: _stats(f, "spec", "state_text"),
     None, 3, "ParseError"),
    ("ensemble-state-float", lambda f: _stats(f, "spec", "state_float"),
     None, 3, "ParseError"),
    ("ensemble-state-bool", lambda f: _stats(f, "spec", "state_bool"),
     None, 3, "ParseError"),
    ("candidate-without-periods",
     lambda f: ["quantify", "--spec", f["spec"], "--out", f["out"], "--candidates",
                f["periodless"], "--pathway", "C1", "--matrix", f["translation"]],
     None, 3, "ParseError"),
    ("ensemble-record-period-missing", lambda f: _stats(f, "spec", "period_missing"),
     None, 3, "ParseError"),
    ("ensemble-record-period-off-grid", lambda f: _stats(f, "spec", "period_off_grid"),
     None, 3, "ParseError"),
    ("ensemble-record-periods-short", lambda f: _stats(f, "spec", "periods_short"),
     None, 3, "ParseError"),
    ("ensemble-errored-record-off-grid", lambda f: _stats(f, "spec", "errored_off_grid"),
     None, 3, "ParseError"),
    ("candidate-periods-short", lambda f: _quantify(f, "ragged_candidate", "translation"),
     None, 3, "ParseError"),
    ("candidate-state-row-short", lambda f: _quantify(f, "short_row_candidate", "translation"),
     None, 3, "ParseError"),
    ("candidate-periods-off-grid", lambda f: _quantify(f, "off_grid_candidate", "translation"),
     None, 3, "ParseError"),
    ("candidate-state-out-of-range", lambda f: _quantify(f, "state7_candidate", "translation"),
     None, 3, "ParseError"),
    ("candidate-id-duplicated",
     lambda f: _quantify(f, "duplicate_id_candidate", "translation"), None, 3, "ParseError"),
    ("translation-value-not-number", lambda f: _quantify(f, "candidate", "text_translation"),
     None, 3, "ParseError"),
    ("translation-value-huge", lambda f: _quantify(f, "candidate", "huge_translation"),
     None, 3, "ParseError"),
    ("ranges-value-not-number",
     lambda f: _quantify(f, "candidate", "translation", "--ranges", "text_ranges"),
     None, 3, "ParseError"),
    ("ranges-range-not-object",
     lambda f: _quantify(f, "candidate", "translation", "--ranges", "number_ranges"),
     None, 3, "ParseError"),
    ("identities-terms-list",
     lambda f: _quantify(f, "candidate", "translation", "--identities", "terms_list_identities"),
     None, 3, "ParseError"),
    ("identities-coefficient-not-number",
     lambda f: _quantify(f, "candidate", "translation", "--identities",
                         "text_coefficient_identities"),
     None, 3, "ParseError"),
    ("identities-not-list",
     lambda f: _quantify(f, "candidate", "translation", "--identities", "object_identities"),
     None, 3, "ParseError"),
    ("screen-best-state-unknown-label", lambda f: _screen(f, "4", "best_top_screening"),
     None, 3, "ConfigError"),
    ("screen-best-state-out-of-range", lambda f: _screen(f, "4", "best_seven_screening"),
     None, 3, "ConfigError"),
    ("mcda-personas-not-object", lambda f: _mcda(f, "personas_list_mcda"), None, 3, "ParseError"),
    ("mcda-score-not-number", lambda f: _mcda(f, "text_score_mcda"), None, 3, "ParseError"),
    ("ensemble-from-other-spec", lambda f: _stats(f, "other_spec", "ensemble"),
     None, 3, "ConfigError"),
    ("pipeline-run-count-not-int", lambda f: ["pipeline", "--config", f["bad_value_pipeline"]],
     None, 3, "ConfigError"),
    ("stats-level-above-one", lambda f: [*_stats(f, "spec", "ensemble"), "--level", "1.5"],
     None, 3, "ConfigError"),
    ("pipeline-confidence-level-zero",
     lambda f: ["pipeline", "--config", f["level0_pipeline"]], None, 3, "ConfigError"),
    ("stage-input-file-missing",
     lambda f: ["pipeline", "--config", f["missing_input_pipeline"]], None, 3, "FileNotFoundError"),
    ("too-few-candidates", lambda f: _screen(f, "500"), None, 2, "InsufficientCandidatesError"),
    ("extremes-stack-state-unknown-label", lambda f: _extremes(f, "label_extremes"), None, 3,
     "SpecReferenceError"),
    ("extremes-stack-state-out-of-range", lambda f: _extremes(f, "state7_extremes"), None, 3,
     "SpecReferenceError"),
    ("extremes-outcome-without-descriptor", lambda f: _extremes(f, "outcome_empty_extremes"),
     None, 3, "ParseError"),
    ("extremes-min-count-not-int", lambda f: _extremes(f, "min_count_text_extremes"), None, 3,
     "ParseError"),
    ("extremes-stacks-list", lambda f: _extremes(f, "stacks_list_extremes"), None, 3,
     "ParseError"),
    ("extremes-min-count-float", lambda f: _extremes(f, "min_count_float_extremes"), None, 3,
     "ParseError"),
    ("extremes-min-count-bool", lambda f: _extremes(f, "min_count_bool_extremes"), None, 3,
     "ParseError"),
    ("screening-steps-float", lambda f: _screen(f, "4", "float_steps_screening"), None, 3,
     "ConfigError"),
    ("screening-steps-bool", lambda f: _screen(f, "4", "bool_steps_screening"), None, 3,
     "ConfigError"),
    ("screening-backsliding-not-bool", lambda f: _screen(f, "4", "text_backsliding_screening"),
     None, 3, "ConfigError"),
    ("screening-steps-zero", lambda f: _screen(f, "4", "zero_steps_screening"), None, 3,
     "ConfigError"),
    ("screening-steps-negative", lambda f: _screen(f, "4", "negative_steps_screening"), None, 3,
     "ConfigError"),
    ("extremes-min-count-zero", lambda f: _extremes(f, "min_count_zero_extremes"), None, 3,
     "ParseError"),
    ("extremes-min-count-negative", lambda f: _extremes(f, "min_count_negative_extremes"),
     None, 3, "ParseError"),
    ("pipeline-stages-empty", lambda f: ["pipeline", "--config", f["no_stages_pipeline"]],
     None, 3, "ConfigError"),
    ("screen-exclusion-state-out-of-range",
     lambda f: _screen(f, "4", "state9_exclusion_screening"), None, 3, "SpecReferenceError"),
    ("screen-exclusion-state-unknown-label",
     lambda f: _screen(f, "4", "unknown_label_exclusion_screening"), None, 3,
     "SpecReferenceError"),
    ("screen-exclusion-descriptor-unknown",
     lambda f: _screen(f, "4", "unknown_descriptor_exclusion_screening"), None, 3,
     "SpecReferenceError"),
    ("pipeline-run-count-float", lambda f: ["pipeline", "--config", f["float_runs_pipeline"]],
     None, 3, "ConfigError"),
    ("pipeline-worker-count-bool", lambda f: ["pipeline", "--config", f["bool_workers_pipeline"]],
     None, 3, "ConfigError"),
    ("spec-shock-enabled-not-bool", lambda f: ["validate", "--spec", f["text_shock_spec"]],
     None, 3, "ParseError"),
    ("translation-state-index-out-of-range",
     lambda f: _quantify(f, "candidate", "state7_translation"), None, 3, "SpecReferenceError"),
    ("translation-state-index-negative",
     lambda f: _quantify(f, "candidate", "minus1_translation"), None, 3, "SpecReferenceError"),
    ("ranges-key-not-a-dimension",
     lambda f: _quantify(f, "candidate", "translation", "--ranges", "unknown_key_ranges"),
     None, 3, "ParseError"),
    ("ensemble-time-grid-short", lambda f: _stats(f, "spec", "short_grid"), None, 3,
     "ParseError"),
    ("stats-no-successful-run", lambda f: _stats(f, "spec", "infeasible"), None, 2,
     "EmptyInputError"),
    ("screen-no-successful-run", lambda f: _screen(f, "4", ensemble="infeasible"), None, 2,
     "EmptyInputError"),
    ("extremes-no-successful-run", lambda f: _extremes(f, "outcome_extremes", "infeasible"),
     None, 2, "EmptyInputError"),
    *((f"spec-{stem.removesuffix('_spec').replace('_', '-')}",
       lambda f, stem=stem: ["validate", "--spec", f[stem]], None, 3, "ParseError")
      for stem in SPECS),
    *((f"mcda-{stem.removesuffix('_mcda').replace('_', '-')}",
       lambda f, stem=stem: _mcda(f, stem), None, 3, "ParseError") for stem in SCALES),
    ("translation-not-object", lambda f: _quantify(f, "candidate", "list_translation"), None, 3,
     "ParseError"),
    ("spec-huge-scale", lambda f: ["validate", "--spec", f["huge_scale_spec"]], None, 3,
     "ParseError"),
    ("spec-integer-5000-digits", lambda f: ["validate", "--spec", f["huge_int_spec"]], None, 3,
     "ParseError"),
    ("pipeline-run-count-5000-digits",
     lambda f: ["pipeline", "--config", f["huge_runs_pipeline"]], None, 3, "ParseError"),
    ("ensemble-header-5000-digits", lambda f: _stats(f, "spec", "huge_seed"), None, 3,
     "ParseError"),
    ("ensemble-record-5000-digits", lambda f: _stats(f, "spec", "huge_iterations"), None, 3,
     "ParseError"),
    ("ensemble-header-descriptors-huge", lambda f: _stats(f, "spec", "huge_descriptors"), None, 3,
     "ParseError"),
    ("pipeline-runs-0", lambda f: ["pipeline", "--config", f["runs_pipeline"], "--runs", "0"],
     None, 3, "ConfigError"),
    ("spec-student-t-df-2", lambda f: ["validate", "--spec", f["df2_spec"]], None, 1,
     "ValidationFailure"),
    ("pipeline-simulate-invalid-spec",
     lambda f: ["pipeline", "--config", f["invalid_simulate_pipeline"]], None, 1,
     "ValidationFailure"),
]


#: The field that the message of a FAILURES case names, by case.
NAMED_FIELDS = {
    "screening-steps-float": "late_rush_steps",
    "screening-steps-bool": "discontinuity_steps",
    "screening-backsliding-not-bool": "full_vector_backsliding",
    "screening-steps-zero": "screening.late_rush_steps: ",
    "screening-steps-negative": "screening.discontinuity_steps: ",
    "extremes-min-count-zero": "extremes.frequency.min_count: ",
    "extremes-min-count-negative": "extremes.frequency.min_count: ",
    "pipeline-stages-empty": "stages: ",
    "screen-exclusion-state-out-of-range": "endpoint_exclusions[0][1]: ",
    "screen-exclusion-state-unknown-label": "endpoint_exclusions[0][1]: ",
    "screen-exclusion-descriptor-unknown": "endpoint_exclusions[0][1]: ",
    "pipeline-run-count-float": "run_count",
    "pipeline-worker-count-bool": "worker_count",
    "spec-shock-enabled-not-bool": "shocks.structural.enabled: ",
    "ensemble-time-grid-short": "short_grid.jsonl: header: ",
    "spec-shocks-number": "shocks: ",
    "spec-text-scale": "shocks.structural.scale: ",
    "spec-empty-forbidden-pair": "rules.forbidden_pairs[0][0]: ",
    "spec-uncertainty-number": "uncertainty: ",
    "spec-sigma-list": "uncertainty.confidence_sigma: ",
    "spec-text-time-scale": "uncertainty.time_scale.2025: ",
    "spec-number-name": "descriptors[0].name: ",
    "mcda-number-scale": "scale: ",
    "mcda-one-number-scale": "scale: ",
    "mcda-text-scale": "scale[0]: ",
    "translation-not-object": "(root): ",
    "spec-nan-scale": "nan_scale_spec.json: NaN is not a finite JSON number",
    "spec-huge-scale": "huge_scale_spec.json: 1e400 is not a finite JSON number",
    "translation-value-huge": "dimensions[0].values.Low: ",
    "pipeline-candidate-count-1": "candidate_count: ",
    "spec-integer-5000-digits": "huge_int_spec.json: an integer of 5000 characters",
    "pipeline-run-count-5000-digits": "huge_runs_pipeline.json: an integer of 5000 characters",
    "ensemble-header-5000-digits": "huge_seed.jsonl: header: an integer of 5000 characters",
    "ensemble-record-5000-digits": "huge_iterations.jsonl: runs[5]: iteration count",
    "ensemble-header-descriptors-huge": "huge_descriptors.jsonl: header: descriptors",
    "ensemble-state-beyond-int8": "state300.jsonl: runs[5]: state 300 is not a state index",
    "pipeline-runs-0": "run_count: ",
}


@pytest.mark.parametrize(
    "argv, env, code, error", [case[1:] for case in FAILURES], ids=[c[0] for c in FAILURES]
)
def test_failure_exit_code_and_json_error_line(small_run, argv, env, code, error):
    result = invoke(CliRunner(), *argv(small_run), env=env)
    assert result.exit_code == code, result.output
    (line,) = result.stderr.splitlines()
    report = json.loads(line)
    assert report["error"] == error and report["message"]


@pytest.mark.parametrize("case", NAMED_FIELDS)
def test_refusal_names_the_field(small_run, case):
    (argv,) = [c[1] for c in FAILURES if c[0] == case]
    result = invoke(CliRunner(), *argv(small_run))
    assert NAMED_FIELDS[case] in json.loads(result.stderr)["message"]


#: Pipeline refusals of FAILURES that come before any stage, and the
#: output directory that each one's config names.
BEFORE_ANY_STAGE = {"pipeline-confidence-level-zero": "level0_out", "pipeline-runs-0": "runs_out"}


@pytest.mark.parametrize("case", BEFORE_ANY_STAGE)
def test_pipeline_refusal_before_any_stage_leaves_no_output_directory(small_run, case):
    """A bad config value, or a --runs override applied after the config is
    read, is refused before the validate stage writes findings.json."""
    (argv,) = [c[1] for c in FAILURES if c[0] == case]
    result = invoke(CliRunner(), *argv(small_run))
    assert result.exit_code == 3, result.output
    out = os.path.join(os.path.dirname(small_run["out"]), BEFORE_ANY_STAGE[case])
    assert not os.path.exists(out)


@pytest.mark.parametrize("stem, written", [("simulate", None), ("validate", ["findings.json"])])
def test_pipeline_refuses_an_invalid_spec_before_simulating(small_run, stem, written):
    """A spec with validation errors stops the pipeline before simulate
    writes: with a validate stage, after findings.json; without one, before
    any stage, as `cibpath simulate` refuses it."""
    result = invoke(CliRunner(), "pipeline", "--config", small_run[f"invalid_{stem}_pipeline"])
    assert result.exit_code == 1, result.output
    assert json.loads(result.stderr)["error"] == "ValidationFailure"
    out = os.path.join(os.path.dirname(small_run["out"]), f"invalid_{stem}_out")
    assert (sorted(os.listdir(out)) if os.path.exists(out) else None) == written


def test_import_leaves_scipy_unloaded():
    """scipy is a test-only dependency: start-up must not import it."""
    code = (
        "import sys, cibpath, cibpath.cli, cibpath.pipeline\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("stem", [*MISFITS, *RECORD_MISFITS])
def test_state_misfit_names_the_record(small_run, stem):
    result = invoke(CliRunner(), *_stats(small_run, "spec", stem))
    report = json.loads(result.stderr)
    assert report["message"].startswith(f"{small_run[stem]}: runs[5]: ")


@pytest.mark.parametrize("stem", MALFORMED)
def test_malformed_ensemble_names_the_node(small_run, stem):
    result = invoke(CliRunner(), *_stats(small_run, "spec", stem))
    report = json.loads(result.stderr)
    assert report["message"].startswith(f"{small_run[stem]}: {MALFORMED[stem][2]}: ")


def test_parent_format_ensemble_asks_for_a_new_simulation(small_run):
    result = invoke(CliRunner(), *_stats(small_run, "spec", "parent_format"))
    assert "re-run `cibpath simulate`" in json.loads(result.stderr)["message"]


def test_errored_record_on_a_prefix_of_the_grid_loads(small_run):
    result = invoke(CliRunner(), *_stats(small_run, "spec", "errored_prefix"))
    assert result.exit_code == 0, result.output


def test_crlf_ensemble_loads_as_saved(small_run, tmp_path):
    crlf = tmp_path / "crlf.jsonl"
    with open(small_run["ensemble"], "rb") as fh:
        crlf.write_bytes(fh.read().replace(b"\n", b"\r\n"))
    saved, edited = load_ensemble(small_run["ensemble"]), load_ensemble(str(crlf))
    for field in ("states", "converged", "iterations", "lengths"):
        assert np.array_equal(getattr(saved, field), getattr(edited, field))
    assert saved.errors == edited.errors


def test_screen_rejecting_nothing_writes_no_rows(runner, tmp_path):
    doc = two_desc_document()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    # steps of at most one state, no fall of A, none in the last period
    ensemble = make_ensemble(
        [[(0, 0), (0, 1), (1, 1)], [(0, 0), (1, 0), (1, 0)], [(0, 1), (1, 1), (1, 1)]],
        digest=parse_study_spec(doc).digest(),
    )
    save_ensemble(ensemble, str(tmp_path / "ensemble.jsonl"))
    config = tmp_path / "screening.json"
    config.write_text(json.dumps({"outcome_descriptor": "A"}))
    result = invoke(runner, "screen", "--spec", str(spec), "--out", str(tmp_path),
                    "--ensemble", str(tmp_path / "ensemble.jsonl"), "--config", str(config),
                    "-k", "2")
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "candidates.json").read_text())
    assert len(doc["candidates"]) == 2
    assert doc["rejected"] == {
        "counts": dict.fromkeys(
            ["backsliding", "discontinuity", "endpoint_inconsistency", "late_rush"], 0
        ),
        "periods": [2025, 2030, 2035],
        "rows": [],
    }


@pytest.mark.parametrize("candidates, matrix, node", [
    ("ragged_candidate", "translation", "candidates[0]"),
    ("short_row_candidate", "translation", "candidates[1]"),
    ("off_grid_candidate", "translation", "candidates[1]"),
    ("state7_candidate", "translation", "candidates[1]"),
    ("duplicate_id_candidate", "translation", "candidates[1]"),
    ("candidate", "text_translation", "dimensions[0].values.Low"),
    ("candidate", "state7_translation", "dimensions[0].values.7"),
    ("candidate", "minus1_translation", "dimensions[0].values.-1"),
])
def test_quantify_input_error_names_the_node(small_run, candidates, matrix, node):
    result = invoke(CliRunner(), *_quantify(small_run, candidates, matrix))
    assert f"{node}: " in json.loads(result.stderr)["message"]


@pytest.mark.parametrize("option, stem, node", [
    ("--ranges", "text_ranges", "ranges.carbon_price.relative"),
    ("--ranges", "number_ranges", "ranges.carbon_price"),
    ("--ranges", "unknown_key_ranges", "ranges.carbn_price"),
    ("--ranges", "list_ranges", "ranges"),
    ("--identities", "terms_list_identities", "identities[0].terms"),
    ("--identities", "text_coefficient_identities", "identities[0].terms.carbon_price"),
    ("--identities", "object_identities", "identities"),
])
def test_quantify_side_file_error_names_the_node(small_run, option, stem, node):
    """An identities file's node follows the file's path; a range is named
    as in a pipeline config."""
    result = invoke(CliRunner(), *_quantify(small_run, "candidate", "translation", option, stem))
    file = f"{small_run[stem]}: " if option == "--identities" else ""
    assert json.loads(result.stderr)["message"].startswith(f"{file}{node}: ")


@pytest.mark.parametrize("stem", EXTREMES)
def test_quantify_extremes_error_names_the_node(small_run, stem):
    result = invoke(CliRunner(), *_extremes(small_run, stem))
    assert json.loads(result.stderr)["message"].startswith(f"{EXTREMES[stem][1]}: ")


def test_pipeline_extremes_error_names_the_node(small_run):
    config = small_run["outcome_empty_extremes_pipeline"]
    result = invoke(CliRunner(), "pipeline", "--config", config)
    assert result.exit_code == 3, result.output
    report = json.loads(result.stderr)
    assert report["error"] == "ParseError" and report["message"].startswith(
        "extremes.outcome.descriptor: "
    )


def test_pipeline_reads_the_extremes_config_before_any_stage(small_run, tmp_path):
    with open(small_run["outcome_empty_extremes_pipeline"]) as fh:
        doc = json.load(fh)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
    result = invoke(CliRunner(), "pipeline", "--config", str(config))
    assert result.exit_code == 3, result.output
    assert not os.path.exists(tmp_path / "out" / "ensemble.jsonl")


#: Pipeline config edits that are refused before any stage runs: the
#: error and the start of its message, which names the node. An edit of
#: mcda_input, translation or identities gives the file's document, and the
#: message names the file before the node.
BAD_STAGE_INPUTS = {
    "exclusion-unknown-descriptor": (
        {"screening": {"outcome_descriptor": "RD", "endpoint_exclusions": [[["XX", 0]]]}},
        "SpecReferenceError", "screening.endpoint_exclusions[0][0]: ",
    ),
    "outcome-unknown-descriptor": (
        {"screening": {"outcome_descriptor": "XX"}},
        "SpecReferenceError", "screening.outcome_descriptor: ",
    ),
    "best-outcome-unknown-state": (
        {"screening": {"outcome_descriptor": "RD", "best_outcome_state": "Nope"}},
        "ConfigError", "screening.best_outcome_state: ",
    ),
    "late-rush-zero": (
        {"screening": {"outcome_descriptor": "RD", "late_rush_steps": 0}},
        "ConfigError", "screening.late_rush_steps: ",
    ),
    "mcda-criteria-number": ({"mcda_input": {"criteria": 5}}, "ParseError", "criteria: "),
    "candidate-count-1": ({"candidate_count": 1}, "ConfigError", "candidate_count: "),
    "candidate-count-1-without-mcda": (
        {"candidate_count": 1, "stages": ["simulate", "screen"]},
        "ConfigError", "candidate_count: ",
    ),
    "worker-count-0": ({"worker_count": 0}, "ConfigError", "worker_count: "),
    "max-iter-0": ({"max_iter": 0}, "ConfigError", "max_iter: "),
    "exclusion-empty": (
        {"screening": {"outcome_descriptor": "RD", "endpoint_exclusions": [[]]}},
        "ConfigError", "screening.endpoint_exclusions[0]: ",
    ),
    "range-low-offset-above-0": (
        {"ranges": {"renewables_capacity": {"low_offset": 5, "high_offset": 80}}},
        "ParseError", "ranges.renewables_capacity.low_offset: ",
    ),
    "range-low-above-high": (
        {"ranges": {"carbon_price": {"low": 10, "high": 5}}},
        "ParseError", "ranges.carbon_price.low: ",
    ),
}


def _mcda_fixture(edit):
    """The mini study's MCDA input, edited in place by edit."""
    with open(importlib.resources.files("cibpath") / "fixtures" / "mini_mcda.json") as fh:
        doc = json.load(fh)
    edit(doc)
    return doc


def _renamed(old, new):
    """An edit of an MCDA input that renames its pathway old to new."""
    def edit(doc):
        doc["pathways"] = [new if p == old else p for p in doc["pathways"]]
        doc["scores"][new] = doc["scores"].pop(old)
    return edit


#: Edits of the quantify inputs and of the pathway ids, in the same form as
#: BAD_STAGE_INPUTS. The mini MCDA input ranks C3 first and C2 second, and
#: the screen selects C1..C4. A "candidates" document is written as the
#: output directory's candidates.json.
BAD_QUANTIFY_INPUTS = {
    "translation-list": ({"translation": []}, "ParseError", "(root): "),
    "identities-list": ({"identities": []}, "ParseError", "(root): "),
    "identity-without-adjustable": (
        {"identities": {"identities": [
            {"terms": {"carbon_price": 1.0}, "adjustable": [], "equals": 1.0}
        ]}},
        "ParseError", "identities[0].adjustable: ",
    ),
    "identity-equals-its-adjustable-term": (
        {"identities": {"identities": [{
            "terms": {"carbon_price": 1.0, "renewables_capacity": 1.0},
            "adjustable": ["carbon_price"], "equals_dimension": "carbon_price",
        }]}},
        "ParseError", "identities[0].equals_dimension: ",
    ),
    "identity-equals-and-equals-dimension": (
        {"identities": {"identities": [{
            "terms": {"carbon_price": 1.0, "renewables_capacity": 1.0},
            "adjustable": ["carbon_price"], "equals": 150.0, "equals_dimension": "renewables_capacity",
        }]}},
        "ParseError", "identities[0]: ",
    ),
    "identity-without-right-hand-side": (
        {"identities": {"identities": [{
            "terms": {"carbon_price": 1.0, "renewables_capacity": 1.0}, "adjustable": ["carbon_price"],
        }]}},
        "ParseError", "identities[0]: ",
    ),
    "identity-adjusts-an-earlier-identitys-dimension": (
        {"identities": {"identities": [
            {"terms": {"carbon_price": 1.0, "renewables_capacity": 1.0},
             "adjustable": ["carbon_price"], "equals": 300.0},
            {"terms": {"carbon_price": 1.0, "acceptance_index": 1.0},
             "adjustable": ["carbon_price"], "equals": 100.0},
        ]}},
        "ParseError", "identities[1].adjustable: ",
    ),
    "identity-unknown-dimension": (
        {"identities": {"identities": [
            {"terms": {"carbon_price": 1.0, "carbn_price": 1.0}, "adjustable": ["carbon_price"]}
        ]}},
        "ParseError", "identities[0]: ",
    ),
    "range-not-a-number": (
        {"ranges": {"carbon_price": {"relative": "abc"}}},
        "ParseError", "ranges.carbon_price.relative: ",
    ),
    "range-unknown-dimension": (
        {"ranges": {"carbn_price": {"relative": 0.2}}}, "ParseError", "ranges.carbn_price: ",
    ),
    "mcda-weights-sum-1.5": (
        {"mcda_input": _mcda_fixture(lambda d: d["personas"]["policy"].update(feasibility=0.8))},
        "ParseError", "personas.policy: ",
    ),
    "mcda-score-off-scale": (
        {"mcda_input": _mcda_fixture(lambda d: d["scores"]["C1"].update(feasibility=9))},
        "ParseError", "scores.C1.feasibility: ",
    ),
    "mcda-no-personas": (
        {"mcda_input": _mcda_fixture(lambda d: d.update(personas={}))},
        "ParseError", "personas: ",
    ),
    "mcda-duplicate-pathways": (
        {"mcda_input": _mcda_fixture(lambda d: d.update(pathways=["C1", "C2", "C3", "C3"]))},
        "ParseError", "pathways: ",
    ),
    "mcda-top-pathway-not-screened": (
        {"mcda_input": _mcda_fixture(_renamed("C3", "C7"))}, "ConfigError", "pathways[2]: ",
    ),
    "mcda-second-pathway-not-screened": (
        {"mcda_input": _mcda_fixture(_renamed("C2", "C7"))}, "ConfigError", "pathways[1]: ",
    ),
    "selected-pathway-not-screened": (
        {"selected_pathway": "C9"}, "ConfigError", "selected_pathway: ",
    ),
    "mcda-pathway-not-in-candidates-file": (
        {"stages": ["simulate", "mcda", "quantify"], "mcda_input": _mcda_fixture(lambda d: None),
         "candidates": {"candidates": [
            {"id": "C1", "periods": [2025, 2030, 2035, 2040, 2045, 2050], "states": [[0] * 5] * 6}
        ]}},
        "ConfigError", "pathways[1]: ",
    ),
}


def _stage_input_config(small_run, tmp_path, edit):
    """The argv of a pipeline over the mini pipeline config of 300 runs,
    without extremes and edited by edit, written under tmp_path; a check
    that the pipeline wrote no stage output; and the prefix that names the
    file an edit writes ("" for none)."""
    with open(small_run["outcome_empty_extremes_pipeline"]) as fh:
        doc = json.load(fh)
    del doc["extremes"]
    out, file, edit, given = tmp_path / "out", "", dict(edit), []
    if "candidates" in edit:
        given.append("candidates.json")
        out.mkdir()
        (out / "candidates.json").write_text(json.dumps(edit.pop("candidates")))
    for key in ("mcda_input", "translation", "identities"):
        if key in edit:
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(edit[key]))
            edit[key], file = str(path), f"{path}: "
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({**doc, **edit, "output_dir": str(out)}))
    return (["pipeline", "--config", str(config)],
            lambda: not os.path.exists(out) or os.listdir(out) == given, file)


def _refusal(small_run, tmp_path, case, edit):
    """The pipeline's stderr report on _stage_input_config's config, and the
    prefix that names the file an edit writes. The pipeline must exit 3 with
    no stage output written."""
    argv, no_output, file = _stage_input_config(small_run, tmp_path, edit)
    result = invoke(CliRunner(), *argv)
    assert result.exit_code == 3, (case, result.output)
    assert no_output()
    return json.loads(result.stderr), file


@pytest.mark.parametrize("case", BAD_STAGE_INPUTS)
def test_pipeline_checks_screening_and_mcda_inputs_before_any_stage(small_run, tmp_path, case):
    edit, error, node = BAD_STAGE_INPUTS[case]
    report, file = _refusal(small_run, tmp_path, case, edit)
    assert report["error"] == error and report["message"].startswith(file + node), report


@pytest.mark.parametrize("case", BAD_QUANTIFY_INPUTS)
def test_pipeline_checks_quantify_inputs_and_pathway_ids_before_any_stage(
    small_run, tmp_path, case
):
    edit, error, node = BAD_QUANTIFY_INPUTS[case]
    report, file = _refusal(small_run, tmp_path, case, edit)
    assert report["error"] == error and report["message"].startswith(file + node), report


#: The refusals that are also run through the interpreter, as the console
#: script runs them: case ids of FAILURES, BAD_STAGE_INPUTS and
#: BAD_QUANTIFY_INPUTS.
CONSOLE_CASES = [
    "ensemble-state-beyond-int8", "spec-shocks-number", "spec-integer-5000-digits",
    "spec-student-t-df-2", "outcome-unknown-descriptor", "candidate-count-1-without-mcda",
    "range-low-offset-above-0", "translation-list",
]


@pytest.mark.parametrize("case", CONSOLE_CASES)
def test_console_refusal_exits_with_one_json_line(small_run, tmp_path, case):
    """The case run by `python -m cibpath.cli` on the cibpath that the tests
    imported: the interpreter's exit status and its stderr, which CliRunner
    does not see, hold the case's exit code and one JSON line with its error
    and the node it names, with no traceback; a pipeline writes no stage
    output."""
    failures = {c[0]: c[1:] for c in FAILURES}
    if case in failures:
        build, env, code, error = failures[case]
        argv, no_output, named = build(small_run), lambda: True, NAMED_FIELDS.get(case, "")
    else:
        edit, error, node = {**BAD_STAGE_INPUTS, **BAD_QUANTIFY_INPUTS}[case]
        env, code = None, 3
        argv, no_output, file = _stage_input_config(small_run, tmp_path, edit)
        named = file + node
    done = subprocess.run(
        [sys.executable, "-m", "cibpath.cli", *argv], env=child_env(env),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr
    (line,) = done.stderr.splitlines()
    report = json.loads(line)
    assert report["error"] == error and named in report["message"], report
    assert "Traceback" not in done.stdout + done.stderr
    assert no_output()


def test_exclusion_state_label_equals_its_index(small_run, tmp_path):
    documents = []
    for stem in ("label_exclusion_screening", "index_exclusion_screening"):
        out = tmp_path / stem
        result = invoke(CliRunner(), *_screen({**small_run, "out": str(out)}, "4", stem))
        assert result.exit_code == 0, result.output
        documents.append((out / "candidates.json").read_bytes())
    assert documents[0] == documents[1]
    assert json.loads(documents[0])["rejected"]["counts"]["endpoint_inconsistency"] > 0


def test_later_stages_over_a_saved_ensemble_write_the_full_run_digests(fixture_dir, tmp_path):
    """stats, screen, mcda and quantify (with extremes) over the output of a
    full run load its ensemble.jsonl and write the same files."""
    with open(os.path.join(fixture_dir, "mini_pipeline.json")) as fh:
        doc = json.load(fh)
    for key in ("spec", "mcda_input", "translation"):
        doc[key] = os.path.join(fixture_dir, doc[key])
    doc.update(run_count=300, output_dir=str(tmp_path))
    manifests = []
    for stages in (None, ["stats", "screen", "mcda", "quantify"]):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({**doc, "stages": stages} if stages else doc))
        result = invoke(CliRunner(), "pipeline", "--config", str(config))
        assert result.exit_code == 0, result.output
        manifests.append(json.loads(result.output)["stages"])
    full, later = manifests
    assert "extremes" in doc and set(later) == {"stats", "screen", "mcda", "quantify"}
    assert later == {stage: full[stage] for stage in later}


def test_best_outcome_state_label_equals_its_index(small_run, tmp_path):
    digests = []
    for stem in ("best_high_screening", "best_two_screening"):
        out = tmp_path / stem
        result = invoke(CliRunner(), "screen", "--spec", small_run["spec"], "--out", str(out),
                        "--ensemble", small_run["ensemble"], "--config", small_run[stem])
        assert result.exit_code == 0, result.output
        digests.append(hashlib.sha256((out / "candidates.json").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_quantify_extremes_check_the_ensemble_spec(small_run, fixture_dir, tmp_path):
    out = str(tmp_path)
    invoke(CliRunner(), "screen", "--spec", small_run["spec"], "--out", out,
           "--ensemble", small_run["ensemble"], "--config", small_run["screening"])
    extremes = tmp_path / "extremes.json"
    extremes.write_text(json.dumps({"outcome": {"descriptor": "RD"}}))
    result = invoke(
        CliRunner(), "quantify", "--spec", small_run["other_spec"], "--out", out,
        "--candidates", os.path.join(out, "candidates.json"), "--pathway", "C1",
        "--matrix", os.path.join(fixture_dir, "mini_translation.json"),
        "--ensemble", small_run["ensemble"], "--extremes", str(extremes),
    )
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"] == "ConfigError"


def _identity_pipeline(fixture_dir, tmp_path, equals, ranges=None):
    """The argv of the mini pipeline at 200 runs, seed 42, with the identity
    renewables_capacity + carbon_price = equals, adjustable on
    renewables_capacity, and the config's ranges updated by ranges; and its
    output directory. The pathway it quantifies takes renewables_capacity
    250 from 2025 to 2040 and 150 after, and carbon_price 100 and 50."""
    with open(os.path.join(fixture_dir, "mini_pipeline.json")) as fh:
        doc = json.load(fh)
    for key in ("spec", "mcda_input", "translation"):
        doc[key] = os.path.join(fixture_dir, doc[key])
    identities = tmp_path / "identities.json"
    identities.write_text(json.dumps({"identities": [{
        "name": "capacity", "terms": {"renewables_capacity": 1, "carbon_price": 1},
        "adjustable": ["renewables_capacity"], "equals": equals,
    }]}))
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({
        **doc, "run_count": 200, "master_seed": 42, "identities": str(identities),
        "ranges": {**doc["ranges"], **(ranges or {})}, "output_dir": str(tmp_path / "out"),
    }))
    return ["pipeline", "--config", str(config)], tmp_path / "out"


def test_bands_are_drawn_around_the_repaired_values(fixture_dir, tmp_path):
    """The identity moves renewables_capacity from 150 to 250 in 2045 and
    2050, above the band (100, 230) that the offsets give the looked-up
    value: each band is drawn around the repaired central value."""
    argv, out = _identity_pipeline(fixture_dir, tmp_path, 300)
    result = invoke(CliRunner(), *argv)
    assert result.exit_code == 0, result.output
    with open(out / "quantified.json") as fh:
        rows = json.load(fh)["table"]
    repaired = [r for r in rows if r["provenance"].startswith("repair:identity 'capacity': ")]
    assert [r["central"] for r in repaired] == [200.0] * 4 + [250.0] * 2
    banded = [r for r in rows if r["low"] != ""]
    assert len(banded) == 12
    for row in banded:
        assert row["low"] <= row["central"] <= row["high"], row


def test_a_repair_that_would_flip_the_sign_exits_two(fixture_dir, tmp_path):
    """renewables_capacity + carbon_price = 50 with carbon_price 100 would
    scale renewables_capacity by a negative factor; the stages before
    quantify have written their files."""
    argv, out = _identity_pipeline(fixture_dir, tmp_path, 50)
    result = invoke(CliRunner(), *argv)
    assert result.exit_code == 2, result.output
    report = json.loads(result.stderr)
    assert report["error"] == "OutOfRangeError"
    assert report["message"].startswith("identities[0]: identity 'capacity' unrepairable at period ")
    assert not (out / "quantified.csv").exists()


def test_repaired_value_outside_an_absolute_band_exits_two(fixture_dir, tmp_path):
    """The looked-up 250 and 150 lie in (100, 300); the repaired 320 does not."""
    argv, _ = _identity_pipeline(
        fixture_dir, tmp_path, 420, {"renewables_capacity": {"low": 100, "high": 300}}
    )
    result = invoke(CliRunner(), *argv)
    assert result.exit_code == 2, result.output
    report = json.loads(result.stderr)
    assert report["error"] == "OutOfRangeError"
    assert "central value 320 " in report["message"] and "'renewables_capacity'" in report["message"]
