"""Golden-output pin: the mini pipeline (2000 runs, seed 42, one worker)
must keep producing these exact bytes, whether it runs through
``run_pipeline`` or through the CLI subcommands one stage at a time.

A change that moves any digest below changes what cibpath computes; it
must update the digest here and say why.
"""

import hashlib
import importlib.resources
import io
import json
import os

import pytest
from click.testing import CliRunner

import legacy_format
from cibpath.analytics import screen_candidates, select_candidates
from cibpath.cli import main
from cibpath.model import load_study_spec
from cibpath.pipeline import (
    load_checked_ensemble, load_pipeline_config, run_pipeline, screening_config_from,
)

ENSEMBLE_SHA256 = "c8f67ea497a63242be4a2705981b20a97d3754f43b21a558f66fe1f990a8f8e3"
MANIFEST_SHA256 = "4103e179e6822b452f98e7ea671d6dec8f52e3eb4539c4cb9ce822806a70c142"

STAGE_DIGESTS = {
    "validate": {
        "findings.json": "e0c2924b0cf38903b5cc04c6b7491eb4acbcdfb846f4563bd1fe20d4953aff75",
    },
    "simulate": {
        "ensemble.jsonl": ENSEMBLE_SHA256,
    },
    "stats": {
        "shares.csv": "3a74155f4bf41abac289d0b55c1f0332f20c089d50fd978339fdb323539c188f",
        "shares.json": "1e0b8cc0ac3783d2989588e08fb1c86721e953f79717652aae8f3c9322464906",
    },
    "screen": {
        "candidates.json": "f60996f9ca0b205eaec1b1d6d4053601156b7aebbc3731bccc9428fefbc287f4",
    },
    "mcda": {
        "mcda_report.json": "85386d3b3c3bac87cb1f409e8f30b06bfea1054d71561d186926377b00d62d51",
    },
    "quantify": {
        "quantified.csv": "2bf4f501c9ae451db046679dd7950ce84c90058019f017638b201bf4feab2173",
        "quantified.json": "b1719ba578744faaf760a3b26b72ad35367ed05a9c3c139938f7fe74979fc53c",
    },
}


CONFIG_PATH = str(importlib.resources.files("cibpath") / "fixtures" / "mini_pipeline.json")


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """One full pipeline run, shared by every test in this module."""
    out = str(tmp_path_factory.mktemp("golden"))
    cfg = load_pipeline_config(CONFIG_PATH, out)
    assert (cfg.run_count, cfg.master_seed, cfg.worker_count) == (2000, 42, 1)
    return cfg, run_pipeline(cfg)


def test_pipeline_matches_golden_digests(golden_run):
    cfg, manifest = golden_run
    out = cfg.output_dir
    assert sha256_of(os.path.join(out, "ensemble.jsonl")) == ENSEMBLE_SHA256
    assert sha256_of(os.path.join(out, "manifest.json")) == MANIFEST_SHA256
    assert manifest["stages"] == STAGE_DIGESTS
    for files in STAGE_DIGESTS.values():
        for name, digest in files.items():
            assert sha256_of(os.path.join(out, name)) == digest, name


#: The digests of the same two files in the layout that came before the
#: columnar ensemble format, which tests/legacy_format.py renders.
LEGACY_DIGESTS = {
    "ensemble.jsonl": "a2f8a56b9eae033497e0761d6c24bc0df1303e6f53f6c6e4cd98a62e529f8fab",
    "candidates.json": "39e293da8e8a2860c217c2ca41d357b6adec1ed60e8cf28b0d1b4c0cb33a26a2",
}


def test_legacy_layout_of_the_results_keeps_its_digests(golden_run):
    """The ensemble read back from the new file, and the candidates screened
    from it, written in the old layout give the old layout's pinned bytes:
    the new layout changed how the content is written, not the content."""
    cfg, _ = golden_run
    spec = load_study_spec(cfg.spec_path)
    ensemble = load_checked_ensemble(
        os.path.join(cfg.output_dir, "ensemble.jsonl"), spec, spec.digest()
    )
    screened = screen_candidates(ensemble, spec, screening_config_from(cfg.screening))
    best = (cfg.screening["outcome_descriptor"], cfg.screening["best_outcome_state"])
    selected = select_candidates(screened, cfg.candidate_count, best, spec)
    rendered = {}
    for name, write, result in (
        ("ensemble.jsonl", legacy_format.write_ensemble, ensemble),
        ("candidates.json", legacy_format.write_candidates, selected),
    ):
        buf = io.StringIO()
        write(result, buf)
        rendered[name] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert rendered == LEGACY_DIGESTS


def _cli(*args):
    result = CliRunner().invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output.split()


def test_cli_stage_by_stage_matches_pipeline(golden_run, tmp_path):
    """Each subcommand, fed the pipeline config's inputs, writes the same
    bytes as run_pipeline. The 2000-run ensemble is taken from the shared
    pipeline run instead of being simulated a second time."""
    cfg, _ = golden_run
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = str(tmp_path / "out")
    ensemble = os.path.join(cfg.output_dir, "ensemble.jsonl")
    inputs = {}
    for key in ("screening", "ranges", "extremes"):
        inputs[key] = str(tmp_path / f"{key}.json")
        with open(inputs[key], "w", encoding="utf-8") as fh:
            json.dump(doc[key], fh)

    echoed = _cli("stats", "--spec", cfg.spec_path, "--out", out, "--ensemble", ensemble)
    echoed += _cli(
        "screen", "--spec", cfg.spec_path, "--out", out, "--ensemble", ensemble,
        "--config", inputs["screening"], "-k", str(cfg.candidate_count),
    )
    echoed += _cli("mcda", "--out", out, "--input", cfg.mcda_input_path)
    with open(os.path.join(out, "mcda_report.json"), encoding="utf-8") as fh:
        best = json.load(fh)["ranking"][0]
    echoed += _cli(
        "quantify", "--spec", cfg.spec_path, "--out", out,
        "--candidates", os.path.join(out, "candidates.json"), "--pathway", best,
        "--matrix", cfg.translation_path, "--ranges", inputs["ranges"],
        "--ensemble", ensemble, "--extremes", inputs["extremes"],
    )

    expected = {
        name: digest
        for stage, files in STAGE_DIGESTS.items()
        if stage not in ("validate", "simulate")
        for name, digest in files.items()
    }
    assert sorted(os.path.basename(p) for p in echoed) == sorted(expected)
    assert {name: sha256_of(os.path.join(out, name)) for name in expected} == expected


def test_cli_simulate_matches_pipeline(tmp_path):
    """The simulate subcommand writes the same ensemble as the pipeline's
    simulate stage (at 200 runs, to keep the test quick)."""
    cfg = load_pipeline_config(CONFIG_PATH, str(tmp_path / "pipeline"))
    cfg.run_count, cfg.stages = 200, ("simulate",)
    manifest = run_pipeline(cfg)
    out = str(tmp_path / "cli")
    (path,) = _cli(
        "simulate", "--spec", cfg.spec_path, "--out", out,
        "--runs", "200", "--seed", str(cfg.master_seed),
    )
    assert sha256_of(path) == manifest["stages"]["simulate"]["ensemble.jsonl"]


#: quantified.csv and quantified.json for the full-featured quantify run in
#: test_cli_quantify_with_every_option_matches_golden_digests.
QUANTIFY_DIGESTS = {
    "quantified.csv": "a6741aa2ad2f4004b6c97eed4183abbdea0afc96f6557fade9994f74cd8490c2",
    "quantified.json": "bb276eef888115478fae5ac0bd28f1f230068fbf8c9e330d26d844137e46a6e6",
}

#: Translation with plain and per-period values and two extra dimensions
#: that the identities below tie together.
QUANTIFY_TRANSLATION = {
    "dimensions": [
        {"id": "carbon_price", "unit": "EUR/tCO2", "driver": "PS",
         "values": {
             "Low": 50.0,
             "Medium": {"2025": 80.0, "2030": 90.0, "2035": 100.0,
                        "2040": 110.0, "2045": 120.0, "2050": 130.0},
             "High": {"2025": 150.0, "2030": 170.0, "2035": 200.0,
                      "2040": 230.0, "2045": 260.0, "2050": 300.0},
         }},
        {"id": "renewables_capacity", "unit": "GW", "driver": "RD",
         "values": {"Low": 150.0, "Medium": 250.0, "High": 400.0}},
        {"id": "firm_capacity", "unit": "GW", "driver": "GD",
         "values": {"Weak": 100.0, "Moderate": 150.0, "Strong": 200.0}},
        {"id": "total_capacity", "unit": "GW", "driver": "PP",
         "values": {"Slow": 300.0, "Moderate": 450.0, "Fast": 600.0}},
        {"id": "grid_investment_index", "unit": "index", "driver": "GD",
         "values": {"Weak": 0.8, "Moderate": 1.0, "Strong": 1.3}},
        {"id": "acceptance_index", "unit": "index", "driver": "PA",
         "values": {"Low": 0.3, "Medium": 0.6, "High": 0.9}},
    ]
}

#: One range of each form: relative, offsets and absolute.
QUANTIFY_RANGES = {
    "carbon_price": {"relative": 0.2},
    "renewables_capacity": {"low_offset": -50, "high_offset": 80},
    "acceptance_index": {"low": 0.2, "high": 1.0},
}

#: One identity with a constant right-hand side, one with a dimension.
QUANTIFY_IDENTITIES = {
    "identities": [
        {"name": "index-budget",
         "terms": {"grid_investment_index": 1, "acceptance_index": 1},
         "adjustable": ["acceptance_index"], "equals": 1.8},
        {"name": "capacity-balance",
         "terms": {"renewables_capacity": 1, "firm_capacity": 1},
         "adjustable": ["firm_capacity"], "equals_dimension": "total_capacity"},
    ]
}


def test_cli_quantify_with_every_option_matches_golden_digests(golden_run, tmp_path):
    """Quantify C1 of the golden candidates with per-period translation
    values, all three range forms, both identity forms and all three
    extreme-scenario axes."""
    cfg, _ = golden_run
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        extremes = json.load(fh)["extremes"]
    inputs = {}
    for key, doc in (
        ("matrix", QUANTIFY_TRANSLATION), ("ranges", QUANTIFY_RANGES),
        ("identities", QUANTIFY_IDENTITIES), ("extremes", extremes),
    ):
        inputs[key] = str(tmp_path / f"{key}.json")
        with open(inputs[key], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    out = str(tmp_path / "out")
    echoed = _cli(
        "quantify", "--spec", cfg.spec_path, "--out", out,
        "--candidates", os.path.join(cfg.output_dir, "candidates.json"), "--pathway", "C1",
        "--matrix", inputs["matrix"], "--ranges", inputs["ranges"],
        "--identities", inputs["identities"],
        "--ensemble", os.path.join(cfg.output_dir, "ensemble.jsonl"),
        "--extremes", inputs["extremes"],
    )
    assert sorted(os.path.basename(p) for p in echoed) == sorted(QUANTIFY_DIGESTS)
    assert {name: sha256_of(os.path.join(out, name)) for name in QUANTIFY_DIGESTS} == (
        QUANTIFY_DIGESTS
    )
