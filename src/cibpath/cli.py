"""Command-line orchestration of the pathway pipeline.

Each stage subcommand reads its inputs and calls the stage function that
``cibpath pipeline`` runs. Exit codes: 0 success, 1 validation error,
2 runtime/infeasibility, 3 configuration error (including unreadable or
mismatched input files). The default worker count can be set via the
CIBPATH_WORKERS environment variable.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

import click

from . import __version__
from .analytics import DEFAULT_CONFIDENCE_LEVEL
from .engine import DEFAULT_ENUMERATION_LIMIT, enumerate_consistent
from .errors import CibError, ConfigError, ParseError, TractabilityError, ValidationFailure
from .mcda import load_mcda_input
from .model import load_study_spec, read_file, read_json, validate_study_spec
from .pipeline import (
    PipelineConfig,
    findings_report,
    load_checked_ensemble,
    load_pipeline_config,
    mcda_stage,
    parse_candidates,
    quantify_stage,
    raise_on_errors,
    read_quantify_inputs,
    resolve_screening,
    run_pipeline,
    screen_stage,
    simulate_stage,
    stats_stage,
)
from .simulate import DEFAULT_MAX_ITER

EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CONFIG = 3


def _worker_count(option: Optional[int], default: int) -> int:
    """--workers if given, else CIBPATH_WORKERS if set, else the default."""
    if option is not None:
        return option
    try:
        return int(os.environ.get("CIBPATH_WORKERS", default))
    except ValueError:
        raise ConfigError(
            f"CIBPATH_WORKERS must be an integer (got {os.environ['CIBPATH_WORKERS']!r})"
        )


def _fail(code: int, error: Exception) -> None:
    report = {"error": type(error).__name__, "message": str(error)}
    click.echo(json.dumps(report), err=True)
    sys.exit(code)


def _guarded(fn):
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ValidationFailure as e:
            _fail(EXIT_VALIDATION, e)
        except (
            ConfigError, ParseError, TractabilityError, json.JSONDecodeError, UnicodeDecodeError,
            OSError,
        ) as e:
            _fail(EXIT_CONFIG, e)
        except CibError as e:
            _fail(EXIT_RUNTIME, e)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _echo(paths: list[str]) -> None:
    for path in paths:
        click.echo(path)


def _spec_and_ensemble(spec_path: str, ensemble_path: Optional[str]):
    spec = load_study_spec(spec_path)
    if ensemble_path is None:
        return spec, None
    return spec, load_checked_ensemble(ensemble_path, spec, spec.digest())


spec_option = click.option(
    "--spec", "spec_path", required=True, type=click.Path(exists=True), help="Study-spec file."
)
out_option = click.option("--out", "out_dir", default="out", help="Output directory.")
seed_option = click.option(
    "--seed", "master_seed", default=PipelineConfig.master_seed, type=int, help="Master seed."
)
level_option = click.option(
    "--level", default=DEFAULT_CONFIDENCE_LEVEL, type=float, help="Interval confidence level."
)


@click.group()
@click.version_option(__version__)
def main():
    """Probabilistic cross-impact balance pathway engine."""


@main.command()
@spec_option
@_guarded
def validate(spec_path):
    """Check a study spec; exit 1 when errors are found."""
    findings = validate_study_spec(load_study_spec(spec_path))
    click.echo(json.dumps(findings_report(findings), indent=2, sort_keys=True))
    raise_on_errors(findings, "see the report above")


@main.command()
@spec_option
@click.option("--limit", default=DEFAULT_ENUMERATION_LIMIT, type=int,
              help="State-space tractability bound.")
@_guarded
def enumerate(spec_path, limit):
    """Exhaustively list all consistent, feasible scenarios (small spaces)."""
    spec = load_study_spec(spec_path)
    scenarios = enumerate_consistent(spec, spec.cim, limit)
    doc = {
        "descriptors": [d.id for d in spec.descriptors],
        "consistent_scenarios": [list(z) for z in scenarios],
        "count": len(scenarios),
    }
    click.echo(json.dumps(doc, indent=2))


@main.command()
@spec_option
@out_option
@seed_option
@click.option("--runs", default=PipelineConfig.run_count, type=int, help="Monte Carlo run count.")
@click.option("--workers", default=None, type=int, help="Worker process count.")
@click.option("--max-iter", default=DEFAULT_MAX_ITER, type=int, help="Succession iteration cap.")
@_guarded
def simulate(spec_path, out_dir, master_seed, runs, workers, max_iter):
    """Simulate the pathway ensemble and write ensemble.jsonl."""
    spec = load_study_spec(spec_path)
    raise_on_errors(validate_study_spec(spec), "run `cibpath validate`")
    workers = _worker_count(workers, PipelineConfig.worker_count)
    _echo(simulate_stage(spec, out_dir, runs, master_seed, max_iter, workers)[0])


@main.command()
@spec_option
@out_option
@level_option
@click.option("--ensemble", "ensemble_path", required=True, type=click.Path(exists=True))
@_guarded
def stats(spec_path, out_dir, level, ensemble_path):
    """Emit per-state ensemble share series with Wilson bands."""
    spec, ensemble = _spec_and_ensemble(spec_path, ensemble_path)
    _echo(stats_stage(ensemble, spec, level, out_dir))


@main.command()
@spec_option
@out_option
@click.option("--ensemble", "ensemble_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help="Screening config JSON (outcome_descriptor, thresholds, ...).")
@click.option("-k", "--candidates", "k", default=PipelineConfig.candidate_count, type=int,
              help="Candidate count.")
@_guarded
def screen(spec_path, out_dir, ensemble_path, config_path, k):
    """Screen pathways for plausibility and select the candidate set."""
    spec, ensemble = _spec_and_ensemble(spec_path, ensemble_path)
    screening = resolve_screening(read_json(config_path), spec)
    _echo(screen_stage(ensemble, spec, screening, k, out_dir)[0])


@main.command()
@out_option
@click.option("--input", "input_path", required=True, type=click.Path(exists=True),
              help="MCDA input file (criteria, persona weights, score matrix).")
@_guarded
def mcda(out_dir, input_path):
    """Rank pathways by persona-weighted additive scores."""
    _echo(mcda_stage(load_mcda_input(input_path), out_dir)[0])


@main.command()
@spec_option
@out_option
@click.option("--candidates", "candidates_path", required=True, type=click.Path(exists=True))
@click.option("--pathway", "pathway_id", required=True, help="Candidate pathway id.")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True),
              help="Translation-matrix file.")
@click.option("--ranges", "ranges_path", default=None, type=click.Path(exists=True))
@click.option("--identities", "identities_path", default=None, type=click.Path(exists=True))
@click.option("--ensemble", "ensemble_path", default=None, type=click.Path(exists=True),
              help="Needed for extreme scenarios.")
@click.option("--extremes", "extremes_path", default=None, type=click.Path(exists=True),
              help="Extreme-scenario axes config JSON.")
@_guarded
def quantify(spec_path, out_dir, candidates_path, pathway_id, matrix_path,
             ranges_path, identities_path, ensemble_path, extremes_path):
    """Translate a selected pathway into a model-ready input table."""
    if extremes_path and not ensemble_path:
        raise ConfigError("--extremes needs the ensemble to draw from (--ensemble)")
    # The ensemble is read only to draw extreme scenarios from.
    spec, ensemble = _spec_and_ensemble(spec_path, extremes_path and ensemble_path)
    pathways = read_file(candidates_path, parse_candidates, spec)
    if pathway_id not in pathways:
        raise ConfigError(f"pathway {pathway_id!r} not in {candidates_path}")
    inputs = read_quantify_inputs(
        spec, matrix_path, read_json(ranges_path) if ranges_path else None, identities_path,
        read_json(extremes_path) if extremes_path else None,
    )
    _echo(quantify_stage(spec, pathway_id, pathways[pathway_id], inputs, out_dir, ensemble))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help="Pipeline config JSON.")
@click.option("--out", "out_dir", default=None, help="Override the output directory.")
@click.option("--workers", default=None, type=int)
@click.option("--runs", default=None, type=int)
@click.option("--seed", default=None, type=int)
@_guarded
def pipeline(config_path, out_dir, workers, runs, seed):
    """Run all enabled stages end to end and write the manifest."""
    cfg = load_pipeline_config(config_path, out_dir)
    cfg.worker_count = _worker_count(workers, cfg.worker_count)
    if runs is not None:
        cfg.run_count = runs
    if seed is not None:
        cfg.master_seed = seed
    manifest = run_pipeline(cfg)
    click.echo(json.dumps(manifest, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
