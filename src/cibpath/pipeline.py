"""File-based pipeline stages and the manifest.

Each stage reads only the declared artifacts of prior stages and writes
plain JSON / delimited-text files, so every inter-stage handoff can be
audited and re-running any stage with identical inputs and seed
reproduces byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import __version__
from .analytics import (
    DEFAULT_CONFIDENCE_LEVEL,
    REASONS,
    ScreeningConfig,
    _wilson_z,
    flat_rows,
    screen_candidates,
    select_candidates,
    state_share_series,
)
from .errors import ConfigError, ParseError, ValidationFailure
from .mcda import McdaInput, McdaRanking, load_mcda_input, rank_pathways, ranking_report
from .model import (
    STATE_REF, Finding, StudySpec, child, compact_json, load_study_spec, read_json,
    resolve_state, validate_study_spec,
)
from .quantify import (
    attach_uncertainty_ranges,
    build_extreme_scenarios,
    enforce_identities,
    load_translation_file,
    parse_identities,
    quantified_table_rows,
    quantify_pathway,
    read_extreme_axes,
)
from .simulate import (
    DEFAULT_MAX_ITER,
    EnsembleResult,
    Pathway,
    ensemble_digest,
    load_ensemble,
    save_ensemble,
    simulate_ensemble,
)

ALL_STAGES = ("validate", "simulate", "stats", "screen", "mcda", "quantify")


@dataclass
class PipelineConfig:
    spec_path: str
    output_dir: str
    run_count: int = 10_000
    master_seed: int = 0
    worker_count: int = 1
    max_iter: int = DEFAULT_MAX_ITER
    confidence_level: float = DEFAULT_CONFIDENCE_LEVEL
    stages: tuple[str, ...] = ALL_STAGES
    screening: Optional[dict] = None
    candidate_count: int = 4
    mcda_input_path: Optional[str] = None
    translation_path: Optional[str] = None
    identities_path: Optional[str] = None
    ranges: Optional[dict] = None
    extremes: Optional[dict] = None
    selected_pathway: Optional[str] = None


#: The JSON type of each optional pipeline config field that is no file.
_CONFIG_KINDS = {
    "run_count": int, "master_seed": int, "worker_count": int, "max_iter": int,
    "confidence_level": float, "candidate_count": int, "screening": dict, "ranges": dict,
    "extremes": dict, "selected_pathway": str,
}


def load_pipeline_config(path: str, output_dir: Optional[str] = None) -> PipelineConfig:
    """The pipeline config at path, its file names resolved against its
    directory; a missing node or one of the wrong JSON type raises
    ConfigError naming it."""
    doc = read_json(path)
    base = os.path.dirname(os.path.abspath(path))

    def file(key: str, *default) -> Optional[str]:
        p = child(doc, key, str, "", *default)
        return p if p is None or os.path.isabs(p) else os.path.join(base, p)

    try:
        cfg = PipelineConfig(
            spec_path=file("spec"),
            output_dir=output_dir or file("output_dir", "out"),
            mcda_input_path=file("mcda_input", None),
            translation_path=file("translation", None),
            identities_path=file("identities", None),
            stages=tuple(child(doc, "stages", [str], "", ALL_STAGES)),
            **{key: child(doc, key, kind, "", getattr(PipelineConfig, key))
               for key, kind in _CONFIG_KINDS.items()},
        )
    except ParseError as e:
        raise ConfigError(f"pipeline config: {e}") from None
    if not cfg.stages:
        raise ConfigError("pipeline config: stages: must name at least one stage")
    for i, stage in enumerate(cfg.stages):
        if stage not in ALL_STAGES:
            raise ConfigError(f"pipeline config: stages[{i}]: unknown stage {stage!r}")
    if cfg.run_count < 1:
        raise ConfigError("run_count must be >= 1")
    return cfg


def _dump_json(doc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


#: Rows that _json_rows renders, and screen_stage writes, at a time.
ROW_CHUNK = 4096


def _cells(texts: list[str]) -> np.ndarray:
    """Each text right-aligned in NUL-padded cells of one common width, a
    multiple of 4 bytes, as one row of uint32 words per text."""
    width = -(-max(map(len, texts), default=0) // 4)
    padded = b"".join(text.encode().rjust(4 * width, b"\0") for text in texts)
    return np.frombuffer(padded, np.uint32).reshape(len(texts), width)


#: "<state>," for each int8 state 0..127 in one word, and the word "]"
_STATE_CELLS = _cells([f"{s}," for s in range(128)]).ravel()
_ROW_END = _cells(["]"])[0, 0]


def _json_rows(labels: list, states: np.ndarray) -> Iterator[bytes]:
    """The [label, flat states] pairs of labels and states (states 0..127),
    comma-separated as compact_json writes them, ROW_CHUNK rows at a time.

    A row is laid out in NUL-padded words: its label's head, one
    _STATE_CELLS word per state, then _ROW_END. A chunk is thus one uint32
    array built by indexing, whose padding one bytes.translate deletes (json
    text holds no NUL byte); no Python list is made per row.
    """
    flat = flat_rows(states)
    n, width = flat.shape
    index = {name: i for i, name in enumerate(dict.fromkeys(labels))}
    heads = _cells([f",[{json.dumps(name)},[" for name in index])
    codes = np.fromiter(map(index.__getitem__, labels), np.intp, n)
    h = heads.shape[1]
    for start in range(0, n, ROW_CHUNK):
        stop = min(start + ROW_CHUNK, n)
        words = np.empty((stop - start, h + width + 1), np.uint32)
        words[:, :h] = heads[codes[start:stop]]
        words[:, h:-1] = _STATE_CELLS.take(flat[start:stop])
        words[:, -1] = _ROW_END
        words.view(np.uint8)[:, 4 * (h + width) - 1] = ord("]")  # the last state's comma
        text = words.tobytes().translate(None, b"\0")
        yield text[1:] if start == 0 else text  # no comma before the first row


def _dump_csv(rows: list[dict], fieldnames: list[str], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _file_digest(path: str) -> str:
    # Both names stay: perfbench calls simulate.ensemble_digest, and its
    # tracer patches this one and keys each stage's timing on it.
    return ensemble_digest(path)


def _artifact(out_dir: str, name: str) -> str:
    """Path of a stage output, creating the output directory."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def findings_report(findings: list[Finding]) -> dict:
    return {
        "errors": [
            {"path": f.path, "message": f.message}
            for f in findings
            if f.severity == "error"
        ],
        "warnings": [
            {"path": f.path, "message": f.message}
            for f in findings
            if f.severity == "warning"
        ],
    }


def raise_on_errors(findings: list[Finding], hint: str) -> None:
    errors = sum(1 for f in findings if f.severity == "error")
    if errors:
        raise ValidationFailure(f"study spec failed validation with {errors} errors; {hint}")


def load_checked_ensemble(path: str, spec: StudySpec, spec_digest: str) -> EnsembleResult:
    """Load an ensemble for a stage, refusing one simulated from another spec
    (spec_digest is the digest of spec) and one whose time grid, descriptor
    count or states do not fit the spec."""
    ensemble = load_ensemble(path)
    if ensemble.spec_digest != spec_digest:
        raise ConfigError(
            f"{path} was simulated from spec {ensemble.spec_digest}, "
            f"not from the spec in use ({spec_digest})"
        )
    width = ensemble.states.shape[2]
    if (ensemble.time_grid, width) != (spec.time_grid, len(spec.descriptors)):
        raise ParseError(f"{path}: header", (
            f"time grid {list(ensemble.time_grid)} and {width} descriptors, but the spec has "
            f"{list(spec.time_grid)} and {len(spec.descriptors)}"
        ))
    misfit = ensemble.states >= np.array(spec.state_counts)
    if misfit.any():
        run, t, j = np.unravel_index(misfit.argmax(), misfit.shape)
        d = spec.descriptors[j]
        raise ParseError(f"{path}: runs[{run}]", (
            f"state {ensemble.states[run, t, j]} is not a state of descriptor {d.id!r} "
            f"({d.state_count} states)"
        ))
    return ensemble


def screening_config_from(doc: dict) -> ScreeningConfig:
    """The screening config doc, whose nodes are named screening.<key>; a
    missing node or one of the wrong JSON type raises ConfigError naming it."""
    try:
        config = ScreeningConfig(
            outcome_descriptor=child(doc, "outcome_descriptor", str, "screening"),
            endpoint_exclusions=tuple(
                tuple(map(tuple, combo))
                for combo in child(doc, "endpoint_exclusions", [[list]], "screening", ())
            ),
            **{key: child(doc, key, kind, "screening", getattr(ScreeningConfig, key))
               for key, kind in (("late_rush_steps", int), ("discontinuity_steps", int),
                                 ("full_vector_backsliding", bool))},
        )
    except ParseError as e:
        raise ConfigError(str(e)) from None
    for key in ("late_rush_steps", "discontinuity_steps"):
        if getattr(config, key) < 1:
            raise ConfigError(f"screening.{key}: must be at least 1")
    return config


# ---------------------------------------------------------------------------
# Stages. Each takes loaded inputs, writes its artifacts into out_dir and
# returns their paths; run_pipeline and the CLI subcommands both call these.


def validate_stage(spec: StudySpec, out_dir: str) -> list[str]:
    """findings.json; raises ValidationFailure, after writing it, on errors."""
    findings = validate_study_spec(spec)
    path = _artifact(out_dir, "findings.json")
    _dump_json(findings_report(findings), path)
    raise_on_errors(findings, f"see {path}")
    return [path]


def simulate_stage(
    spec: StudySpec, out_dir: str, run_count: int, master_seed: int, max_iter: int,
    worker_count: int,
) -> tuple[list[str], EnsembleResult]:
    """ensemble.jsonl, plus the ensemble itself for later stages to reuse."""
    ensemble = simulate_ensemble(spec, run_count, master_seed, max_iter, worker_count)
    path = _artifact(out_dir, "ensemble.jsonl")
    save_ensemble(ensemble, path)
    return [path], ensemble


def stats_stage(
    ensemble: EnsembleResult, spec: StudySpec, level: float, out_dir: str
) -> list[str]:
    """Plot-ready share series: one row per descriptor/period/state."""
    rows = []
    series_doc = {}
    for d in spec.descriptors:
        series = state_share_series(ensemble, spec, d.id, level)
        per_desc = []
        for period, cells in series.cells:
            for state, cell in enumerate(cells):
                point = {
                    "period": period,
                    "state": state,
                    "share": cell.share,
                    "low": cell.low,
                    "high": cell.high,
                }
                per_desc.append(point)
                rows.append({"descriptor": d.id, "label": d.states[state].label, **point})
        series_doc[d.id] = per_desc
    csv_path = _artifact(out_dir, "shares.csv")
    _dump_csv(
        rows, ["descriptor", "period", "state", "label", "share", "low", "high"], csv_path
    )
    json_path = os.path.join(out_dir, "shares.json")
    _dump_json({"confidence_level": level, "series": series_doc}, json_path)
    return [csv_path, json_path]


def screen_stage(
    ensemble: EnsembleResult, spec: StudySpec, screening: dict, candidate_count: int,
    out_dir: str,
) -> tuple[list[str], dict[str, Pathway]]:
    """candidates.json, plus the selected pathways by candidate id for a
    later stage to reuse. The best outcome state is a state label or index
    of the outcome descriptor, its last state when the config gives none;
    any other value raises ConfigError."""
    scfg = screening_config_from(screening)
    outcome = spec.descriptor(scfg.outcome_descriptor, "screening.outcome_descriptor")
    try:
        last = outcome.state_count - 1
        best = child(screening, "best_outcome_state", STATE_REF, "screening", last)
        best_state = resolve_state(outcome, best, "screening.best_outcome_state")
    except ParseError as e:
        raise ConfigError(str(e)) from None
    screened = screen_candidates(ensemble, spec, scfg)
    selected = select_candidates(screened, candidate_count, (outcome.id, best_state), spec)
    rejected = selected.rejected
    candidates = [
        {
            "id": f"C{i + 1}",
            "rationale": c.rationale,
            "terminal_frequency": c.terminal_frequency,
            **c.pathway.to_doc(),
        }
        for i, c in enumerate(selected.candidates)
    ]
    counts = {reason: rejected.labels.count(reason) for reason in REASONS}
    # compact_json of {"candidates", "rejected": {"counts", "periods", "rows"},
    # "warnings"}; rows holds one [reason, flat states] pair per rejected
    # pathway, thousands of them, rendered from the array
    head = (
        '{"candidates":' + compact_json(candidates) + ',"rejected":{"counts":'
        + compact_json(counts) + ',"periods":' + compact_json(list(rejected.periods)) + ',"rows":['
    )
    path = _artifact(out_dir, "candidates.json")
    with open(path, "wb") as fh:
        fh.write(head.encode())
        fh.writelines(_json_rows(rejected.labels, rejected.states))
        fh.write((']},"warnings":' + compact_json(list(selected.warnings)) + "}\n").encode())
    return [path], {f"C{i + 1}": c.pathway for i, c in enumerate(selected.candidates)}


def read_candidates(path: str, spec: StudySpec) -> dict[str, Pathway]:
    """The candidate pathways of a candidates.json, by id. Each must have
    an id no earlier one has, and cover the spec's time grid with one state
    of each descriptor per period; one that does not raises ParseError
    naming candidates[i]."""
    pathways = {}
    entries = child(read_json(path), "candidates", [dict])
    for i, c in enumerate(entries):
        node = f"candidates[{i}]"
        pathway = Pathway.from_doc(c, node)
        pid = child(c, "id", str, node)
        if pid in pathways:
            raise ParseError(node, f"id {pid!r} is also an earlier candidate's")
        pathways[pid] = pathway
        if pathway.periods != spec.time_grid:
            raise ParseError(node, (
                f"periods {list(pathway.periods)}, but the spec's time grid is "
                f"{list(spec.time_grid)}"
            ))
        for period, scenario in pathway.entries:
            if len(scenario) != len(spec.descriptors):
                raise ParseError(node, (
                    f"{len(scenario)} states in {period}, but the spec has "
                    f"{len(spec.descriptors)} descriptors"
                ))
            for d, state in zip(spec.descriptors, scenario):
                if not 0 <= state < d.state_count:
                    raise ParseError(node, (
                        f"state {state!r} in {period} is not a state of descriptor "
                        f"{d.id!r} ({d.state_count} states)"
                    ))
    return pathways


def mcda_stage(inp: McdaInput, out_dir: str) -> tuple[list[str], McdaRanking]:
    """mcda_report.json, plus the ranking, whose top pathway is the default
    one to quantify."""
    ranking = rank_pathways(inp)
    path = _artifact(out_dir, "mcda_report.json")
    _dump_json(ranking_report(inp, ranking), path)
    return [path], ranking


def quantify_stage(
    spec: StudySpec, candidates_path: str, pathway_id: str, translation_path: str,
    out_dir: str, ranges: Optional[dict] = None, identities_path: Optional[str] = None,
    extremes: Optional[dict] = None, ensemble: Optional[EnsembleResult] = None,
    pathways: Optional[dict[str, Pathway]] = None,
) -> list[str]:
    """quantified.csv and quantified.json for one candidate pathway, taken
    from pathways (screen_stage's) when given, else read from
    candidates_path; extreme scenarios are drawn from the ensemble."""
    if pathways is None:
        pathways = read_candidates(candidates_path, spec)
    if pathway_id not in pathways:
        raise ConfigError(f"pathway {pathway_id!r} not in {candidates_path}")
    dims, matrix = load_translation_file(translation_path, spec)
    qp = quantify_pathway(pathways[pathway_id], dims, matrix, spec)
    if ranges:
        qp = attach_uncertainty_ranges(qp, ranges)
    if identities_path:
        qp = enforce_identities(qp, parse_identities(read_json(identities_path)))
    scenarios, warnings = (), ()
    if extremes:
        if ensemble is None:
            raise ConfigError("extreme scenarios need the ensemble")
        scenarios, warnings = build_extreme_scenarios(ensemble, dims, matrix, spec, extremes)

    rows = quantified_table_rows(qp)
    csv_path = _artifact(out_dir, "quantified.csv")
    _dump_csv(
        rows, ["dimension", "unit", "period", "central", "low", "high", "provenance"], csv_path
    )
    bundle = {
        "selected_pathway": pathway_id,
        "dimensions": [
            {"id": d.id, "unit": d.unit, "driver": d.driver} for d in qp.dimensions
        ],
        "table": rows,
        "extreme_scenarios": [
            {
                "label": e.label,
                "axis": e.axis,
                "period": e.period,
                "values": e.values,
            }
            for e in scenarios
        ],
        "warnings": list(warnings),
    }
    json_path = os.path.join(out_dir, "quantified.json")
    _dump_json(bundle, json_path)
    return [csv_path, json_path]


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the enabled stages in order; returns the manifest document.

    A missing stage input or a confidence level outside (0, 1) raises
    ConfigError, and a malformed extremes config ParseError, before any
    stage runs; a spec with validation errors raises ValidationFailure
    after findings.json has been written.
    """
    stages, out = config.stages, config.output_dir
    for stage, field in (
        ("screen", "screening"), ("mcda", "mcda_input_path"), ("quantify", "translation_path")
    ):
        if stage in stages and not getattr(config, field):
            raise ConfigError(f"stages: {stage} stage enabled but {field} is not set")
    if "quantify" in stages and "mcda" not in stages and config.selected_pathway is None:
        raise ConfigError("stages: quantify needs a selected pathway (an mcda stage or override)")
    if "stats" in stages:
        _wilson_z(config.confidence_level)

    spec = load_study_spec(config.spec_path)
    if "quantify" in stages and config.extremes:
        read_extreme_axes(config.extremes, spec)
    manifest: dict = {
        "spec_digest": spec.digest(),
        "master_seed": config.master_seed,
        "run_count": config.run_count,
        "version": __version__,
        "stages": {},
    }

    def record(stage: str, paths: list[str]) -> None:
        manifest["stages"][stage] = {
            os.path.basename(p): _file_digest(p) for p in paths
        }

    ensemble: Optional[EnsembleResult] = None

    def need_ensemble() -> EnsembleResult:
        nonlocal ensemble
        if ensemble is None:
            ensemble = load_checked_ensemble(
                os.path.join(out, "ensemble.jsonl"), spec, manifest["spec_digest"]
            )
        return ensemble

    if "validate" in stages:
        record("validate", validate_stage(spec, out))
    if "simulate" in stages:
        paths, ensemble = simulate_stage(
            spec, out, config.run_count, config.master_seed, config.max_iter,
            config.worker_count,
        )
        record("simulate", paths)
    if "stats" in stages:
        record("stats", stats_stage(need_ensemble(), spec, config.confidence_level, out))
    pathways: Optional[dict[str, Pathway]] = None  # the candidates, when screened here
    if "screen" in stages:
        paths, pathways = screen_stage(
            need_ensemble(), spec, config.screening, config.candidate_count, out
        )
        record("screen", paths)
    selected_id = config.selected_pathway
    if "mcda" in stages:
        paths, ranking = mcda_stage(load_mcda_input(config.mcda_input_path), out)
        record("mcda", paths)
        if selected_id is None:
            selected_id = ranking.order[0]
    if "quantify" in stages:
        record("quantify", quantify_stage(
            spec, os.path.join(out, "candidates.json"), selected_id,
            config.translation_path, out, config.ranges, config.identities_path,
            config.extremes, need_ensemble() if config.extremes else None, pathways,
        ))

    _dump_json(manifest, _artifact(out, "manifest.json"))
    return manifest
