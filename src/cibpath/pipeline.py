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
import re
from dataclasses import dataclass
from typing import Optional

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
    STATE_REF, Finding, StudySpec, child, compact_json, json_rows, load_study_spec, read_file,
    read_json, resolve_state, validate_study_spec,
)
from .quantify import (
    QuantifyInputs,
    attach_uncertainty_ranges,
    build_extreme_scenarios,
    enforce_identities,
    load_translation_file,
    parse_identities,
    quantified_table_rows,
    quantify_pathway,
    read_extreme_axes,
    read_ranges,
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
    return cfg


def _dump_json(doc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


#: Rejected rows that screen_stage renders and writes at a time.
ROW_CHUNK = 4096


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
        f"{severity}s": [
            {"path": f.path, "message": f.message} for f in findings if f.severity == severity
        ]
        for severity in ("error", "warning")
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


def resolve_screening(doc: dict, spec: StudySpec) -> ScreeningConfig:
    """The screening config doc, whose nodes are named screening.<key>, by
    position in spec; its best outcome state is the outcome descriptor's last
    when doc gives none. A missing node, one of the wrong JSON type, a step
    count below 1, an empty endpoint exclusion or a bad best outcome state
    raises ConfigError naming it; an unknown outcome descriptor,
    SpecReferenceError, and a bad exclusion pair, resolve_pair's error."""
    try:
        outcome_id = child(doc, "outcome_descriptor", str, "screening")
        combos = child(doc, "endpoint_exclusions", [[list]], "screening", ())
        rules = {key: child(doc, key, kind, "screening", getattr(ScreeningConfig, key))
                 for key, kind in (("late_rush_steps", int), ("discontinuity_steps", int),
                                   ("full_vector_backsliding", bool))}
    except ParseError as e:
        raise ConfigError(str(e)) from None
    for key in ("late_rush_steps", "discontinuity_steps"):
        if rules[key] < 1:
            raise ConfigError(f"screening.{key}: must be at least 1")
    if [] in combos:
        raise ConfigError(f"screening.endpoint_exclusions[{combos.index([])}]: empty: "
                          "it excludes every pathway")
    outcome = spec.index_of(outcome_id, "screening.outcome_descriptor")
    desc = spec.descriptors[outcome]
    try:
        best = child(doc, "best_outcome_state", STATE_REF, "screening", desc.state_count - 1)
        best_state = resolve_state(desc, best, "screening.best_outcome_state")
    except ParseError as e:
        raise ConfigError(str(e)) from None
    exclusions = tuple(tuple(spec.resolve_pair(pair, f"screening.endpoint_exclusions[{i}][{k}]")
                             for k, pair in enumerate(combo)) for i, combo in enumerate(combos))
    return ScreeningConfig(outcome, best_state, endpoint_exclusions=exclusions, **rules)


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
                point = {"period": period, "state": state, **vars(cell)}
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
    ensemble: EnsembleResult, spec: StudySpec, screening: ScreeningConfig, candidate_count: int,
    out_dir: str,
) -> tuple[list[str], dict[str, Pathway]]:
    """candidates.json, plus the selected pathways by candidate id (C1..Ck)
    for a later stage to reuse."""
    screened = screen_candidates(ensemble, spec, screening)
    selected = select_candidates(screened, candidate_count, screening)
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
    counts = dict(zip(REASONS, np.bincount(rejected.labels, minlength=len(REASONS)).tolist()))
    # compact_json of {"candidates", "rejected": {"counts", "periods", "rows"},
    # "warnings"}; rows holds one [reason, flat states] pair per rejected
    # pathway, thousands of them, rendered from the array
    head = (
        '{"candidates":' + compact_json(candidates) + ',"rejected":{"counts":'
        + compact_json(counts) + ',"periods":' + compact_json(list(rejected.periods)) + ',"rows":['
    )
    rows = flat_rows(rejected.states)
    heads = [f",[{json.dumps(reason)},[".encode() for reason in REASONS]
    path = _artifact(out_dir, "candidates.json")
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for start in range(0, len(rows), ROW_CHUNK):
            chunk = slice(start, start + ROW_CHUNK)
            text = json_rows(rows[chunk], heads, rejected.labels[chunk], b"]]")
            fh.write(text[1:] if start == 0 else text)  # no comma before the first row
        fh.write((']},"warnings":' + compact_json(list(selected.warnings)) + "}\n").encode())
    return [path], {f"C{i + 1}": c.pathway for i, c in enumerate(selected.candidates)}


def parse_candidates(doc: dict, spec: StudySpec) -> dict[str, Pathway]:
    """The candidate pathways of a candidates.json document, by id. Each
    must have an id no earlier one has, and cover the spec's time grid with
    one state of each descriptor per period; one that does not raises
    ParseError naming candidates[i]."""
    pathways = {}
    entries = child(doc, "candidates", [dict])
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


def read_quantify_inputs(
    spec: StudySpec, translation_path: str, ranges: Optional[dict],
    identities_path: Optional[str], extremes: Optional[dict],
) -> QuantifyInputs:
    """The translation file at translation_path, with the range spec, the
    identities file and the extremes config over it, each optional (None);
    a bad node raises ParseError naming it, after its file's path for a
    file."""
    dims, matrix = load_translation_file(translation_path, spec)
    return QuantifyInputs(
        dims, matrix, read_ranges({} if ranges is None else ranges, dims),
        read_file(identities_path, parse_identities, dims) if identities_path else (),
        None if extremes is None else read_extreme_axes(extremes, spec),
    )


def quantify_stage(
    spec: StudySpec, pathway_id: str, pathway: Pathway, inputs: QuantifyInputs, out_dir: str,
    ensemble: Optional[EnsembleResult],
) -> list[str]:
    """quantified.csv and quantified.json for the candidate pathway_id,
    whose pathway is pathway: each cell is looked up, repaired by the
    identities and then given its band. Extreme scenarios, when inputs has
    axes, are drawn from the ensemble (None when it has none)."""
    dims, matrix = inputs.dimensions, inputs.matrix
    qp = quantify_pathway(pathway, dims, matrix, spec)
    qp = attach_uncertainty_ranges(enforce_identities(qp, inputs.identities), inputs.ranges)
    scenarios, warnings = (), ()
    if inputs.extremes is not None:
        scenarios, warnings = build_extreme_scenarios(ensemble, dims, matrix, spec, inputs.extremes)

    rows = quantified_table_rows(qp)
    csv_path = _artifact(out_dir, "quantified.csv")
    _dump_csv(
        rows, ["dimension", "unit", "period", "central", "low", "high", "provenance"], csv_path
    )
    bundle = {
        "selected_pathway": pathway_id,
        "dimensions": [vars(d) for d in qp.dimensions],
        "table": rows,
        "extreme_scenarios": [vars(e) for e in scenarios],
        "warnings": list(warnings),
    }
    json_path = os.path.join(out_dir, "quantified.json")
    _dump_json(bundle, json_path)
    return [csv_path, json_path]


def _screened_id(pid: str, k: int) -> bool:
    """Whether pid is one of screen_stage's candidate ids C1..Ck."""
    n = re.fullmatch(r"C([1-9][0-9]*)", pid)
    return n is not None and len(n[1]) <= len(str(k)) and int(n[1]) <= k


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the enabled stages in order; returns the manifest document.

    Before any stage runs, each input of the enabled stages is read and
    checked once: the counts, the confidence level, the spec, the screening
    config, the MCDA input, the quantify inputs (read_quantify_inputs),
    candidates.json if quantify runs without screen, and ensemble.jsonl if
    stats, screen or extremes need it and simulate does not run; the MCDA
    pathways and selected_pathway must be candidates (C1..Ck if screen
    runs). A bad one raises ConfigError or ParseError naming its node, after
    its file's path for a file. A spec with validation errors raises
    ValidationFailure: after the validate stage writes findings.json, or
    before any stage when simulate runs without it.
    """
    stages, out = config.stages, config.output_dir
    for stage, field in (
        ("screen", "screening"), ("mcda", "mcda_input_path"), ("quantify", "translation_path")
    ):
        if stage in stages and not getattr(config, field):
            raise ConfigError(f"stages: {stage} stage enabled but {field} is not set")
    if "quantify" in stages and "mcda" not in stages and config.selected_pathway is None:
        raise ConfigError("stages: quantify needs a selected pathway (an mcda stage or override)")
    for needed, field, least in (
        (True, "run_count", 1), ("screen" in stages, "candidate_count", 2),
        ("simulate" in stages, "worker_count", 1), ("simulate" in stages, "max_iter", 1),
    ):
        if needed and getattr(config, field) < least:
            raise ConfigError(f"{field}: must be >= {least} (got {getattr(config, field)})")
    if "stats" in stages:
        _wilson_z(config.confidence_level)

    spec = load_study_spec(config.spec_path)
    if "simulate" in stages and "validate" not in stages:
        raise_on_errors(validate_study_spec(spec), "run `cibpath validate`")
    screening = resolve_screening(config.screening, spec) if "screen" in stages else None
    mcda_input = load_mcda_input(config.mcda_input_path) if "mcda" in stages else None
    quantify_inputs: Optional[QuantifyInputs] = None
    pathways: Optional[dict[str, Pathway]] = None  # the candidates by id, once known
    candidates = os.path.join(out, "candidates.json")
    if "quantify" in stages:
        quantify_inputs = read_quantify_inputs(
            spec, config.translation_path, config.ranges, config.identities_path, config.extremes
        )
        if "screen" not in stages:
            pathways = read_file(candidates, parse_candidates, spec)
    if screening or pathways is not None:
        k, ranked = config.candidate_count, mcda_input.pathways if mcda_input else ()
        refs = [(f"{config.mcda_input_path}: pathways[{i}]", p) for i, p in enumerate(ranked)]
        for node, pid in [("selected_pathway", config.selected_pathway), *refs]:
            if pid is not None and not (_screened_id(pid, k) if screening else pid in pathways):
                among = f"C1..C{k}, candidate_count" if screening else candidates
                raise ConfigError(f"{node}: pathway {pid!r} is not a candidate ({among})")
    manifest: dict = {
        "spec_digest": spec.digest(),
        "master_seed": config.master_seed,
        "run_count": config.run_count,
        "version": __version__,
        "stages": {},
    }
    ensemble: Optional[EnsembleResult] = None
    if "simulate" not in stages and (
        "stats" in stages or "screen" in stages
        or quantify_inputs is not None and quantify_inputs.extremes is not None
    ):
        ensemble = load_checked_ensemble(
            os.path.join(out, "ensemble.jsonl"), spec, manifest["spec_digest"]
        )

    def record(stage: str, paths: list[str]) -> None:
        manifest["stages"][stage] = {
            os.path.basename(p): _file_digest(p) for p in paths
        }

    if "validate" in stages:
        record("validate", validate_stage(spec, out))
    if "simulate" in stages:
        paths, ensemble = simulate_stage(
            spec, out, config.run_count, config.master_seed, config.max_iter,
            config.worker_count,
        )
        record("simulate", paths)
    if "stats" in stages:
        record("stats", stats_stage(ensemble, spec, config.confidence_level, out))
    if "screen" in stages:
        paths, pathways = screen_stage(ensemble, spec, screening, config.candidate_count, out)
        record("screen", paths)
    selected_id = config.selected_pathway
    if "mcda" in stages:
        paths, ranking = mcda_stage(mcda_input, out)
        record("mcda", paths)
        if selected_id is None:
            selected_id = ranking.order[0]
    if "quantify" in stages:
        record("quantify", quantify_stage(
            spec, selected_id, pathways[selected_id], quantify_inputs, out, ensemble
        ))

    _dump_json(manifest, _artifact(out, "manifest.json"))
    return manifest
