"""Simple additive weighting over stakeholder-persona criterion weights.

Each pathway is scored once per criterion on a common scale; every persona
contributes a weight vector (non-negative, summing to one); per-persona
weighted totals are averaged into an aggregate value per pathway. Ties are
reported, never silently broken: the lexicographic output order is
presentational only and the deliberative selection stays with the panel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, ParseError
from .model import Finding, child, read_json


@dataclass(frozen=True)
class Persona:
    id: str
    weights: tuple[tuple[str, float], ...]  # (criterion, weight), in criteria order

    def weight_vector(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.weights)


@dataclass(frozen=True)
class McdaInput:
    pathways: tuple[str, ...]
    criteria: tuple[str, ...]
    scores: tuple[tuple[float, ...], ...]  # [pathway][criterion]
    personas: tuple[Persona, ...]
    scale: tuple[float, float] = (1.0, 5.0)


@dataclass(frozen=True)
class McdaRanking:
    values: tuple[tuple[str, float], ...]  # (pathway, V_p)
    order: tuple[str, ...]  # descending V_p, ties lexicographic
    per_persona_values: tuple[tuple[str, tuple[tuple[str, float], ...]], ...]
    ties: tuple[tuple[str, ...], ...]  # groups of 2+ pathways with equal V_p

    def value_of(self, pathway: str) -> float:
        return dict(self.values)[pathway]


def validate_mcda_input(inp: McdaInput) -> list[Finding]:
    findings: list[Finding] = []

    def err(path: str, msg: str) -> None:
        findings.append(Finding("error", path, msg))

    if len(inp.pathways) < 2:
        err("pathways", f"need at least 2 pathways (got {len(inp.pathways)})")
    if len(set(inp.pathways)) != len(inp.pathways):
        err("pathways", "duplicate pathway ids")
    if not inp.criteria:
        err("criteria", "need at least 1 criterion")
    if not inp.personas:
        err("personas", "need at least 1 persona")

    lo, hi = inp.scale
    if len(inp.scores) != len(inp.pathways):
        err("scores", "one score row per pathway required")
    for p, row in zip(inp.pathways, inp.scores):
        if len(row) != len(inp.criteria):
            err(f"scores.{p}", "one score per criterion required")
            continue
        for c, s in zip(inp.criteria, row):
            if not lo <= s <= hi:
                err(f"scores.{p}.{c}", f"score {s:g} outside scale [{lo:g}, {hi:g}]")

    for persona in inp.personas:
        path = f"personas.{persona.id}"
        names = tuple(c for c, _ in persona.weights)
        if names != inp.criteria:
            missing = [c for c in inp.criteria if c not in names]
            if missing:
                err(path, f"missing weight for criteria {missing}")
            else:
                err(path, "weights must follow the criteria order")
            continue
        total = 0.0
        for c, w in persona.weights:
            if w < 0:
                err(f"{path}.{c}", f"negative weight {w:g}")
            total += w
        if abs(total - 1.0) > 1e-9:
            err(path, f"weights sum to {total:g}, expected 1.0")
    return findings


def rank_pathways(inp: McdaInput) -> McdaRanking:
    """Aggregate value per pathway: per-persona weighted score totals
    averaged across distinct persona weight vectors.

    Personas with bit-identical weight vectors count once in the average,
    so duplicating a persona never moves a value; every persona's own
    total is still reported for audit.
    """
    findings = [f for f in validate_mcda_input(inp) if f.severity == "error"]
    if findings:
        first = findings[0]
        raise ConfigError(f"invalid MCDA input: {first.path}: {first.message}")

    per_persona = []
    distinct: dict[tuple[float, ...], tuple[float, ...]] = {}
    for persona in inp.personas:
        wv = persona.weight_vector()
        totals = tuple(
            sum(w * s for w, s in zip(wv, row)) for row in inp.scores
        )
        per_persona.append((persona.id, tuple(zip(inp.pathways, totals))))
        distinct.setdefault(wv, totals)
    r = len(distinct)
    values = []
    for pi, pathway in enumerate(inp.pathways):
        # Summing in sorted order makes the mean invariant to persona order.
        contribs = sorted(totals[pi] for totals in distinct.values())
        values.append((pathway, sum(contribs) / r))

    order = tuple(
        p for p, _ in sorted(values, key=lambda pv: (-pv[1], pv[0]))
    )
    by_value: dict[float, list[str]] = {}
    for p, v in values:
        by_value.setdefault(v, []).append(p)
    ties = tuple(
        tuple(sorted(ps)) for v, ps in sorted(by_value.items()) if len(ps) > 1
    )
    return McdaRanking(tuple(values), order, tuple(per_persona), ties)


# ---------------------------------------------------------------------------
# File formats


def parse_mcda_input(doc: dict) -> McdaInput:
    """Read an MCDA input document; a missing node, one of the wrong JSON
    type, or a scale that is not two numbers, low below high, raises
    ParseError naming the node."""
    criteria = tuple(child(doc, "criteria", [str]))
    pathways = tuple(child(doc, "pathways", [str]))
    raw_scores, raw_personas = child(doc, "scores", dict), child(doc, "personas", dict)
    scores = []
    for p in pathways:
        row = child(raw_scores, p, dict, "scores")
        scores.append(tuple(child(row, c, float, f"scores.{p}") for c in criteria))
    personas = []
    for pid in raw_personas:
        weights = child(raw_personas, pid, dict, "personas")
        personas.append(Persona(pid, tuple(
            (c, child(weights, c, float, f"personas.{pid}")) for c in criteria
        )))
    scale = tuple(child(doc, "scale", [float], "", McdaInput.scale))
    if len(scale) != 2 or not scale[0] < scale[1]:
        raise ParseError("scale", f"expected two numbers, low below high, got {list(scale)}")
    return McdaInput(pathways, criteria, tuple(scores), tuple(personas), scale)


def load_mcda_input(path: str) -> McdaInput:
    return parse_mcda_input(read_json(path))


def ranking_report(inp: McdaInput, ranking: McdaRanking) -> dict:
    """Audit-trail document: per-persona values, aggregates, order, ties."""
    return {
        "criteria": list(inp.criteria),
        "personas": {
            pid: {p: v for p, v in totals}
            for pid, totals in ranking.per_persona_values
        },
        "values": {p: v for p, v in ranking.values},
        "ranking": list(ranking.order),
        "ties": [list(g) for g in ranking.ties],
    }
