"""Simple additive weighting over stakeholder-persona criterion weights.

Each pathway is scored once per criterion on a common scale; every persona
contributes a weight vector (non-negative, summing to one); per-persona
weighted totals are averaged into an aggregate value per pathway. Ties are
reported, never silently broken: the lexicographic output order is
presentational only and the deliberative selection stays with the panel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .model import child, read_file


@dataclass(frozen=True)
class Persona:
    id: str
    weights: tuple[tuple[str, float], ...]  # (criterion, weight), in criteria order

    def weight_vector(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.weights)


@dataclass(frozen=True)
class McdaInput:
    """An input that breaks a rule of __post_init__ raises ParseError
    naming its node (scale, scores.<p>.<c>, personas.<id>, ...)."""

    pathways: tuple[str, ...]
    criteria: tuple[str, ...]
    scores: tuple[tuple[float, ...], ...]  # [pathway][criterion]
    personas: tuple[Persona, ...]
    scale: tuple[float, float] = (1.0, 5.0)

    def __post_init__(self) -> None:
        scale = list(self.scale)
        if len(scale) != 2 or not scale[0] < scale[1]:
            raise ParseError("scale", f"expected two numbers, low below high, got {scale}")
        if len(self.pathways) < 2:
            raise ParseError("pathways", f"need at least 2 pathways (got {len(self.pathways)})")
        if len(set(self.pathways)) != len(self.pathways):
            raise ParseError("pathways", "duplicate pathway ids")
        if not self.criteria:
            raise ParseError("criteria", "need at least 1 criterion")
        if not self.personas:
            raise ParseError("personas", "need at least 1 persona")
        lo, hi = scale
        if len(self.scores) != len(self.pathways):
            raise ParseError("scores", "one score row per pathway required")
        for p, row in zip(self.pathways, self.scores):
            if len(row) != len(self.criteria):
                raise ParseError(f"scores.{p}", "one score per criterion required")
            for c, s in zip(self.criteria, row):
                if not lo <= s <= hi:
                    raise ParseError(f"scores.{p}.{c}",
                                     f"score {s:g} outside scale [{lo:g}, {hi:g}]")
        for persona in self.personas:
            path = f"personas.{persona.id}"
            names = tuple(c for c, _ in persona.weights)
            if names != self.criteria:
                missing = [c for c in self.criteria if c not in names]
                raise ParseError(path, f"missing weight for criteria {missing}" if missing
                                 else "weights must follow the criteria order")
            for c, w in persona.weights:
                if w < 0:
                    raise ParseError(f"{path}.{c}", f"negative weight {w:g}")
            total = sum(persona.weight_vector())
            if abs(total - 1.0) > 1e-9:
                raise ParseError(path, f"weights sum to {total:g}, expected 1.0")


@dataclass(frozen=True)
class McdaRanking:
    values: tuple[tuple[str, float], ...]  # (pathway, V_p)
    order: tuple[str, ...]  # descending V_p, ties lexicographic
    per_persona_values: tuple[tuple[str, tuple[tuple[str, float], ...]], ...]
    ties: tuple[tuple[str, ...], ...]  # groups of 2+ pathways with equal V_p

    def value_of(self, pathway: str) -> float:
        return dict(self.values)[pathway]


def rank_pathways(inp: McdaInput) -> McdaRanking:
    """Aggregate value per pathway: per-persona weighted score totals
    averaged across distinct persona weight vectors.

    Personas with bit-identical weight vectors count once in the average,
    so duplicating a persona never moves a value; every persona's own
    total is still reported for audit.
    """
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
    type, or an input that McdaInput refuses raises ParseError naming the
    node."""
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
    return McdaInput(pathways, criteria, tuple(scores), tuple(personas), scale)


def load_mcda_input(path: str) -> McdaInput:
    return read_file(path, parse_mcda_input)


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
