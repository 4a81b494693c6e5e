"""Study specification: domain types, parsing, validation, and serialization.

The study spec is the single artefact every downstream stage consumes. It is
parsed from a JSON document (see ``parse_study_spec``), is immutable after
construction, and is safe to share read-only across parallel workers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Optional

import numpy as np

from .errors import OutOfRangeError, ParseError, SpecReferenceError

SCORE_MIN = -3.0
SCORE_MAX = 3.0

#: Default confidence -> sigma mapping: linear between the elicitation anchors
#: sigma=1.5 at confidence 1 and sigma=0.2 at confidence 5.
DEFAULT_CONFIDENCE_SIGMA = (1.5, 1.175, 0.85, 0.525, 0.2)

DESCRIPTOR_KINDS = ("endogenous", "exogenous", "cyclic")


@dataclass(frozen=True)
class StateDef:
    index: int
    label: str
    definition: str = ""


@dataclass(frozen=True)
class CyclicParams:
    """Between-period transition law of a cyclic descriptor.

    stay/step/step2 are probabilities summing to 1; drift in [-1, 1] biases
    the move direction (P(up) = (1 + drift) / 2).
    """

    stay: float
    step: float
    step2: float
    drift: float = 0.0


@dataclass(frozen=True)
class Descriptor:
    id: str
    name: str
    states: tuple[StateDef, ...]
    kind: str = "endogenous"
    cyclic_params: Optional[CyclicParams] = None

    @property
    def state_count(self) -> int:
        return len(self.states)

    def state_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.states)


@dataclass(frozen=True, eq=False, repr=False)
class CrossImpactMatrix:
    """Dense judgement storage over all ordered pairs of distinct descriptors.

    Scores and confidences live in numpy arrays of shape
    (D, S_max, D, S_max); entries outside a descriptor's state range and on
    the source == target diagonal are structurally zero and masked out.
    """

    descriptor_ids: tuple[str, ...]
    state_counts: tuple[int, ...]
    scores: np.ndarray
    confidences: np.ndarray

    @classmethod
    def zeros(
        cls, descriptor_ids: tuple[str, ...], state_counts: tuple[int, ...]
    ) -> "CrossImpactMatrix":
        d = len(descriptor_ids)
        s = max(state_counts) if state_counts else 0
        return cls(
            descriptor_ids,
            state_counts,
            np.zeros((d, s, d, s)),
            np.full((d, s, d, s), 3, dtype=np.int64),
        )

    @cached_property
    def valid_mask(self) -> np.ndarray:
        """Boolean mask of structurally meaningful cells."""
        src_ok = np.arange(self.scores.shape[1]) < np.array(self.state_counts)[:, None]
        mask = src_ok[:, :, None, None] & src_ok[None, None, :, :]
        mask &= ~np.eye(len(self.descriptor_ids), dtype=bool)[:, None, :, None]
        return mask

    def with_scores(self, scores: np.ndarray) -> "CrossImpactMatrix":
        """New matrix sharing structure, confidences and the valid mask,
        with replaced scores."""
        out = CrossImpactMatrix(self.descriptor_ids, self.state_counts, scores, self.confidences)
        out.__dict__["valid_mask"] = self.valid_mask
        return out

    def iter_cells(self) -> Iterator[tuple[int, int, int, int]]:
        """(src, src_state, tgt, tgt_state) of every structural cell, in
        row-major order."""
        return map(tuple, np.argwhere(self.valid_mask).tolist())

    def cell_path(self, i, si, j, tj) -> str:
        """The cell's node in messages: cim[source:state->target:state]."""
        return f"cim[{self.descriptor_ids[i]}:{si}->{self.descriptor_ids[j]}:{tj}]"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrossImpactMatrix):
            return NotImplemented
        return (
            self.descriptor_ids == other.descriptor_ids
            and self.state_counts == other.state_counts
            and np.array_equal(self.scores, other.scores)
            and np.array_equal(self.confidences, other.confidences)
        )

    def __repr__(self) -> str:
        return (
            f"CrossImpactMatrix({len(self.descriptor_ids)} descriptors, "
            f"states={self.state_counts})"
        )


@dataclass(frozen=True)
class DomainRules:
    #: ((descriptor id, state index), (descriptor id, state index)) pairs that
    #: may never co-occur in a realised scenario.
    forbidden_pairs: tuple[tuple[tuple[str, int], tuple[str, int]], ...] = ()
    #: (antecedent, consequent) pairs: when the antecedent state holds, the
    #: consequent descriptor is forced to its consequent state.
    implications: tuple[tuple[tuple[str, int], tuple[str, int]], ...] = ()


@dataclass(frozen=True)
class ThresholdEffect:
    source: str
    source_state: int
    target: str
    target_state: int
    delta: float


@dataclass(frozen=True)
class ThresholdRule:
    conditions: tuple[tuple[str, int], ...]
    effect: ThresholdEffect


@dataclass(frozen=True)
class Distribution:
    kind: str  # "gaussian" | "student_t"
    df: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "student_t"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "student_t" and (self.df is None or self.df < 1):
            raise ValueError("student_t distribution requires a positive df")


GAUSSIAN = Distribution("gaussian")


@dataclass(frozen=True)
class StructuralShockConfig:
    enabled: bool = False
    scale: float = 0.0
    distribution: Distribution = GAUSSIAN


@dataclass(frozen=True)
class DynamicShockConfig:
    enabled: bool = False
    long_run_sd: float = 0.0
    persistence: float = 0.0
    distribution: Distribution = GAUSSIAN


@dataclass(frozen=True)
class ShockConfig:
    structural: StructuralShockConfig = StructuralShockConfig()
    dynamic: DynamicShockConfig = DynamicShockConfig()


@dataclass(frozen=True)
class UncertaintyConfig:
    """Confidence-coded sampling scales and their growth over the horizon."""

    #: sigma for confidence codes 1..5, in code order.
    confidence_sigma: tuple[float, float, float, float, float] = DEFAULT_CONFIDENCE_SIGMA
    #: (period, multiplicative factor) pairs covering the full time grid.
    time_scale: tuple[tuple[int, float], ...] = ()
    sampling_distribution: Distribution = GAUSSIAN
    resample: str = "per_period"  # "per_run" | "per_period"


@dataclass(frozen=True)
class SpecKernel:
    """A spec's structure and rules as index tuples, compiled once per spec
    for the succession and consistency loops.

    Descriptor ids are resolved to positions; every tuple follows the
    order of the spec's own lists, so rule application order is unchanged.
    """

    ids: tuple[str, ...]
    state_counts: tuple[int, ...]
    #: Source positions 0..D-1, the first index of the impact-score gather.
    sources: np.ndarray
    #: The (descriptor, state) slots of a score array past each descriptor's
    #: states, as a (D, max state count) mask, or None when there are none.
    padded: Optional[np.ndarray]
    #: Per descriptor: (blocked state, other position, other state) for every
    #: forbidden pair naming the descriptor.
    blocks: tuple[tuple[tuple[int, int, int], ...], ...]
    #: (position, state, position, state) per forbidden pair.
    forbidden: tuple[tuple[int, int, int, int], ...]
    #: (antecedent position, state, consequent position, state).
    implications: tuple[tuple[int, int, int, int], ...]
    #: (conditions as (position, state) pairs,
    #:  (source, source state, target, target state, delta)).
    thresholds: tuple[
        tuple[tuple[tuple[int, int], ...], tuple[int, int, int, int, float]], ...
    ]

    @classmethod
    def compile(cls, spec: "StudySpec") -> "SpecKernel":
        at = spec.index_of

        def pair(p: tuple[str, int]) -> tuple[int, int]:
            return at(p[0]), p[1]

        forbidden = tuple(pair(a) + pair(b) for a, b in spec.rules.forbidden_pairs)
        blocks: list[list[tuple[int, int, int]]] = [[] for _ in spec.descriptors]
        for ai, a_s, bi, b_s in forbidden:
            blocks[ai].append((a_s, bi, b_s))
            blocks[bi].append((b_s, ai, a_s))
        counts = spec.state_counts
        padded = np.arange(max(counts, default=0)) >= np.array(counts)[:, None]
        return cls(
            ids=tuple(d.id for d in spec.descriptors),
            state_counts=counts,
            sources=np.arange(len(spec.descriptors)),
            padded=padded if padded.any() else None,
            blocks=tuple(tuple(b) for b in blocks),
            forbidden=forbidden,
            implications=tuple(pair(a) + pair(c) for a, c in spec.rules.implications),
            thresholds=tuple(
                (
                    tuple(pair(c) for c in r.conditions),
                    (
                        at(r.effect.source), r.effect.source_state,
                        at(r.effect.target), r.effect.target_state, r.effect.delta,
                    ),
                )
                for r in spec.threshold_rules
            ),
        )


@dataclass(frozen=True)
class StudySpec:
    descriptors: tuple[Descriptor, ...]
    cim: CrossImpactMatrix
    baseline: tuple[int, ...]
    rules: DomainRules = DomainRules()
    threshold_rules: tuple[ThresholdRule, ...] = ()
    shocks: ShockConfig = ShockConfig()
    uncertainty: UncertaintyConfig = UncertaintyConfig()
    time_grid: tuple[int, ...] = ()
    _index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {d.id: i for i, d in enumerate(self.descriptors)}
        )

    def index_of(self, descriptor_id: str) -> int:
        try:
            return self._index[descriptor_id]
        except KeyError:
            raise SpecReferenceError("descriptors", f"unknown descriptor {descriptor_id!r}")

    def descriptor(self, descriptor_id: str) -> Descriptor:
        return self.descriptors[self.index_of(descriptor_id)]

    @cached_property
    def kernel(self) -> SpecKernel:
        """The compiled index form, built on first use; an unknown
        descriptor id in a rule raises SpecReferenceError then."""
        return SpecKernel.compile(self)

    @cached_property
    def sigma_tables(self) -> dict[int, np.ndarray]:
        """Per period of the time scale, every cell's sampling scale, built
        on first use: the confidence_sigma of its confidence code times the
        period's factor, 0.0 outside valid_mask. A valid cell's code outside
        1..5 raises OutOfRangeError. The tables are read-only."""
        unc, cim = self.uncertainty, self.cim
        bad = np.argwhere(cim.valid_mask & ((cim.confidences < 1) | (cim.confidences > 5)))
        if len(bad):
            raise OutOfRangeError(
                f"{cim.cell_path(*bad[0])}: confidence {cim.confidences[tuple(bad[0])]} outside 1..5"
            )
        codes = np.where(cim.valid_mask, cim.confidences, 0)
        tables = {}
        for period, factor in unc.time_scale:
            by_code = np.array([0.0] + [sigma * factor for sigma in unc.confidence_sigma])
            tables[period] = by_code[codes]
            tables[period].flags.writeable = False
        return tables

    @property
    def state_counts(self) -> tuple[int, ...]:
        return tuple(d.state_count for d in self.descriptors)

    @property
    def cyclic_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.descriptors) if d.kind == "cyclic")

    def resolve_pair(self, raw: Any, path: str) -> tuple[str, int]:
        """A [descriptor id, state label or index] pair as (id, state index),
        or ParseError / SpecReferenceError naming path."""
        return _parse_pair(raw, self.descriptors, self._index, path)

    def digest(self) -> str:
        """Content hash of the canonical serialized form."""
        return hashlib.sha256(compact_json(serialize_study_spec(self)).encode()).hexdigest()


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning"
    path: str
    message: str


# ---------------------------------------------------------------------------
# JSON files and parsing


def read_json(path: str) -> Any:
    """The JSON document in the UTF-8 file at path."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compact_json(doc: Any) -> str:
    """The canonical text of a JSON document: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def is_json(value: Any, kind: type) -> bool:
    """Whether value holds the JSON type kind stands for: int an integer,
    float any number, bool true or false, and other types themselves. A
    boolean is no number here."""
    return type(value) is kind or (kind is float and type(value) is int)


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise ParseError(f"{path}.{key}" if path else key, "missing required key")
    return doc[key]


def _parse_distribution(value: Any, path: str) -> Distribution:
    if value is None:
        return GAUSSIAN
    if isinstance(value, str):
        if value == "gaussian":
            return GAUSSIAN
        raise ParseError(path, f"unknown distribution {value!r}")
    if isinstance(value, dict):
        kind = _require(value, "kind", path)
        if kind == "gaussian":
            return GAUSSIAN
        if kind == "student_t":
            df = _require(value, "df", path)
            if not isinstance(df, int) or df < 1:
                raise ParseError(f"{path}.df", "df must be a positive integer")
            return Distribution("student_t", df)
        raise ParseError(f"{path}.kind", f"unknown distribution kind {kind!r}")
    raise ParseError(path, "distribution must be a string or object")


def resolve_state(desc: Descriptor, ref: Any, path: str) -> int:
    """Normalize a state reference (label or index) to a state index."""
    if isinstance(ref, bool):
        raise SpecReferenceError(path, f"invalid state reference {ref!r}")
    if isinstance(ref, int):
        if 0 <= ref < desc.state_count:
            return ref
        raise SpecReferenceError(
            path, f"state index {ref} outside 0..{desc.state_count - 1} of {desc.id!r}"
        )
    if isinstance(ref, str):
        for s in desc.states:
            if s.label == ref:
                return s.index
        raise SpecReferenceError(path, f"unknown state {ref!r} of descriptor {desc.id!r}")
    raise SpecReferenceError(path, f"invalid state reference {ref!r}")


def _parse_descriptor(doc: dict, pos: int) -> Descriptor:
    path = f"descriptors[{pos}]"
    did = _require(doc, "id", path)
    if not isinstance(did, str) or not did:
        raise ParseError(f"{path}.id", "id must be a non-empty string")
    name = doc.get("name", did)
    kind = doc.get("kind", "endogenous")
    if kind not in DESCRIPTOR_KINDS:
        raise ParseError(f"{path}.kind", f"kind must be one of {DESCRIPTOR_KINDS}")
    raw_states = _require(doc, "states", path)
    if not isinstance(raw_states, list) or not raw_states:
        raise ParseError(f"{path}.states", "states must be a non-empty list")
    states = []
    for i, s in enumerate(raw_states):
        spath = f"{path}.states[{i}]"
        if isinstance(s, str):
            states.append(StateDef(i, s))
        elif isinstance(s, dict):
            label = _require(s, "label", spath)
            states.append(StateDef(i, label, s.get("definition", "")))
        else:
            raise ParseError(spath, "state must be a label string or object")
    cyclic = None
    if kind == "cyclic":
        raw = _require(doc, "cyclic", path)
        cpath = f"{path}.cyclic"
        cyclic = CyclicParams(
            stay=float(_require(raw, "stay", cpath)),
            step=float(_require(raw, "step", cpath)),
            step2=float(_require(raw, "step2", cpath)),
            drift=float(raw.get("drift", 0.0)),
        )
    elif "cyclic" in doc:
        raise ParseError(f"{path}.cyclic", "cyclic parameters on a non-cyclic descriptor")
    return Descriptor(did, name, tuple(states), kind, cyclic)


def _parse_cim(
    records: Any, descriptors: tuple[Descriptor, ...], index: dict
) -> CrossImpactMatrix:
    if not isinstance(records, list):
        raise ParseError("cim", "cim must be a flat list of cell records")
    ids = tuple(d.id for d in descriptors)
    counts = tuple(d.state_count for d in descriptors)
    cim = CrossImpactMatrix.zeros(ids, counts)
    seen = np.zeros_like(cim.scores, dtype=bool)
    for pos, rec in enumerate(records):
        path = f"cim[{pos}]"
        src_id = _require(rec, "source", path)
        tgt_id = _require(rec, "target", path)
        for ref, label in ((src_id, "source"), (tgt_id, "target")):
            if ref not in index:
                raise SpecReferenceError(f"{path}.{label}", f"unknown descriptor {ref!r}")
        i, j = index[src_id], index[tgt_id]
        if i == j:
            raise ParseError(path, f"self-impact cell for descriptor {src_id!r}")
        si = resolve_state(descriptors[i], _require(rec, "source_state", path), f"{path}.source_state")
        tj = resolve_state(descriptors[j], _require(rec, "target_state", path), f"{path}.target_state")
        score = _require(rec, "score", path)
        if not isinstance(score, (int, float)) or isinstance(score, bool):
            raise ParseError(f"{path}.score", "score must be a number")
        if not SCORE_MIN <= float(score) <= SCORE_MAX:
            raise ParseError(
                f"{path}.score", f"score {score} outside [{SCORE_MIN:g}, {SCORE_MAX:g}]"
            )
        conf = _require(rec, "confidence", path)
        if not isinstance(conf, int) or isinstance(conf, bool) or not 1 <= conf <= 5:
            raise ParseError(f"{path}.confidence", "confidence must be an integer in 1..5")
        if seen[i, si, j, tj]:
            raise ParseError(path, "duplicate cell")
        seen[i, si, j, tj] = True
        cim.scores[i, si, j, tj] = float(score)
        cim.confidences[i, si, j, tj] = conf
    missing = cim.valid_mask & ~seen
    if missing.any():
        i, si, j, tj = (int(x) for x in np.argwhere(missing)[0])
        raise ParseError(
            "cim",
            f"missing cell ({ids[i]!r}, state {si}) -> ({ids[j]!r}, state {tj})",
        )
    return cim


def _parse_pair(raw: Any, descriptors: tuple[Descriptor, ...], index: dict, path: str) -> tuple[str, int]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ParseError(path, "expected a [descriptor, state] pair")
    did, state = raw
    if did not in index:
        raise SpecReferenceError(path, f"unknown descriptor {did!r}")
    return did, resolve_state(descriptors[index[did]], state, path)


def parse_study_spec(document: dict) -> StudySpec:
    """Build a StudySpec from a JSON-compatible document, applying defaults.

    Raises ParseError (schema violations, out-of-range scalars) or
    SpecReferenceError (unknown descriptor/state references). Semantic
    invariants beyond the schema are the job of ``validate_study_spec``.
    """
    if not isinstance(document, dict):
        raise ParseError("", "study spec must be a JSON object")
    raw_desc = _require(document, "descriptors", "")
    if not isinstance(raw_desc, list) or not raw_desc:
        raise ParseError("descriptors", "must be a non-empty list")
    descriptors = tuple(_parse_descriptor(d, i) for i, d in enumerate(raw_desc))
    index: dict[str, int] = {}
    for i, d in enumerate(descriptors):
        if d.id in index:
            raise ParseError(f"descriptors[{i}].id", f"duplicate descriptor id {d.id!r}")
        index[d.id] = i

    cim = _parse_cim(_require(document, "cim", ""), descriptors, index)

    raw_base = _require(document, "baseline", "")
    if not isinstance(raw_base, dict):
        raise ParseError("baseline", "baseline must map descriptor id to state")
    baseline = []
    for d in descriptors:
        if d.id not in raw_base:
            raise ParseError("baseline", f"missing baseline state for {d.id!r}")
        baseline.append(resolve_state(d, raw_base[d.id], f"baseline.{d.id}"))
    for key in raw_base:
        if key not in index:
            raise SpecReferenceError("baseline", f"unknown descriptor {key!r}")

    raw_rules = document.get("rules", {}) or {}
    forbidden = tuple(
        (
            _parse_pair(p[0], descriptors, index, f"rules.forbidden_pairs[{i}][0]"),
            _parse_pair(p[1], descriptors, index, f"rules.forbidden_pairs[{i}][1]"),
        )
        for i, p in enumerate(raw_rules.get("forbidden_pairs", []))
    )
    implications = tuple(
        (
            _parse_pair(_require(r, "if", f"rules.implications[{i}]"), descriptors, index, f"rules.implications[{i}].if"),
            _parse_pair(_require(r, "then", f"rules.implications[{i}]"), descriptors, index, f"rules.implications[{i}].then"),
        )
        for i, r in enumerate(raw_rules.get("implications", []))
    )
    rules = DomainRules(forbidden, implications)

    threshold_rules = []
    for i, r in enumerate(document.get("threshold_rules", []) or []):
        path = f"threshold_rules[{i}]"
        conditions = tuple(
            _parse_pair(c, descriptors, index, f"{path}.conditions[{k}]")
            for k, c in enumerate(_require(r, "conditions", path))
        )
        raw_eff = _require(r, "effect", path)
        src = _require(raw_eff, "source", f"{path}.effect")
        tgt = _require(raw_eff, "target", f"{path}.effect")
        for ref in (src, tgt):
            if ref not in index:
                raise SpecReferenceError(f"{path}.effect", f"unknown descriptor {ref!r}")
        delta = float(_require(raw_eff, "delta", f"{path}.effect"))
        if not math.isfinite(delta):
            raise ParseError(f"{path}.effect.delta", "delta must be finite")
        effect = ThresholdEffect(
            src,
            resolve_state(descriptors[index[src]], _require(raw_eff, "source_state", f"{path}.effect"), f"{path}.effect.source_state"),
            tgt,
            resolve_state(descriptors[index[tgt]], _require(raw_eff, "target_state", f"{path}.effect"), f"{path}.effect.target_state"),
            delta,
        )
        threshold_rules.append(ThresholdRule(conditions, effect))

    raw_shocks = document.get("shocks", {}) or {}
    raw_struct = raw_shocks.get("structural", {}) or {}
    raw_dyn = raw_shocks.get("dynamic", {}) or {}
    for kind, raw in (("structural", raw_struct), ("dynamic", raw_dyn)):
        if not is_json(raw.get("enabled", False), bool):
            raise ParseError(f"shocks.{kind}.enabled", "enabled must be true or false")
    shocks = ShockConfig(
        structural=StructuralShockConfig(
            enabled=raw_struct.get("enabled", False),
            scale=float(raw_struct.get("scale", 0.0)),
            distribution=_parse_distribution(raw_struct.get("distribution"), "shocks.structural.distribution"),
        ),
        dynamic=DynamicShockConfig(
            enabled=raw_dyn.get("enabled", False),
            long_run_sd=float(raw_dyn.get("long_run_sd", 0.0)),
            persistence=float(raw_dyn.get("persistence", 0.0)),
            distribution=_parse_distribution(raw_dyn.get("distribution"), "shocks.dynamic.distribution"),
        ),
    )

    raw_grid = _require(document, "time_grid", "")
    if not isinstance(raw_grid, list) or not all(isinstance(p, int) for p in raw_grid):
        raise ParseError("time_grid", "time_grid must be a list of integer periods")
    time_grid = tuple(raw_grid)

    raw_unc = document.get("uncertainty", {}) or {}
    raw_cs = raw_unc.get("confidence_sigma")
    if raw_cs is None:
        confidence_sigma = DEFAULT_CONFIDENCE_SIGMA
    else:
        try:
            confidence_sigma = tuple(float(raw_cs[str(c)]) for c in range(1, 6))
        except KeyError as e:
            raise ParseError("uncertainty.confidence_sigma", f"missing code {e}")
    raw_ts = raw_unc.get("time_scale")
    if raw_ts is None:
        time_scale = tuple(zip(time_grid, _default_time_scale(time_grid)))
    else:
        try:
            time_scale = tuple((p, float(raw_ts[str(p)])) for p in time_grid)
        except KeyError as e:
            raise ParseError("uncertainty.time_scale", f"missing period {e}")
    resample = raw_unc.get("resample")
    if resample is None:
        factors = {f for _, f in time_scale}
        resample = "per_period" if len(factors) > 1 else "per_run"
    elif resample not in ("per_run", "per_period"):
        raise ParseError("uncertainty.resample", "must be 'per_run' or 'per_period'")
    uncertainty = UncertaintyConfig(
        confidence_sigma=confidence_sigma,
        time_scale=time_scale,
        sampling_distribution=_parse_distribution(
            raw_unc.get("sampling_distribution"), "uncertainty.sampling_distribution"
        ),
        resample=resample,
    )

    return StudySpec(
        descriptors=descriptors,
        cim=cim,
        baseline=tuple(baseline),
        rules=rules,
        threshold_rules=tuple(threshold_rules),
        shocks=shocks,
        uncertainty=uncertainty,
        time_grid=time_grid,
    )


def _default_time_scale(time_grid: tuple[int, ...]) -> list[float]:
    """Linear factor 1.0 at the first period rising to 1.5 at the last."""
    if len(time_grid) < 2:
        return [1.0] * len(time_grid)
    first, last = time_grid[0], time_grid[-1]
    span = last - first
    if span == 0:
        return [1.0] * len(time_grid)
    return [1.0 + 0.5 * (p - first) / span for p in time_grid]


# ---------------------------------------------------------------------------
# Serialization


def serialize_study_spec(spec: StudySpec) -> dict:
    """Emit the JSON document form; parse(serialize(spec)) == spec."""
    descriptors = []
    for d in spec.descriptors:
        doc: dict[str, Any] = {
            "id": d.id,
            "name": d.name,
            "kind": d.kind,
            "states": [
                {"label": s.label, "definition": s.definition} for s in d.states
            ],
        }
        if d.cyclic_params is not None:
            cp = d.cyclic_params
            doc["cyclic"] = {
                "stay": cp.stay,
                "step": cp.step,
                "step2": cp.step2,
                "drift": cp.drift,
            }
        descriptors.append(doc)

    cells = []
    ids = spec.cim.descriptor_ids
    for i, si, j, tj in spec.cim.iter_cells():
        cells.append(
            {
                "source": ids[i],
                "source_state": si,
                "target": ids[j],
                "target_state": tj,
                "score": float(spec.cim.scores[i, si, j, tj]),
                "confidence": int(spec.cim.confidences[i, si, j, tj]),
            }
        )

    def pair(p: tuple[str, int]) -> list:
        return [p[0], p[1]]

    sh = spec.shocks

    def dist(d: Distribution) -> Any:
        if d.kind == "gaussian":
            return "gaussian"
        return {"kind": "student_t", "df": d.df}

    return {
        "descriptors": descriptors,
        "cim": cells,
        "baseline": {d.id: s for d, s in zip(spec.descriptors, spec.baseline)},
        "rules": {
            "forbidden_pairs": [[pair(a), pair(b)] for a, b in spec.rules.forbidden_pairs],
            "implications": [
                {"if": pair(a), "then": pair(b)} for a, b in spec.rules.implications
            ],
        },
        "threshold_rules": [
            {
                "conditions": [pair(c) for c in r.conditions],
                "effect": {
                    "source": r.effect.source,
                    "source_state": r.effect.source_state,
                    "target": r.effect.target,
                    "target_state": r.effect.target_state,
                    "delta": r.effect.delta,
                },
            }
            for r in spec.threshold_rules
        ],
        "shocks": {
            "structural": {
                "enabled": sh.structural.enabled,
                "scale": sh.structural.scale,
                "distribution": dist(sh.structural.distribution),
            },
            "dynamic": {
                "enabled": sh.dynamic.enabled,
                "long_run_sd": sh.dynamic.long_run_sd,
                "persistence": sh.dynamic.persistence,
                "distribution": dist(sh.dynamic.distribution),
            },
        },
        "uncertainty": {
            "confidence_sigma": {
                str(c): spec.uncertainty.confidence_sigma[c - 1] for c in range(1, 6)
            },
            "time_scale": {str(p): f for p, f in spec.uncertainty.time_scale},
            "sampling_distribution": dist(spec.uncertainty.sampling_distribution),
            "resample": spec.uncertainty.resample,
        },
        "time_grid": list(spec.time_grid),
    }


def load_study_spec(path: str) -> StudySpec:
    return parse_study_spec(read_json(path))


def save_study_spec(spec: StudySpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_study_spec(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Validation


def validate_study_spec(spec: StudySpec) -> list[Finding]:
    """Check every semantic invariant; returns findings, never raises.

    An empty error list means the spec satisfies all type invariants.
    Warnings flag suspicious but legal content (e.g. all-zero CIM rows).
    """
    findings: list[Finding] = []

    def err(path: str, msg: str) -> None:
        findings.append(Finding("error", path, msg))

    def warn(path: str, msg: str) -> None:
        findings.append(Finding("warning", path, msg))

    seen_ids: set[str] = set()
    for i, d in enumerate(spec.descriptors):
        path = f"descriptors[{i}]"
        if d.id in seen_ids:
            err(f"{path}.id", f"duplicate descriptor id {d.id!r}")
        seen_ids.add(d.id)
        if not 2 <= d.state_count <= 5:
            err(f"{path}.states", f"{d.state_count} states; expected 2 to 5")
        labels = d.state_labels()
        if len(set(labels)) != len(labels):
            err(f"{path}.states", "duplicate state labels")
        for k, s in enumerate(d.states):
            if s.index != k:
                err(f"{path}.states[{k}]", f"state index {s.index} != position {k}")
        if d.kind not in DESCRIPTOR_KINDS:
            err(f"{path}.kind", f"unknown kind {d.kind!r}")
        if d.kind == "cyclic":
            cp = d.cyclic_params
            if cp is None:
                err(f"{path}.cyclic", "cyclic descriptor without cyclic parameters")
            else:
                total = cp.stay + cp.step + cp.step2
                if abs(total - 1.0) > 1e-9:
                    err(
                        f"{path}.cyclic",
                        f"stay + step + step2 = {total:g}; probabilities must sum to 1.0",
                    )
                for name, p in (("stay", cp.stay), ("step", cp.step), ("step2", cp.step2)):
                    if not 0.0 <= p <= 1.0:
                        err(f"{path}.cyclic.{name}", f"probability {p:g} outside [0, 1]")
                if not -1.0 <= cp.drift <= 1.0:
                    err(f"{path}.cyclic.drift", f"drift {cp.drift:g} outside [-1, 1]")
        elif d.cyclic_params is not None:
            err(f"{path}.cyclic", "cyclic parameters on a non-cyclic descriptor")

    cim = spec.cim
    if cim.descriptor_ids != tuple(d.id for d in spec.descriptors) or cim.state_counts != spec.state_counts:
        err("cim", "matrix structure does not match the descriptor list")
    else:
        mask = cim.valid_mask
        scores = cim.scores
        bad = mask & ~((scores >= SCORE_MIN) & (scores <= SCORE_MAX))
        for i, si, j, tj in np.argwhere(bad):
            err(
                cim.cell_path(i, si, j, tj),
                f"score {scores[i, si, j, tj]:g} outside [{SCORE_MIN:g}, {SCORE_MAX:g}]",
            )
        badc = mask & ~((cim.confidences >= 1) & (cim.confidences <= 5))
        for i, si, j, tj in np.argwhere(badc):
            err(
                cim.cell_path(i, si, j, tj),
                f"confidence {cim.confidences[i, si, j, tj]} outside 1..5",
            )
        # All-zero outgoing rows usually mean a pair was never elicited.
        for i, d in enumerate(spec.descriptors):
            for si in range(d.state_count):
                row_mask = mask[i, si]
                if row_mask.any() and not scores[i, si][row_mask].any():
                    warn(
                        f"cim[{d.id}:{si}]",
                        f"all-zero impact row for {d.id!r} state {si}",
                    )

    def check_pair(p: tuple[str, int], path: str) -> bool:
        did, state = p
        if did not in seen_ids:
            err(path, f"unknown descriptor {did!r}")
            return False
        d = spec.descriptor(did) if did in spec._index else None
        if d is None or not 0 <= state < d.state_count:
            err(path, f"invalid state {state} for descriptor {did!r}")
            return False
        return True

    for i, (a, b) in enumerate(spec.rules.forbidden_pairs):
        path = f"rules.forbidden_pairs[{i}]"
        ok = check_pair(a, f"{path}[0]") & check_pair(b, f"{path}[1]")
        if ok and a[0] == b[0]:
            err(path, f"forbidden pair references descriptor {a[0]!r} twice")
    for i, (a, b) in enumerate(spec.rules.implications):
        check_pair(a, f"rules.implications[{i}].if")
        check_pair(b, f"rules.implications[{i}].then")

    for i, r in enumerate(spec.threshold_rules):
        path = f"threshold_rules[{i}]"
        for k, c in enumerate(r.conditions):
            check_pair(c, f"{path}.conditions[{k}]")
        e = r.effect
        check_pair((e.source, e.source_state), f"{path}.effect.source")
        check_pair((e.target, e.target_state), f"{path}.effect.target")
        if e.source == e.target:
            err(f"{path}.effect", "effect cell is a self-impact")
        if not math.isfinite(e.delta):
            err(f"{path}.effect.delta", "delta must be finite")

    st = spec.shocks.structural
    if st.scale < 0:
        err("shocks.structural.scale", f"scale {st.scale:g} is negative")
    dyn = spec.shocks.dynamic
    if dyn.long_run_sd < 0:
        err("shocks.dynamic.long_run_sd", f"long_run_sd {dyn.long_run_sd:g} is negative")
    if dyn.enabled and not abs(dyn.persistence) < 1:
        err(
            "shocks.dynamic.persistence",
            f"|rho| = {abs(dyn.persistence):g} must be < 1 for stationarity",
        )
    if dyn.enabled and dyn.distribution.kind == "student_t" and (dyn.distribution.df or 0) <= 2:
        err("shocks.dynamic.distribution", "student_t df must exceed 2 (finite variance)")

    unc = spec.uncertainty
    for c in range(1, 5):
        if unc.confidence_sigma[c - 1] < unc.confidence_sigma[c]:
            err(
                "uncertainty.confidence_sigma",
                f"sigma must be non-increasing in confidence (code {c} < code {c + 1})",
            )
    for c in range(1, 6):
        if unc.confidence_sigma[c - 1] < 0:
            err("uncertainty.confidence_sigma", f"negative sigma for code {c}")
    covered = {p for p, _ in unc.time_scale}
    for p in spec.time_grid:
        if p not in covered:
            err("uncertainty.time_scale", f"no factor for period {p}")
    for p, f in unc.time_scale:
        if f < 0:
            err("uncertainty.time_scale", f"negative factor {f:g} at period {p}")
    if unc.resample not in ("per_run", "per_period"):
        err("uncertainty.resample", f"unknown policy {unc.resample!r}")

    if len(spec.time_grid) < 2:
        err("time_grid", "time grid needs at least 2 periods")
    if any(b <= a for a, b in zip(spec.time_grid, spec.time_grid[1:])):
        err("time_grid", "time grid must be strictly increasing")

    if len(spec.baseline) != len(spec.descriptors):
        err("baseline", "baseline length does not match descriptor count")
    else:
        for d, s in zip(spec.descriptors, spec.baseline):
            if not 0 <= s < d.state_count:
                err(f"baseline.{d.id}", f"invalid state {s}")
        base = {d.id: s for d, s in zip(spec.descriptors, spec.baseline)}
        for (a_id, a_s), (b_id, b_s) in spec.rules.forbidden_pairs:
            if base.get(a_id) == a_s and base.get(b_id) == b_s:
                err(
                    "baseline",
                    f"baseline violates forbidden pair ({a_id!r}, {a_s}) / ({b_id!r}, {b_s})",
                )

    return findings
