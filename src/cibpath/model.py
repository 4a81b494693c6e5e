"""Study specification: domain types, parsing, validation, and serialization.

The study spec is the single artefact every downstream stage consumes. It is
parsed from a JSON document (see ``parse_study_spec``), is immutable after
construction, and is safe to share read-only across parallel workers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import chain
from typing import Any, Iterator, Optional

import numpy as np

from .errors import OutOfRangeError, ParseError, SpecReferenceError, StructureError

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
    Any other layout raises StructureError on construction.
    """

    descriptor_ids: tuple[str, ...]
    state_counts: tuple[int, ...]
    scores: np.ndarray
    confidences: np.ndarray

    def __post_init__(self) -> None:
        d, s = len(self.descriptor_ids), max(self.state_counts, default=0)
        if len(self.state_counts) != d or not self.scores.shape == self.confidences.shape == (d, s, d, s):
            raise StructureError(
                f"{d} descriptors, {len(self.state_counts)} state counts, scores of shape "
                f"{self.scores.shape} and confidences of shape {self.confidences.shape}; "
                f"expected {d} state counts and shape {(d, s, d, s)}"
            )

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

    def index_of(self, descriptor_id: str, path: str = "descriptors") -> int:
        """The descriptor's position, else SpecReferenceError naming path."""
        return _position(self._index, descriptor_id, path)

    def descriptor(self, descriptor_id: str, path: str = "descriptors") -> Descriptor:
        return self.descriptors[self.index_of(descriptor_id, path)]

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
        return _parse_pair(raw, self._index, self.descriptors, path)

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
    """The JSON document in the UTF-8 file at path; NaN, Infinity and 1e400,
    which Python's json would read as non-finite numbers, raise ParseError."""
    def refuse(text: str):
        raise ParseError(path, f"{text} is not a finite JSON number")

    def number(text: str) -> float:
        value = float(text)
        return value if math.isfinite(value) else refuse(text)

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse, parse_float=number)


def compact_json(doc: Any) -> str:
    """The canonical text of a JSON document: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


_KIND_NAMES = {
    dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number",
    bool: "true or false",
}
_REQUIRED = object()

#: The kind of a state reference: a label or an index.
STATE_REF = (int, str)


def _kind_name(kind: Any) -> str:
    if type(kind) is tuple:
        return " or ".join(map(_kind_name, kind))
    return "a list" if type(kind) is list else _KIND_NAMES[kind]


def _shown(value: Any) -> str:
    return _KIND_NAMES[type(value)] if type(value) in (dict, list) else repr(value)


def child(parent: Any, key: Any, kind: Any, path: str = "", default: Any = _REQUIRED) -> Any:
    """parent[key], where parent is the JSON node at path, if it holds the
    JSON type kind: dict, list, str, bool (true or false), int (an integer)
    or float (any number, returned as a float; a boolean is no number), a
    tuple of these for any of them, or [k] for a list of k. An absent key
    gives default, if one is given. Else ParseError names the child's
    dotted path, or path when parent is no object (for a str key) or list."""
    if type(parent) is not dict and (type(key) is not int or type(parent) not in (list, tuple)):
        expected = "a list" if type(key) is int else "an object"
        raise ParseError(path or "(root)", f"expected {expected}, got {_shown(parent)}")
    try:
        value = parent[key]
    except (KeyError, IndexError):
        if default is _REQUIRED:
            raise ParseError(_join(path, key), "missing") from None
        return default
    if type(value) is kind or type(kind) is tuple and type(value) in kind:
        return value
    if type(value) is int and (kind is float or type(kind) is tuple and float in kind):
        if abs(value) < 1e308:  # float() would overflow
            return float(value)
    if type(kind) is list and type(value) is list:
        for i in range(len(value)):
            child(value, i, kind[0], _join(path, key))
        return value
    raise ParseError(_join(path, key), f"expected {_kind_name(kind)}, got {_shown(value)}")


def _join(path: str, key: Any) -> str:
    """The dotted path of child key of the node at path."""
    return f"{path}[{key}]" if type(key) is int else f"{path}.{key}" if path else key


def _position(index: dict, descriptor_id: Any, path: str) -> int:
    """The position of descriptor_id in index, else SpecReferenceError naming path."""
    try:
        return index[descriptor_id]
    except (KeyError, TypeError):
        raise SpecReferenceError(path, f"unknown descriptor {descriptor_id!r}") from None


def _parse_distribution(parent: dict, key: str, path: str) -> Distribution:
    value = child(parent, key, (str, dict), path, "gaussian")
    path = f"{path}.{key}"
    if value == "gaussian":
        return GAUSSIAN
    if type(value) is str:
        raise ParseError(path, f"unknown distribution {value!r}")
    kind = child(value, "kind", str, path)
    if kind == "gaussian":
        return GAUSSIAN
    if kind != "student_t":
        raise ParseError(f"{path}.kind", f"unknown distribution kind {kind!r}")
    df = child(value, "df", int, path)
    if df < 1:
        raise ParseError(f"{path}.df", "df must be a positive integer")
    return Distribution("student_t", df)


def resolve_state(desc: Descriptor, ref: Any, path: str) -> int:
    """Normalize a state reference (label or index) to a state index."""
    if type(ref) is int:
        if 0 <= ref < len(desc.states):  # len(): the state_count property triples this cost
            return ref
        raise SpecReferenceError(
            path, f"state index {ref} outside 0..{desc.state_count - 1} of {desc.id!r}"
        )
    for s in desc.states:
        if s.label == ref:
            return s.index
    raise SpecReferenceError(path, f"unknown state {ref!r} of descriptor {desc.id!r}")


def _parse_descriptor(doc: dict, path: str) -> Descriptor:
    did = child(doc, "id", str, path)
    if not did:
        raise ParseError(f"{path}.id", "id must be a non-empty string")
    kind = child(doc, "kind", str, path, "endogenous")
    if kind not in DESCRIPTOR_KINDS:
        raise ParseError(f"{path}.kind", f"kind must be one of {DESCRIPTOR_KINDS}")
    raw_states = child(doc, "states", [(str, dict)], path)
    if not raw_states:
        raise ParseError(f"{path}.states", "states must be a non-empty list")
    states = []
    for i, s in enumerate(raw_states):
        spath = f"{path}.states[{i}]"
        if type(s) is str:
            states.append(StateDef(i, s))
        else:
            label = child(s, "label", str, spath)
            states.append(StateDef(i, label, child(s, "definition", str, spath, "")))
    cyclic = None
    if kind == "cyclic":
        raw, cpath = child(doc, "cyclic", dict, path), f"{path}.cyclic"
        cyclic = CyclicParams(
            *(child(raw, key, float, cpath) for key in ("stay", "step", "step2")),
            drift=child(raw, "drift", float, cpath, 0.0),
        )
    elif "cyclic" in doc:
        raise ParseError(f"{path}.cyclic", "cyclic parameters on a non-cyclic descriptor")
    return Descriptor(did, child(doc, "name", str, path, did), tuple(states), kind, cyclic)


def _parse_cim(
    records: list, descriptors: tuple[Descriptor, ...], index: dict
) -> CrossImpactMatrix:
    ids = tuple(d.id for d in descriptors)
    counts = tuple(d.state_count for d in descriptors)
    cells: dict[tuple[int, int, int, int], tuple[float, int]] = {}
    for pos in range(len(records)):
        rec, path = child(records, pos, dict, "cim"), f"cim[{pos}]"
        i = _position(index, child(rec, "source", str, path), f"{path}.source")
        j = _position(index, child(rec, "target", str, path), f"{path}.target")
        if i == j:
            raise ParseError(path, f"self-impact cell for descriptor {ids[i]!r}")
        si = child(rec, "source_state", STATE_REF, path)
        si = resolve_state(descriptors[i], si, f"{path}.source_state")
        tj = child(rec, "target_state", STATE_REF, path)
        tj = resolve_state(descriptors[j], tj, f"{path}.target_state")
        score = child(rec, "score", float, path)
        if not SCORE_MIN <= score <= SCORE_MAX:
            raise ParseError(
                f"{path}.score", f"score {score} outside [{SCORE_MIN:g}, {SCORE_MAX:g}]"
            )
        conf = child(rec, "confidence", int, path)
        if not 1 <= conf <= 5:
            raise ParseError(f"{path}.confidence", "confidence must be an integer in 1..5")
        if (i, si, j, tj) in cells:
            raise ParseError(path, "duplicate cell")
        cells[i, si, j, tj] = score, conf
    cim = CrossImpactMatrix.zeros(ids, counts)
    seen = np.zeros_like(cim.valid_mask)
    at = tuple(np.fromiter(chain.from_iterable(cells), np.intp, 4 * len(cells)).reshape(-1, 4).T)
    seen[at] = True
    values = np.fromiter(chain.from_iterable(cells.values()), float, 2 * len(cells))
    cim.scores[at], cim.confidences[at] = values.reshape(-1, 2).T
    missing = cim.valid_mask & ~seen
    if missing.any():
        i, si, j, tj = (int(x) for x in np.argwhere(missing)[0])
        raise ParseError(
            "cim",
            f"missing cell ({ids[i]!r}, state {si}) -> ({ids[j]!r}, state {tj})",
        )
    return cim


def _parse_pair(raw: Any, index: dict, descriptors: tuple[Descriptor, ...], path: str) -> tuple[str, int]:
    """A [descriptor id, state label or index] pair as (id, state index)."""
    did = child(raw, 0, str, path)
    if len(raw) != 2:
        raise ParseError(path, f"expected a [descriptor, state] pair, got {len(raw)} items")
    return did, resolve_state(descriptors[_position(index, did, path)], raw[1], path)


def parse_study_spec(document: dict) -> StudySpec:
    """Build a StudySpec from a JSON-compatible document, applying defaults.

    Every node is read by ``child``: a missing node or one of the wrong JSON
    type raises ParseError, an out-of-range scalar ParseError, and an
    unknown descriptor or state SpecReferenceError, each naming the node.
    Semantic invariants beyond the schema are the job of
    ``validate_study_spec``.
    """
    raw_desc = child(document, "descriptors", list)
    if not raw_desc:
        raise ParseError("descriptors", "must be a non-empty list")
    descriptors = tuple(
        _parse_descriptor(child(raw_desc, i, dict, "descriptors"), f"descriptors[{i}]")
        for i in range(len(raw_desc))
    )
    index: dict[str, int] = {}
    for i, d in enumerate(descriptors):
        if d.id in index:
            raise ParseError(f"descriptors[{i}].id", f"duplicate descriptor id {d.id!r}")
        index[d.id] = i

    def pair(parent: Any, key: Any, path: str) -> tuple[str, int]:
        return _parse_pair(child(parent, key, list, path), index, descriptors, _join(path, key))

    cim = _parse_cim(child(document, "cim", list), descriptors, index)

    raw_base = child(document, "baseline", dict)
    baseline = tuple(
        resolve_state(d, child(raw_base, d.id, STATE_REF, "baseline"), f"baseline.{d.id}")
        for d in descriptors
    )
    for key in raw_base:
        _position(index, key, f"baseline.{key}")

    raw_rules = child(document, "rules", dict, "", {})
    raw_pairs = child(raw_rules, "forbidden_pairs", [list], "rules", [])
    raw_implications = child(raw_rules, "implications", [dict], "rules", [])
    rules = DomainRules(
        tuple(
            (pair(p, 0, f"rules.forbidden_pairs[{i}]"), pair(p, 1, f"rules.forbidden_pairs[{i}]"))
            for i, p in enumerate(raw_pairs)
        ),
        tuple(
            (pair(r, "if", f"rules.implications[{i}]"), pair(r, "then", f"rules.implications[{i}]"))
            for i, r in enumerate(raw_implications)
        ),
    )

    threshold_rules = []
    for i, r in enumerate(child(document, "threshold_rules", [dict], "", [])):
        path = f"threshold_rules[{i}]"
        raw_conditions = child(r, "conditions", list, path)
        conditions = tuple(
            pair(raw_conditions, k, f"{path}.conditions") for k in range(len(raw_conditions))
        )
        raw_eff, epath = child(r, "effect", dict, path), f"{path}.effect"
        src, tgt = (child(raw_eff, key, str, epath) for key in ("source", "target"))
        delta = child(raw_eff, "delta", float, epath)
        if not math.isfinite(delta):
            raise ParseError(f"{epath}.delta", "delta must be finite")
        source_state, target_state = (
            resolve_state(
                descriptors[_position(index, did, f"{epath}.{key}")],
                child(raw_eff, f"{key}_state", STATE_REF, epath), f"{epath}.{key}_state",
            )
            for did, key in ((src, "source"), (tgt, "target"))
        )
        effect = ThresholdEffect(src, source_state, tgt, target_state, delta)
        threshold_rules.append(ThresholdRule(conditions, effect))

    raw_shocks = child(document, "shocks", dict, "", {})
    raw_struct = child(raw_shocks, "structural", dict, "shocks", {})
    raw_dyn = child(raw_shocks, "dynamic", dict, "shocks", {})
    spath, dpath = "shocks.structural", "shocks.dynamic"
    shocks = ShockConfig(
        structural=StructuralShockConfig(
            enabled=child(raw_struct, "enabled", bool, spath, False),
            scale=child(raw_struct, "scale", float, spath, 0.0),
            distribution=_parse_distribution(raw_struct, "distribution", spath),
        ),
        dynamic=DynamicShockConfig(
            enabled=child(raw_dyn, "enabled", bool, dpath, False),
            long_run_sd=child(raw_dyn, "long_run_sd", float, dpath, 0.0),
            persistence=child(raw_dyn, "persistence", float, dpath, 0.0),
            distribution=_parse_distribution(raw_dyn, "distribution", dpath),
        ),
    )

    time_grid = tuple(child(document, "time_grid", [int]))

    raw_unc = child(document, "uncertainty", dict, "", {})
    raw_cs = child(raw_unc, "confidence_sigma", dict, "uncertainty", None)
    confidence_sigma = DEFAULT_CONFIDENCE_SIGMA if raw_cs is None else tuple(
        child(raw_cs, str(c), float, "uncertainty.confidence_sigma") for c in range(1, 6)
    )
    raw_ts = child(raw_unc, "time_scale", dict, "uncertainty", None)
    if raw_ts is None:
        time_scale = tuple(zip(time_grid, _default_time_scale(time_grid)))
    else:
        time_scale = tuple(
            (p, child(raw_ts, str(p), float, "uncertainty.time_scale")) for p in time_grid
        )
    resample = child(raw_unc, "resample", str, "uncertainty", None)
    if resample is None:
        factors = {f for _, f in time_scale}
        resample = "per_period" if len(factors) > 1 else "per_run"
    elif resample not in ("per_run", "per_period"):
        raise ParseError("uncertainty.resample", "must be 'per_run' or 'per_period'")
    uncertainty = UncertaintyConfig(
        confidence_sigma=confidence_sigma,
        time_scale=time_scale,
        sampling_distribution=_parse_distribution(raw_unc, "sampling_distribution", "uncertainty"),
        resample=resample,
    )

    return StudySpec(
        descriptors=descriptors,
        cim=cim,
        baseline=baseline,
        rules=rules,
        threshold_rules=tuple(threshold_rules),
        shocks=shocks,
        uncertainty=uncertainty,
        time_grid=time_grid,
    )


def _default_time_scale(time_grid: tuple[int, ...]) -> list[float]:
    """Linear factor 1.0 at the first period rising to 1.5 at the last, or
    1.0 throughout when the grid spans no time."""
    span = time_grid[-1] - time_grid[0] if time_grid else 0
    if span == 0:
        return [1.0] * len(time_grid)
    return [1.0 + 0.5 * (p - time_grid[0]) / span for p in time_grid]


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
            doc["cyclic"] = asdict(d.cyclic_params)
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
            "forbidden_pairs": [[list(a), list(b)] for a, b in spec.rules.forbidden_pairs],
            "implications": [
                {"if": list(a), "then": list(b)} for a, b in spec.rules.implications
            ],
        },
        "threshold_rules": [
            {
                "conditions": [list(c) for c in r.conditions],
                "effect": asdict(r.effect),
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
                str(c): s for c, s in enumerate(spec.uncertainty.confidence_sigma, 1)
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
    """Check every invariant; returns findings, never raises.

    Structure is the parser's: a ParseError from
    ``parse_study_spec(serialize_study_spec(spec))``, else the first
    StudySpec field that this round trip changes (a value no spec file
    holds, such as a nonzero cell outside valid_mask), is one error finding.
    The other checks are semantic. Warnings flag suspicious but legal
    content (e.g. all-zero CIM rows), read from the round trip's matrix.
    """
    findings: list[Finding] = []

    def err(path: str, msg: str) -> None:
        findings.append(Finding("error", path, msg))

    try:
        again = parse_study_spec(serialize_study_spec(spec))
    except ParseError as e:
        err(e.path, e.reason)
    else:
        changed = [f.name for f in fields(StudySpec)
                   if f.compare and getattr(again, f.name) != getattr(spec, f.name)]
        if changed:
            err(changed[0], "changed by a serialize/parse round trip: the spec file cannot hold it")
        # All-zero outgoing rows usually mean a pair was never elicited.
        mask, scores = again.cim.valid_mask, again.cim.scores
        for i, d in enumerate(again.descriptors):
            for si in range(d.state_count):
                row_mask = mask[i, si]
                if row_mask.any() and not scores[i, si][row_mask].any():
                    findings.append(Finding(
                        "warning", f"cim[{d.id}:{si}]", f"all-zero impact row for {d.id!r} state {si}"
                    ))

    for i, d in enumerate(spec.descriptors):
        path = f"descriptors[{i}]"
        if not 2 <= d.state_count <= 5:
            err(f"{path}.states", f"{d.state_count} states; expected 2 to 5")
        labels = d.state_labels()
        if len(set(labels)) != len(labels):
            err(f"{path}.states", "duplicate state labels")
        cp = d.cyclic_params
        if cp is not None:
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

    for i, (a, b) in enumerate(spec.rules.forbidden_pairs):
        if a[0] == b[0]:
            err(f"rules.forbidden_pairs[{i}]",
                f"forbidden pair references descriptor {a[0]!r} twice")
    for i, r in enumerate(spec.threshold_rules):
        if r.effect.source == r.effect.target:
            err(f"threshold_rules[{i}].effect", "effect cell is a self-impact")

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
    unc = spec.uncertainty
    # uncertainty.draw_factor scales every Student-t draw by sqrt((df-2)/df).
    for path, dist, drawn in (
        ("uncertainty.sampling_distribution", unc.sampling_distribution, True),
        ("shocks.structural.distribution", st.distribution, st.enabled),
        ("shocks.dynamic.distribution", dyn.distribution, dyn.enabled),
    ):
        if drawn and dist.kind == "student_t" and dist.df <= 2:
            err(path, "student_t df must exceed 2 (finite variance)")

    sigma = unc.confidence_sigma
    for c, (high, low) in enumerate(zip(sigma, sigma[1:]), 1):
        if high < low:
            err(
                "uncertainty.confidence_sigma",
                f"sigma must be non-increasing in confidence (code {c} < code {c + 1})",
            )
    for c, value in enumerate(sigma, 1):
        if value < 0:
            err("uncertainty.confidence_sigma", f"negative sigma for code {c}")
    for p, f in unc.time_scale:
        if f < 0:
            err("uncertainty.time_scale", f"negative factor {f:g} at period {p}")

    if len(spec.time_grid) < 2:
        err("time_grid", "time grid needs at least 2 periods")
    if any(b <= a for a, b in zip(spec.time_grid, spec.time_grid[1:])):
        err("time_grid", "time grid must be strictly increasing")

    base = {d.id: s for d, s in zip(spec.descriptors, spec.baseline)}
    for (a_id, a_s), (b_id, b_s) in spec.rules.forbidden_pairs:
        if base.get(a_id) == a_s and base.get(b_id) == b_s:
            err(
                "baseline",
                f"baseline violates forbidden pair ({a_id!r}, {a_s}) / ({b_id!r}, {b_s})",
            )

    return findings
