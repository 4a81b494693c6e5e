"""Translation of a selected pathway into model-ready input tables.

Each cell is the lookup of its dimension's driver state in the period
(optionally time-dependent); optional linear identities then repair the
cells of designated adjustable dimensions by proportional rescaling; and
expert uncertainty bands are attached last, around the repaired values.
Terminal-period extreme scenarios are looked up the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .engine import Scenario
from .errors import CoverageError, OutOfRangeError, ParseError
from .model import STATE_REF, StudySpec, child, read_file, resolve_state
from .simulate import EnsembleResult, Pathway

IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class Dimension:
    id: str
    unit: str
    driver: str  # descriptor id whose state drives the value


@dataclass(frozen=True)
class TranslationMatrix:
    """Translation values by (dimension id, state index); a value given for
    one period, by (dimension id, state index, period), takes precedence."""

    entries: dict[tuple[str, int], float]
    timed_entries: dict[tuple[str, int, int], float] = field(default_factory=dict)

    def value(self, dimension: str, state: int, period: int) -> float:
        if (dimension, state, period) in self.timed_entries:
            return self.timed_entries[dimension, state, period]
        if (dimension, state) not in self.entries:
            raise CoverageError(
                f"no translation entry for dimension {dimension!r}, state {state}"
            )
        return self.entries[dimension, state]


@dataclass(frozen=True)
class QuantifiedPathway:
    """Cell tables keyed by (dimension id, period), in table row order:
    dimension by dimension, and by period within a dimension."""

    dimensions: tuple[Dimension, ...]
    periods: tuple[int, ...]
    values: dict[tuple[str, int], float]
    ranges: dict[tuple[str, int], tuple[float, float]] = field(default_factory=dict)
    # the provenance text of each repaired cell; every other cell is a lookup
    provenance: dict[tuple[str, int], str] = field(default_factory=dict)


@dataclass(frozen=True)
class ExtremeScenario:
    label: str
    axis: str  # "outcome_based" | "descriptor_based" | "frequency_based"
    period: int
    values: dict[str, float]  # complete over all dimensions


def quantify_pathway(
    pathway: Pathway,
    dimensions: tuple[Dimension, ...],
    matrix: TranslationMatrix,
    spec: StudySpec,
) -> QuantifiedPathway:
    """Pure lookup of each dimension's driver state per period."""
    values = {}
    for dim in dimensions:
        j = spec.index_of(dim.driver)
        for period, scenario in pathway.entries:
            values[dim.id, period] = matrix.value(dim.id, scenario[j], period)
    return QuantifiedPathway(dimensions, pathway.periods, values)


#: The map from a central value to its (low, high) band.
RangeRule = Callable[[float], tuple[float, float]]


def read_ranges(doc: dict, dimensions: tuple[Dimension, ...]) -> dict[str, RangeRule]:
    """The rule of each dimension in a range spec: {"relative": f} (central
    * (1 -/+ f)), {"low_offset": a, "high_offset": b} or absolute {"low":
    x, "high": y}. A range that is not such an object, or a key that is not
    one of dimensions, raises ParseError naming ranges.<key>, and a value
    that is not a number, a low_offset above 0, a high_offset below 0 or a
    low above high ranges.<key>.<field>."""
    if type(doc) is not dict:
        raise ParseError("ranges", "not an object of dimension -> range")
    known = {d.id for d in dimensions}
    rules: dict[str, RangeRule] = {}
    for d in doc:
        path = f"ranges.{d}"
        if d not in known:
            raise ParseError(path, f"{d!r} is not a dimension of the translation file")
        rs = child(doc, d, dict, "ranges")
        if "relative" in rs:
            f = child(rs, "relative", float, path)
            rules[d] = lambda central, f=f: tuple(sorted((central * (1 - f), central * (1 + f))))
        elif "low_offset" in rs or "high_offset" in rs:
            low, high = (child(rs, key, float, path, 0.0) for key in ("low_offset", "high_offset"))
            if low > 0 or high < 0:
                key = "low_offset" if low > 0 else "high_offset"
                raise ParseError(f"{path}.{key}", (
                    f"{rs[key]:g} leaves the central value outside its band "
                    "(low_offset <= 0 <= high_offset)"
                ))
            rules[d] = lambda central, low=low, high=high: (central + low, central + high)
        else:
            low, high = child(rs, "low", float, path), child(rs, "high", float, path)
            if low > high:
                raise ParseError(f"{path}.low", f"{low:g} is above high ({high:g})")
            rules[d] = lambda central, low=low, high=high: (low, high)
    return rules


def attach_uncertainty_ranges(
    qp: QuantifiedPathway, rules: dict[str, RangeRule]
) -> QuantifiedPathway:
    """Fill per-cell (low, high) bands from read_ranges' rules; an inverted
    band or a central value outside its band raises OutOfRangeError."""
    ranges = {}
    for (d, p), central in qp.values.items():
        if d not in rules:
            continue
        lo, hi = rules[d](central)
        if lo > hi:
            raise OutOfRangeError(
                f"inverted range ({lo:g}, {hi:g}) for dimension {d!r} at period {p}"
            )
        if not lo <= central <= hi:
            raise OutOfRangeError(
                f"central value {central:g} outside range ({lo:g}, {hi:g}) "
                f"for dimension {d!r} at period {p}"
            )
        ranges[d, p] = (lo, hi)
    return replace(qp, ranges=ranges)


def read_extreme_axes(
    axes_config: dict, spec: StudySpec
) -> tuple[Optional[int], list[tuple[str, dict[int, int]]], Optional[int]]:
    """The outcome descriptor's position, the stacks as (label, {position:
    state}) pairs and the min_count of an extremes config, None for an axis
    it lacks. A node that is missing, of the wrong type or names no
    descriptor or state raises ParseError naming it (extremes.<node>)."""
    outcome = child(axes_config, "outcome", dict, "extremes", None)
    if outcome is not None:
        path = "extremes.outcome.descriptor"
        outcome = spec.index_of(child(outcome, "descriptor", str, "extremes.outcome"), path)
    stacks = []
    stack_config = child(axes_config, "descriptor_stacks", dict, "extremes", {})
    for label in stack_config:
        path = f"extremes.descriptor_stacks.{label}"
        stack = child(stack_config, label, dict, "extremes.descriptor_stacks")
        scenario = {}
        for did in stack:
            j = spec.index_of(did, f"{path}.{did}")
            scenario[j] = resolve_state(
                spec.descriptors[j], child(stack, did, STATE_REF, path), f"{path}.{did}"
            )
        stacks.append((label, scenario))
    frequency = child(axes_config, "frequency", dict, "extremes", None)
    min_count = frequency if frequency is None else child(
        frequency, "min_count", int, "extremes.frequency", 1
    )
    if min_count is not None and min_count < 1:
        raise ParseError("extremes.frequency.min_count", "must be at least 1")
    return outcome, stacks, min_count


def build_extreme_scenarios(
    ensemble: EnsembleResult,
    dimensions: tuple[Dimension, ...],
    matrix: TranslationMatrix,
    spec: StudySpec,
    axes: tuple,
) -> tuple[tuple[ExtremeScenario, ...], tuple[str, ...]]:
    """Terminal-period bounding cases along the axes that read_extreme_axes
    returns. Returns (scenarios, warnings); an axis with no matching
    ensemble scenario is skipped with a warning.
    """
    outcome, stacks, min_count = axes
    index, terminal_period = ensemble.pathway_index, ensemble.time_grid[-1]
    terminals = ensemble.ok_states[index.terminal_runs, -1].tolist()
    counts = dict(zip(map(tuple, terminals), index.terminal_counts.tolist()))
    out: list[ExtremeScenario] = []
    warnings: list[str] = []

    def by_count(terminal: Scenario) -> tuple[int, Scenario]:
        return counts[terminal], terminal

    def add(label: str, axis: str, scenario: Scenario) -> None:
        values = {
            dim.id: matrix.value(dim.id, scenario[spec.index_of(dim.driver)], terminal_period)
            for dim in dimensions
        }
        out.append(ExtremeScenario(label, axis, terminal_period, values))

    if outcome is not None:
        desc = spec.descriptors[outcome]
        for state, side in ((0, "low"), (desc.state_count - 1, "high")):
            found = max((t for t in counts if t[outcome] == state), key=by_count, default=None)
            if found is None:
                warnings.append(
                    f"outcome axis: no terminal scenario with {desc.id!r} in state {state}; skipped"
                )
            else:
                add(f"outcome-{side}", "outcome_based", found)

    # Unstacked drivers take their modal terminal state in the ensemble.
    modal = max(counts, key=by_count)
    for label, stack in stacks:
        scenario = list(modal)
        for j, state in stack.items():
            scenario[j] = state
        add(f"stack-{label}", "descriptor_based", tuple(scenario))

    if min_count is not None:
        found = min((t for t in counts if counts[t] >= min_count), key=by_count, default=None)
        if found is None:
            warnings.append(
                f"frequency axis: no terminal scenario reaches min_count {min_count}; skipped"
            )
        else:
            add("tail-outcome", "frequency_based", found)

    if not 2 <= len(out) <= 4:
        warnings.append(
            f"{len(out)} extreme scenarios produced; 2 to 4 expected from the axes config"
        )
    return tuple(out), tuple(warnings)


@dataclass(frozen=True)
class Identity:
    """Linear relation sum(coeff_d * x_d) = rhs per period.

    rhs is exactly one of a constant (rhs_value) and the value of a total
    dimension (rhs_dimension). Only adjustable dimensions are rescaled.
    """

    name: str
    terms: tuple[tuple[str, float], ...]  # (dimension, coefficient)
    adjustable: tuple[str, ...]
    rhs_value: Optional[float] = None
    rhs_dimension: Optional[str] = None


@dataclass(frozen=True)
class QuantifyInputs:
    """The quantify stage's checked inputs."""

    dimensions: tuple[Dimension, ...]
    matrix: TranslationMatrix
    ranges: dict[str, RangeRule]  # read_ranges'
    identities: tuple[Identity, ...]  # parse_identities'
    extremes: Optional[tuple]  # read_extreme_axes', None for no extreme scenarios


def _sides(ident: Identity, values: dict, period: int) -> tuple[float, float]:
    """The left- and right-hand sides of ident in period, under values."""
    rhs = ident.rhs_value if ident.rhs_dimension is None else values[ident.rhs_dimension, period]
    return sum(c * values[d, period] for d, c in ident.terms), rhs


def enforce_identities(
    qp: QuantifiedPathway, identities: tuple[Identity, ...]
) -> QuantifiedPathway:
    """Repair violated identities per period by proportionally rescaling the
    adjustable dimensions onto the constraint; satisfied identities leave
    values untouched and each repaired cell gets its provenance text. The
    identities are parse_identities' over qp's dimensions. OutOfRangeError
    is raised where a repair would scale by zero or less, its adjustable
    terms summing to zero included, and where an identity no longer holds
    after the last repair, within IDENTITY_TOL of its largest term (at
    least 1)."""
    values, prov = dict(qp.values), dict(qp.provenance)
    for k, ident in enumerate(identities):
        node, name = f"identities[{k}]", ident.name
        for period in qp.periods:
            lhs, rhs = _sides(ident, values, period)
            if abs(lhs - rhs) <= IDENTITY_TOL:
                continue
            fixed = sum(c * values[d, period] for d, c in ident.terms if d not in ident.adjustable)
            current = lhs - fixed
            scale = (rhs - fixed) / current if current else 0.0
            if scale <= 0.0:
                raise OutOfRangeError(
                    f"{node}: identity {name!r} unrepairable at period {period}: its adjustable "
                    f"terms sum to {current:.6g} and would need {rhs - fixed:.6g}"
                )
            for d in ident.adjustable:
                values[d, period] *= scale
                prov[d, period] = f"repair:identity {name!r}: scaled by {scale:.6g}"
    for k, ident in enumerate(identities):
        for period in qp.periods:
            lhs, rhs = _sides(ident, values, period)
            size = max(1.0, abs(rhs), *(abs(c * values[d, period]) for d, c in ident.terms))
            if abs(lhs - rhs) > IDENTITY_TOL * size:
                raise OutOfRangeError(f"identities[{k}]: identity {ident.name!r} broken at period "
                                      f"{period} by a later repair: {lhs:.6g} != {rhs:.6g}")
    return replace(qp, values=values, provenance=prov)


# ---------------------------------------------------------------------------
# File formats


def parse_translation_file(doc: dict, spec: StudySpec) -> tuple[tuple[Dimension, ...], TranslationMatrix]:
    """Translation-matrix file: per-dimension driver, unit, and state->value
    table, with optional per-period columns. A state may be given once, by
    label or by index, and must be a state of the driver; a period key is
    an integer."""
    dims, entries, timed = [], {}, {}
    for i, raw in enumerate(child(doc, "dimensions", [dict], "", [])):
        path = f"dimensions[{i}]"
        dim = Dimension(
            child(raw, "id", str, path), child(raw, "unit", str, path, ""),
            child(raw, "driver", str, path),
        )
        if any(d.id == dim.id for d in dims):
            raise ParseError(f"{path}.id", f"dimension {dim.id!r} given twice")
        driver = spec.descriptor(dim.driver, f"{path}.driver")
        labels = driver.state_labels()
        dims.append(dim)
        raw_vals, seen = child(raw, "values", dict, path, {}), set()
        for ref in raw_vals:
            node = f"{path}.values.{ref}"
            state = resolve_state(driver, ref if ref in labels else _integer(ref), node)
            if state in seen:
                raise ParseError(node, f"state {state} of {dim.driver!r} given twice")
            seen.add(state)
            value = child(raw_vals, ref, (float, dict), f"{path}.values")
            if type(value) is not dict:
                entries[dim.id, state] = value
                continue
            for p in value:
                period = _integer(p)
                if type(period) is not int:
                    raise ParseError(f"{node}.{p}", "a period is an integer")
                timed[dim.id, state, period] = child(value, p, float, node)
    return tuple(dims), TranslationMatrix(entries, timed)


def _integer(text: str) -> int | str:
    """text as an int if it is the decimal text of one, else text."""
    return int(text) if text.removeprefix("-").isdecimal() else text


def load_translation_file(path: str, spec: StudySpec) -> tuple[tuple[Dimension, ...], TranslationMatrix]:
    return read_file(path, parse_translation_file, spec)


def parse_identities(doc: dict, dimensions: tuple[Dimension, ...]) -> tuple[Identity, ...]:
    """Identities file over the given dimensions; a missing node, one of the
    wrong JSON type, an identity without exactly one of equals and
    equals_dimension, with no adjustable dimension, one that is not a term
    of it or one that an earlier identity adjusts, an equals_dimension that
    is one of its adjustable terms, or one naming a dimension not in
    dimensions raises ParseError naming it."""
    out, adjusted = [], {}
    known = {d.id for d in dimensions}
    for i, raw in enumerate(child(doc, "identities", [dict], "", [])):
        path = f"identities[{i}]"
        terms = child(raw, "terms", dict, path)
        ident = Identity(
            name=child(raw, "name", str, path, f"identity-{i}"),
            terms=tuple((d, child(terms, d, float, f"{path}.terms")) for d in terms),
            adjustable=tuple(child(raw, "adjustable", [str], path)),
            rhs_value=child(raw, "equals", float, path, None),
            rhs_dimension=child(raw, "equals_dimension", str, path, None),
        )
        name = ident.name
        if not ident.adjustable:
            raise ParseError(f"{path}.adjustable", f"identity {name!r} has no adjustable dimension")
        for d in ident.adjustable:
            if d not in terms:
                raise ParseError(f"{path}.adjustable", f"{d!r} is not a term of identity {name!r}")
            if d in adjusted:
                raise ParseError(f"{path}.adjustable", f"{d!r} is adjusted by {adjusted[d]} already")
            adjusted[d] = path
        if not any(c for d, c in ident.terms if d in ident.adjustable):
            raise ParseError(f"{path}.adjustable", f"identity {name!r} has only zero adjustable terms")
        if ident.rhs_dimension in ident.adjustable:
            raise ParseError(f"{path}.equals_dimension", f"identity {name!r} equals its adjustable term")
        unknown = sorted({*terms, ident.rhs_dimension} - known - {None})
        if unknown:
            raise ParseError(path, f"identity {name!r} names unknown dimensions {unknown}")
        if (ident.rhs_value is None) == (ident.rhs_dimension is None):
            raise ParseError(path, f"identity {name!r} needs exactly one of equals and equals_dimension")
        out.append(ident)
    return tuple(out)


def quantified_table_rows(qp: QuantifiedPathway) -> list[dict]:
    """Delimited-table form: one row per (dimension, period)."""
    units = {d.id: d.unit for d in qp.dimensions}
    rows = []
    for (d, p), v in qp.values.items():
        low, high = qp.ranges.get((d, p), ("", ""))
        rows.append({"dimension": d, "unit": units[d], "period": p, "central": v, "low": low,
                     "high": high, "provenance": qp.provenance.get((d, p), "lookup")})
    return rows
