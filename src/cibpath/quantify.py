"""Translation of a selected pathway into model-ready input tables.

State-to-value lookups per dimension (optionally time-dependent), panel
overrides with provenance, expert uncertainty ranges, terminal-period
extreme scenarios, and optional linear identity enforcement by
proportional rescaling of designated adjustable dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .analytics import row_keys
from .engine import Scenario
from .errors import ConfigError, CoverageError, OutOfRangeError, ParseError
from .model import STATE_REF, StudySpec, child, read_json, resolve_state
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
class CellProvenance:
    origin: str  # "lookup" | "override" | "repair"
    state: Optional[int] = None
    note: str = ""


@dataclass(frozen=True)
class QuantifiedPathway:
    """Cell tables keyed by (dimension id, period), in table row order:
    dimension by dimension, and by period within a dimension."""

    dimensions: tuple[Dimension, ...]
    periods: tuple[int, ...]
    values: dict[tuple[str, int], float]
    ranges: dict[tuple[str, int], tuple[float, float]] = field(default_factory=dict)
    provenance: dict[tuple[str, int], CellProvenance] = field(default_factory=dict)


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
    overrides: tuple[tuple[str, int, float, str], ...] = (),
) -> QuantifiedPathway:
    """Pure lookup of each dimension's driver state per period; overrides
    replace looked-up values and are recorded in provenance."""
    known = {d.id for d in dimensions}
    over = {}
    for did, period, value, note in overrides:
        if did not in known:
            raise ConfigError(f"override references unknown dimension {did!r}")
        if period not in pathway.periods:
            raise ConfigError(f"override references unknown period {period}")
        over[did, period] = (value, note)
    values, provenance = {}, {}
    for dim in dimensions:
        j = spec.index_of(dim.driver)
        for period, scenario in pathway.entries:
            cell, state = (dim.id, period), scenario[j]
            if cell in over:
                values[cell], note = over[cell]
                provenance[cell] = CellProvenance("override", state, note)
            else:
                values[cell] = matrix.value(dim.id, state, period)
                provenance[cell] = CellProvenance("lookup", state)
    return QuantifiedPathway(dimensions, pathway.periods, values, {}, provenance)


def _range_rule(ranges: dict, d: str) -> Callable[[float], tuple[float, float]]:
    """Dimension d's range in ranges as the map from a central value to its
    (low, high) band."""
    rs, path = child(ranges, d, dict, "ranges"), f"ranges.{d}"
    if "relative" in rs:
        f = child(rs, "relative", float, path)
        return lambda central: tuple(sorted((central * (1 - f), central * (1 + f))))
    if "low_offset" in rs or "high_offset" in rs:
        low, high = (child(rs, key, float, path, 0.0) for key in ("low_offset", "high_offset"))
        return lambda central: (central + low, central + high)
    low, high = child(rs, "low", float, path), child(rs, "high", float, path)
    return lambda central: (low, high)


def attach_uncertainty_ranges(qp: QuantifiedPathway, range_spec: dict) -> QuantifiedPathway:
    """Fill per-cell (low, high) bands from a per-dimension range spec.

    Per dimension either {"relative": f} (central * (1 -/+ f)),
    {"low_offset": a, "high_offset": b}, or absolute {"low": x, "high": y}.
    A range that is not such an object, or a key that is not one of qp's
    dimensions, raises ParseError naming ranges.<key>, and a value that is
    not a number ranges.<key>.<field>.
    """
    if type(range_spec) is not dict:
        raise ParseError("ranges", "not an object of dimension -> range")
    known = {d.id for d in qp.dimensions}
    rules = {}
    for d in range_spec:
        if d not in known:
            raise ParseError(f"ranges.{d}", f"{d!r} is not a dimension of the translation file")
        rules[d] = _range_rule(range_spec, d)
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
    axes_config: dict,
) -> tuple[tuple[ExtremeScenario, ...], tuple[str, ...]]:
    """Terminal-period bounding cases along the configured axes.

    axes_config keys, read by read_extreme_axes: "outcome" ({"descriptor":
    id}), "descriptor_stacks" ({label: {descriptor: state}}), "frequency"
    ({"min_count": n}, an integer). Returns (scenarios, warnings); an axis
    with no matching ensemble scenario is skipped with a warning.
    """
    outcome, stacks, min_count = read_extreme_axes(axes_config, spec)
    terminals = ensemble.ok_states[:, -1]
    terminal_period = ensemble.time_grid[-1]
    _, first, sizes = np.unique(row_keys(terminals), return_index=True, return_counts=True)
    counts = dict(zip(map(tuple, terminals[first].tolist()), sizes.tolist()))
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

    rhs is a constant or the value of a designated total dimension.
    Only dimensions flagged adjustable may be rescaled during repair.
    """

    name: str
    terms: tuple[tuple[str, float], ...]  # (dimension, coefficient)
    adjustable: tuple[str, ...]
    rhs_value: Optional[float] = None
    rhs_dimension: Optional[str] = None


def enforce_identities(
    qp: QuantifiedPathway, identities: tuple[Identity, ...]
) -> QuantifiedPathway:
    """Repair violated identities per period by proportionally rescaling the
    adjustable dimensions onto the constraint; satisfied identities leave
    values untouched and repairs land in provenance."""
    values = dict(qp.values)
    prov = dict(qp.provenance)
    for k, ident in enumerate(identities):
        node, name = f"identities[{k}]", ident.name
        if not ident.adjustable:
            raise ConfigError(f"{node}.adjustable: identity {name!r} has no adjustable dimension")
        term_dims = {d for d, _ in ident.terms}
        for d in ident.adjustable:
            if d not in term_dims:
                raise ConfigError(f"{node}.adjustable: {d!r} is not a term of identity {name!r}")
        named = term_dims if ident.rhs_dimension is None else term_dims | {ident.rhs_dimension}
        unknown = sorted(named - {d.id for d in qp.dimensions})
        if unknown:
            raise ConfigError(f"{node}: identity {name!r} names unknown dimensions {unknown}")
        for period in qp.periods:
            if ident.rhs_dimension is not None:
                rhs = values[ident.rhs_dimension, period]
            else:
                rhs = float(ident.rhs_value or 0.0)
            lhs = sum(c * values[d, period] for d, c in ident.terms)
            if abs(lhs - rhs) <= IDENTITY_TOL:
                continue
            fixed = sum(
                c * values[d, period]
                for d, c in ident.terms
                if d not in ident.adjustable
            )
            current = lhs - fixed
            target = rhs - fixed
            if current == 0.0:
                raise ConfigError(
                    f"{node}: identity {name!r} unrepairable at period {period}: "
                    "adjustable contribution is zero"
                )
            scale = target / current
            for d in ident.adjustable:
                values[d, period] *= scale
                prov[d, period] = CellProvenance(
                    "repair",
                    prov[d, period].state,
                    f"identity {ident.name!r}: scaled by {scale:.6g}",
                )
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
    return parse_translation_file(read_json(path), spec)


def parse_identities(doc: dict) -> tuple[Identity, ...]:
    """Identities file; a missing node or one of the wrong JSON type raises
    ParseError naming it."""
    out = []
    for i, raw in enumerate(child(doc, "identities", [dict], "", [])):
        path = f"identities[{i}]"
        terms = child(raw, "terms", dict, path)
        out.append(Identity(
            name=child(raw, "name", str, path, f"identity-{i}"),
            terms=tuple((d, child(terms, d, float, f"{path}.terms")) for d in terms),
            adjustable=tuple(child(raw, "adjustable", [str], path)),
            rhs_value=child(raw, "equals", float, path, None),
            rhs_dimension=child(raw, "equals_dimension", str, path, None),
        ))
    return tuple(out)


def quantified_table_rows(qp: QuantifiedPathway) -> list[dict]:
    """Delimited-table form: one row per (dimension, period)."""
    units = {d.id: d.unit for d in qp.dimensions}
    rows = []
    for (d, p), v in qp.values.items():
        low, high = qp.ranges.get((d, p), ("", ""))
        prov = qp.provenance[d, p]
        origin = f"{prov.origin}:{prov.note}" if prov.note else prov.origin
        rows.append({"dimension": d, "unit": units[d], "period": p, "central": v,
                     "low": low, "high": high, "provenance": origin})
    return rows
