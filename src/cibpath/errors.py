"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CibError(Exception):
    """Base class for all cibpath errors."""


class ParseError(CibError):
    """A document violates the expected file schema.

    Carries the path of the offending node (e.g. ``cim[3].score``).
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class SpecReferenceError(ParseError):
    """A document references an unknown descriptor or state."""


class StructureError(CibError):
    """A matrix, scenario or rule does not fit the spec's descriptor/state layout."""


class InfeasibilityError(CibError):
    """No feasible state exists for a descriptor under the domain rules."""

    def __init__(self, descriptor_id: str):
        self.descriptor_id = descriptor_id
        super().__init__(f"no feasible state for descriptor {descriptor_id!r}")


class TractabilityError(CibError):
    """The scenario space exceeds the caller-supplied enumeration limit."""

    def __init__(self, space: int, limit: int):
        self.space = space
        self.limit = limit
        super().__init__(f"scenario space {space} exceeds limit {limit}")


class ValidationFailure(CibError):
    """A study spec failed validation with errors (a bad MCDA input is a ParseError)."""


class ConfigError(CibError):
    """Invalid runtime configuration (bad distribution, max_iter, paths, ...)."""


class OutOfRangeError(CibError):
    """A value lies outside its documented range (period, confidence, bound)."""


class EmptyInputError(CibError):
    """An aggregation was asked to operate on no data."""


class CoverageError(CibError):
    """A translation matrix is missing an entry required by a pathway."""


class InsufficientCandidatesError(CibError):
    """Fewer surviving pathways than the requested candidate count."""
