"""Semantic exception hierarchy.

Public operations raise these subclasses rather than bare ValueError so
callers (and the command-line front end) can map failures to diagnostics
and exit codes.
"""

from __future__ import annotations


class MarkovFuzzyError(Exception):
    """Base class for every error raised by this package."""


class InvalidBelief(MarkovFuzzyError, ValueError):
    """A confidence value is not a number in [0, 1]."""


class NegativeMass(MarkovFuzzyError, ValueError):
    """A probability entry is negative beyond tolerance."""


class NotNormalized(MarkovFuzzyError, ValueError):
    """A probability table does not sum to 1 within tolerance."""


class ArityTooLarge(MarkovFuzzyError, ValueError):
    """A requested table would exceed a dense-representation cap."""


class BadCoordinate(MarkovFuzzyError, ValueError):
    """A coordinate selection is empty, duplicated or out of range."""


class ArityMismatch(MarkovFuzzyError, ValueError):
    """Distribution arity and function arity do not line up."""


class InfeasibleQ(MarkovFuzzyError, ValueError):
    """A both-false confidence q is incompatible with the given marginals."""


class UnboundVariable(MarkovFuzzyError, ValueError):
    """A formula references a variable that no ordering or quantifier binds."""


class DuplicateVariable(MarkovFuzzyError, ValueError):
    """A variable name is bound twice."""


class MultiOutput(MarkovFuzzyError, ValueError):
    """An operation requires a single-output Boolean function."""


class InfeasibleSpec(MarkovFuzzyError, ValueError):
    """No joint distribution satisfies the supplied partial constraints."""


class EmptyUniverse(MarkovFuzzyError, ValueError):
    """A quantifier was applied over an empty universe."""


class MarginalMismatch(MarkovFuzzyError, ValueError):
    """Consecutive truncation levels are not marginally consistent."""


class UnsupportedLiftPolicy(MarkovFuzzyError, ValueError):
    """The requested joint-lift policy is not defined for these inputs."""


class SchemaError(MarkovFuzzyError, ValueError):
    """A model document does not match its JSON schema."""


class InvalidParameter(MarkovFuzzyError, ValueError):
    """A count, length, confidence level or sampling option is out of range."""


class SolverError(MarkovFuzzyError, RuntimeError):
    """The LP solver stopped without an optimum or a proof of infeasibility."""


class Cancelled(MarkovFuzzyError):
    """A long-running solve was interrupted by the caller's cancel check."""


class ParseError(MarkovFuzzyError, ValueError):
    """Formula text could not be parsed.

    Carries the byte span of the offending token and the set of token
    descriptions that would have been accepted at that point.
    """

    def __init__(self, message: str, span=None, expected=()):
        super().__init__(message)
        self.span = span
        self.expected = frozenset(expected)
