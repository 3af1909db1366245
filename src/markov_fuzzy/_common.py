"""Shared numeric conventions: tolerances, the dense-table cap, scalar
checks, and the base of the immutable value classes.

Importing it loads only `math` and the package's errors: `check_int`
imports `numbers` on the first integer that is not an exact int."""

from __future__ import annotations

import math

from .errors import ArityTooLarge, InvalidBelief, InvalidParameter

#: Dense tables are capped at 2**N_MAX entries.
N_MAX = 24

#: Tolerance for "sums to one" and for unit-interval input noise.
EPS_SIMPLEX = 1e-9

#: Tolerance for q-feasibility against [q_min, q_max].
EPS_FEAS = 1e-12


#: What float() reads as a number but a number check refuses: text and bools.
_NOT_NUMBERS = (str, bytes, bytearray, bool)


def to_float(value, name: str = "value", error: type = InvalidParameter) -> float:
    """float(value), except that an integer too large for a float reads as
    +-inf, as the JSON literal 1e400 does, instead of raising OverflowError,
    and that text, a bool (numpy's too: any value of a boolean dtype) or a
    value float() rejects raises `error` naming `name` (float() would read
    "0.5" and True as numbers)."""
    if type(value) is float:  # the common case, returned before the type checks
        return value
    if isinstance(value, _NOT_NUMBERS) or _dtype_kind(value) == "b":
        raise error(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {value!r}") from None


def _dtype_kind(value):
    """The kind code of a numpy value's dtype ("b" for a bool), read
    without importing numpy; None for any other value."""
    return getattr(getattr(value, "dtype", None), "kind", None)


def to_tuple(value, name: str) -> tuple:
    """tuple(value), or InvalidParameter naming `name` if it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be iterable, got {value!r}") from None


def check_belief(value, name: str = "belief") -> float:
    """Validate a confidence value in [0, 1].

    Excursions within EPS_SIMPLEX (rounding noise in user data) are clamped
    to the boundary; anything larger raises InvalidBelief.  An integer too
    large for a float is not finite: it reads as the infinity it rounds to.
    """
    x = to_float(value, name, InvalidBelief)
    if not math.isfinite(x):
        shown = x if isinstance(value, int) else value
        raise InvalidBelief(f"{name} must be finite, got {shown!r}")
    if x < -EPS_SIMPLEX or x > 1.0 + EPS_SIMPLEX:
        raise InvalidBelief(f"{name} must be in [0, 1], got {x}")
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def check_int(value, what: str, error: type = InvalidParameter) -> int:
    """`value` as an int when it is an int or a numbers.Integral other than
    a bool (int() would read True as 1 and truncate 2.7); otherwise
    `error` saying "<what>, got <value>".  An exact int returns at once;
    only another value imports `numbers` (numpy, whose integers are the
    usual case, has loaded it already)."""
    if type(value) is int:
        return value
    from numbers import Integral

    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{what}, got {value!r}")
    return int(value)


def check_arity(n, name: str = "arity") -> int:
    """Validate a table arity against the dense cap."""
    n = check_int(n, f"{name} must be an integer")
    if n < 0:
        raise InvalidParameter(f"{name} must be nonnegative, got {n}")
    if n > N_MAX:
        raise ArityTooLarge(f"{name}={n} exceeds the dense-table cap N_MAX={N_MAX}")
    return n


def clip01(x) -> float:
    """x clamped to [0, 1] as a float."""
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return float(x)


class Frozen:
    """Base of the package's immutable value classes.  A subclass names its
    fields in `_fields` and its `__init__` writes them into the instance
    `__dict__`; after that, assigning or deleting an attribute raises
    AttributeError.  The repr lists the fields: `Var(name='A')`."""

    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenValue(Frozen):
    """A Frozen class whose instances are equal, and hash alike, when they
    are of one class and their fields are equal."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())
