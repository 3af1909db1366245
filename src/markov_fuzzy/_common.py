"""Shared numeric conventions: tolerances, the dense-table cap, scalar checks."""

from __future__ import annotations

import math
import sys
from numbers import Integral

from .errors import ArityTooLarge, InvalidBelief, InvalidParameter

#: Dense tables are capped at 2**N_MAX entries.
N_MAX = 24

#: Tolerance for "sums to one" and for unit-interval input noise.
EPS_SIMPLEX = 1e-9

#: Tolerance for q-feasibility against [q_min, q_max].
EPS_FEAS = 1e-12


def to_float(value) -> float:
    """float(value), except that an integer too large for a float reads as
    +-inf, as the JSON literal 1e400 does, instead of raising OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_belief(value, name: str = "belief") -> float:
    """Validate a confidence value in [0, 1].

    Excursions within EPS_SIMPLEX (rounding noise in user data) are clamped
    to the boundary; anything larger raises InvalidBelief.  An integer too
    large for a float is not finite: it reads as the infinity it rounds to.
    """
    x = to_float(value)
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
    `error` saying "<what>, got <value>"."""
    if isinstance(value, bool) or not isinstance(value, (int, Integral)):
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


def clip01(x):
    """x clamped to [0, 1]; elementwise, with the same comparisons (signed
    zeros kept), for a numpy array."""
    # Imports nothing: an array can only exist once numpy is loaded.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(x, np.ndarray):
        return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return float(x)
