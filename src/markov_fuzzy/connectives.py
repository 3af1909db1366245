"""One-parameter families of fuzzy connectives.

Two predicates with confidences p1 and p2 admit a one-parameter family of
joint 2x2 distributions; the parameter q is the confidence that *neither*
predicate holds.  Each binary connective then has a closed-form confidence
in terms of (p1, p2, q):

    and:      p1 + p2 + q - 1
    or:       1 - q
    implies:  p2 + q

The feasible range of q is [q_min, q_max]; the endpoints reproduce the
classic extremal fuzzy connectives and q_indep = (1-p1)(1-p2) reproduces
the independent ("product") flavor.  All functions here are pure maps and
safe to share between threads.  `and_q`, `or_q` and `implies_q` take one
q each; `sweep` evaluates its q grid row by row with their expressions.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._common import EPS_FEAS, FrozenValue, check_belief, clip01, to_float
from .errors import InfeasibleQ, InvalidParameter

__all__ = [
    "QBounds",
    "fuzzy_not",
    "q_bounds",
    "clamp_q",
    "and_q",
    "or_q",
    "implies_q",
    "classic",
    "de_morgan_dual",
]

KINDS = ("and", "or", "implies")
FLAVORS = ("min", "indep", "max")


class QBounds(FrozenValue):
    """Feasible range and independence point for the both-false confidence."""

    _fields = ("q_min", "q_indep", "q_max")

    def __init__(self, q_min: float, q_indep: float, q_max: float):
        self.__dict__.update(q_min=q_min, q_indep=q_indep, q_max=q_max)

    def __iter__(self):
        return iter((self.q_min, self.q_indep, self.q_max))

    def contains(self, q: float, tol: float = EPS_FEAS) -> bool:
        return self.q_min - tol <= q <= self.q_max + tol


def fuzzy_not(p: float) -> float:
    """Confidence of the negated predicate: 1 - p."""
    return 1.0 - check_belief(p, "p")


def _q_range(p1: float, p2: float) -> tuple:
    """(q_min, q_max) for checked beliefs p1 and p2."""
    return max(0.0, 1.0 - (p1 + p2)), 1.0 - max(p1, p2)


def q_bounds(p1: float, p2: float) -> QBounds:
    """Feasible q range for marginals (p1, p2).

    q_min = max(0, 1 - (p1 + p2)), q_max = 1 - max(p1, p2), and the
    independence value q_indep = (1 - p1)(1 - p2) always lies between them.
    """
    p1 = check_belief(p1, "p1")
    p2 = check_belief(p2, "p2")
    q_min, q_max = _q_range(p1, p2)
    q_indep = (1.0 - p1) * (1.0 - p2)
    # Guard against rounding placing q_indep a hair outside the interval.
    q_indep = min(max(q_indep, q_min), q_max)
    return QBounds(q_min=q_min, q_indep=q_indep, q_max=q_max)


def clamp_q(p1: float, p2: float, q: float) -> float:
    """Project q onto the feasible interval [q_min, q_max] of (p1, p2); NaN
    raises InvalidParameter."""
    b = q_bounds(p1, p2)
    q = to_float(q, "q")
    if math.isnan(q):
        raise InvalidParameter("q must not be NaN")
    return min(max(q, b.q_min), b.q_max)


def _feasible_q(p1: float, p2: float, q) -> tuple:
    """Validate (p1, p2, q) and return the triple with q exactly feasible,
    as `_clamped_q` makes it."""
    p1 = check_belief(p1, "p1")
    p2 = check_belief(p2, "p2")
    return p1, p2, _clamped_q(p1, p2, _q_range(p1, p2), q)


def _clamped_q(p1: float, p2: float, q_range: tuple, q) -> float:
    """q for the checked beliefs p1 and p2, whose `_q_range` is `q_range`:
    q within EPS_FEAS of the interval is clamped to the boundary; anything
    farther out raises InfeasibleQ."""
    q = to_float(q, "q")
    q_min, q_max = q_range
    if not q_min - EPS_FEAS <= q <= q_max + EPS_FEAS:
        raise InfeasibleQ(
            f"q={q} outside feasible range [{q_min}, {q_max}] "
            f"for marginals ({p1}, {p2})"
        )
    return min(max(q, q_min), q_max)


def _pair_cells(p1: float, p2: float, q) -> list:
    """The 2x2 table of marginals (p1, p2) and both-false confidence q, in
    table-index order [p_FF, p_TF, p_FT, p_TT] (the first letter names
    predicate 1)."""
    return [q, (1.0 - p2) - q, (1.0 - p1) - q, p1 + p2 - 1.0 + q]


def _add_pair_q(pairs: dict, pair, p1: float, p2: float, q) -> None:
    """Record the both-false confidence of `pair`, whose marginals p1 and
    p2 the caller has checked, in `pairs`, clamped by `_clamped_q`.

    A pair given twice must repeat its value within EPS_FEAS.
    """
    q = to_float(q, "q")
    if pair in pairs and abs(pairs[pair] - q) > EPS_FEAS:
        raise InfeasibleQ(
            f"conflicting q values for pair {pair}: {pairs[pair]} vs {q}"
        )
    try:
        pairs[pair] = _clamped_q(p1, p2, _q_range(p1, p2), q)
    except InfeasibleQ as exc:
        raise InfeasibleQ(f"pair {pair}: {exc}") from None


def _connectives(p1: float, p2: float, q: float) -> tuple:
    """(and, or, implies) confidences of a triple that `_feasible_q` returned."""
    return clip01(p1 + p2 + q - 1.0), clip01(1.0 - q), clip01(p2 + q)


def and_q(p1: float, p2: float, q: float) -> float:
    """Confidence of the conjunction under both-false confidence q."""
    return _connectives(*_feasible_q(p1, p2, q))[0]


def or_q(p1: float, p2: float, q: float) -> float:
    """Confidence of the disjunction under both-false confidence q."""
    return _connectives(*_feasible_q(p1, p2, q))[1]


def implies_q(p1: float, p2: float, q: float) -> float:
    """Confidence of the implication under both-false confidence q."""
    return _connectives(*_feasible_q(p1, p2, q))[2]


def _frechet_and(los: Sequence[float], his: Sequence[float]) -> tuple[float, float]:
    """Exact range of P(e_1 and ... and e_k) when each P(e_i) may take any
    value in [los[i], his[i]] and the events may be coupled in any way:
    [max(0, sum(los) - (k - 1)), min(his)] (Frechet 1935).  The lower end
    is one exactly rounded sum, so it never exceeds the upper one and does
    not depend on the order of the events."""
    return max(0.0, math.fsum([*los, 1 - len(los)])), min(his)


def _frechet_or(los: Sequence[float], his: Sequence[float]) -> tuple[float, float]:
    """Exact range of P(e_1 or ... or e_k) under the premises of
    `_frechet_and`: [max(los), min(1, sum(his))]."""
    return max(los), min(1.0, math.fsum(his))


def classic(p1: float, p2: float, kind: str, flavor: str) -> float:
    """Closed-form classic fuzzy connectives.

    kind is one of "and", "or", "implies"; flavor one of "min", "indep",
    "max".  Each flavor equals the q-parametrized connective at a specific
    q: the "and" family pairs min with q_min and max with q_max, while the
    "or" and "implies" families pair min with q_max and max with q_min
    (their values decrease in q for "or", increase for "implies"; the
    min/max names follow the value ordering, not the q endpoint).  The min
    and max are the ends of `_frechet_and` / `_frechet_or` of the two
    predicates, with p1 -> p2 read as (not p1) or p2.
    """
    p1 = check_belief(p1, "p1")
    p2 = check_belief(p2, "p2")
    if kind not in KINDS:
        raise InvalidParameter(f"unknown kind {kind!r}; expected one of {KINDS}")
    if flavor not in FLAVORS:
        raise InvalidParameter(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    if flavor == "indep":
        if kind == "and":
            return p1 * p2
        if kind == "or":
            return p1 + p2 - p1 * p2
        return 1.0 - p1 + p1 * p2
    if kind == "implies":
        p1 = 1.0 - p1
    ends = (_frechet_and if kind == "and" else _frechet_or)((p1, p2), (p1, p2))
    return ends[0] if flavor == "min" else ends[1]


def de_morgan_dual(p1: float, p2: float, q: float) -> tuple[float, float, float]:
    """Parameters of the de Morgan partner of an "or".

    Returns (1-p1, 1-p2, q') with q' = and_q(p1, p2, q), so that

        or_q(p1, p2, q) == 1 - and_q(1-p1, 1-p2, q')

    and q' is feasible for the negated marginals.
    """
    q_dual = and_q(p1, p2, q)
    n1, n2 = fuzzy_not(p1), fuzzy_not(p2)
    # q' = p_TT of the original pair; feasible for (1-p1, 1-p2) by
    # construction, but rounding may leave it a hair outside.
    return n1, n2, clamp_q(n1, n2, q_dual)
