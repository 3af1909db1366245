"""Joint probability distributions over tuples of Booleans.

A joint confidence in n predicates (at one point of the underlying space)
is a probability table over B^n with 2**n entries.  Index convention,
fixed and shared with all serialization: variable i (1-based) contributes
2**(i-1) to the table index when it is true.  Index 0 is therefore the
all-false corner and, for n = 2, the table reads

    [p_FF, p_TF, p_FT, p_TT]

with the first letter naming predicate 1.

Distributions are immutable after construction; every operation is pure
and returns a new value, so instances are safe to share between threads.
Pushforward and marginal sums are accumulated from 0.0 in ascending index
order (pushforward by an in-order `np.add.at`), which makes results
reproducible bit for bit on a given build.

A caller's table meets one rule, `make_joint`'s, in `JointBooleanDist`
and `FiniteDist` alike: they copy and check it.  The kernels here build
each output table once and hand it over as it is (`_adopt`): no caller
holds a reference to it, and it is never renormalised.  `_joint_cells`
is the same rule on a plain list, for callers that load no numpy.

numpy is imported inside the functions that build tables, so importing
this module (and the package) loads none.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

from ._common import EPS_SIMPLEX, N_MAX, Frozen, check_arity, check_belief, check_int
from ._common import to_float, to_tuple
from .boolfuncs import BooleanFunction, assignment_index, index_assignment
from .connectives import _feasible_q, _pair_cells
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    BadCoordinate,
    InvalidParameter,
    NegativeMass,
    NotNormalized,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "JointBooleanDist",
    "FiniteDist",
    "make_joint",
    "independent_product",
    "marginal",
    "pair_from_pq",
    "pushforward",
    "pushforward_finite",
]


class _Table(Frozen):
    """A frozen pair of a key (an arity or an alphabet) and `probs`."""

    @classmethod
    def _adopt(cls, key, probs: np.ndarray):
        """Wrap a table that a kernel has just built: made read-only in
        place, neither copied nor checked."""
        probs.flags.writeable = False
        table = object.__new__(cls)
        table.__dict__.update(zip(cls._fields, (key, probs)))
        return table


class JointBooleanDist(_Table):
    """Probability table over B^arity, indexed by packed assignments;
    `probs` is copied and checked by `make_joint`'s rule."""

    _fields = ("arity", "probs")

    def __init__(self, arity: int, probs: np.ndarray):
        arity = check_arity(arity)
        probs = _probabilities(probs, 1 << arity, f"arity {arity}")
        self.__dict__.update(arity=arity, probs=probs)

    def prob(self, assignment: Sequence[bool]) -> float:
        """Probability of one full assignment (a1, ..., an)."""
        assignment = to_tuple(assignment, "assignment")
        if len(assignment) != self.arity:
            raise ArityMismatch(
                f"expected {self.arity} coordinates, got {len(assignment)}"
            )
        return float(self.probs[assignment_index(assignment)])

    def prob_true(self, coord: int = 1) -> float:
        """Marginal confidence that predicate `coord` (1-based) is true."""
        return float(marginal(self, (coord,)).probs[1])

    def __repr__(self):
        return f"JointBooleanDist(arity={self.arity}, probs={self.probs.tolist()})"


class FiniteDist(_Table):
    """Probability distribution over a small ordered alphabet of distinct,
    hashable labels; `probs` is copied and checked by `make_joint`'s rule."""

    _fields = ("alphabet", "probs")

    def __init__(self, alphabet: tuple, probs: np.ndarray):
        labels = to_tuple(alphabet, "alphabet")
        try:
            if len(set(labels)) != len(labels):
                raise InvalidParameter("alphabet labels must be distinct")
        except TypeError as exc:
            raise InvalidParameter(f"alphabet labels must be hashable: {exc}") from None
        probs = _probabilities(probs, len(labels), f"{len(labels)} labels")
        self.__dict__.update(alphabet=labels, probs=probs)

    def prob(self, label) -> float:
        try:
            return float(self.probs[self.alphabet.index(label)])
        except ValueError:
            raise InvalidParameter(f"label {label!r} is not in the alphabet") from None

    def __repr__(self):
        return f"FiniteDist({dict(zip(self.alphabet, self.probs.tolist()))})"


#: Entries per block of `_exact_sum`: its four reused buffers take 28 bytes
#: per entry, about 0.44 MiB in all.
_SUM_BLOCK = 1 << 14
#: frexp exponents of finite doubles run from -1073 (subnormals) to 1024.
_EXP_MIN = -1073
_EXP_SLOTS = 1024 - _EXP_MIN + 1


def _exact_sum(values: np.ndarray) -> float:
    """The exactly rounded sum of finite float64 values: math.fsum, bit for
    bit, without building a Python list.

    Each x = m * 2**e (frexp) has the integer mantissa m * 2**53 =
    hi * 2**26 + lo with hi < 2**27 and lo < 2**26.  Per exponent, the
    halves of all entries are summed by bincount block by block; every
    partial sum stays below 2**51 for tables up to 2**N_MAX entries, so the
    float sums are exact integers.  They are added as Python ints and
    rounded once, by int true division.  A sum beyond the float range is
    inf, where math.fsum raises OverflowError.
    """
    import numpy as np

    hi_sums = np.zeros(_EXP_SLOTS)
    lo_sums = np.zeros(_EXP_SLOTS)
    # Buffers reused by every block; the mantissa buffer holds top, then lo.
    size = min(values.size, _SUM_BLOCK)
    buffers = (
        np.empty(size),
        np.empty(size, np.intc),
        np.empty(size, np.intp),
        np.empty(size),
    )
    for start in range(0, values.size, _SUM_BLOCK):
        block = values[start : start + _SUM_BLOCK]
        mantissa, exponent, slot, hi = (b[: block.size] for b in buffers)
        np.frexp(block, mantissa, exponent)
        np.subtract(exponent, _EXP_MIN, out=slot, casting="unsafe")
        np.ldexp(mantissa, 27, out=mantissa)
        np.floor(mantissa, out=hi)
        np.subtract(mantissa, hi, out=mantissa)
        np.ldexp(mantissa, 26, out=mantissa)
        hi_sums += np.bincount(slot, hi, _EXP_SLOTS)
        lo_sums += np.bincount(slot, mantissa, _EXP_SLOTS)
    total = 0
    for s in np.flatnonzero((hi_sums != 0) | (lo_sums != 0)).tolist():
        total += ((int(hi_sums[s]) << 26) + int(lo_sums[s])) << s
    try:
        return total / (1 << (53 - _EXP_MIN))
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _float_array(values) -> np.ndarray:
    """A new float64 array of values.  An array of int, uint or float dtype
    is converted as it is; any other (text, bytes, bools, complex, or
    objects such as an int too large for a float) is read entry by entry
    by `to_float`, so a value that is not a number raises InvalidParameter
    and a huge integer reads as +-inf, as the literal 1e400 does.  numpy
    reads a bool beside numbers in a list or tuple as a number, so those
    are refused before."""
    import numpy as np

    if isinstance(values, (list, tuple)) and bool in set(map(type, values)):
        for value in values:
            to_float(value, "probability")  # raises at the first bool at the latest
    try:
        arr = np.array(values)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"probabilities must be numbers: {exc}") from None
    if arr.dtype.kind in "iuf":
        return arr.astype(np.float64, copy=False)
    read = np.frompyfunc(lambda value: to_float(value, "probability"), 1, 1)
    return np.array(read(arr), dtype=np.float64)


def _probabilities(values, size: int, what: str) -> np.ndarray:
    """`values` as a new read-only table of `size` entries, by `make_joint`'s
    rule; `what` names the size in the length error."""
    import numpy as np

    arr = _float_array(values)
    if arr.shape != (size,):
        raise ArityMismatch(
            f"need {size} probabilities for {what}, got shape {arr.shape}"
        )
    # min and max are NaN if any entry is; 0.0 stands in for an empty table.
    lowest, highest = float(arr.min(initial=0.0)), float(arr.max(initial=0.0))
    if not (math.isfinite(lowest) and math.isfinite(highest)):
        raise NegativeMass("probabilities must be finite")
    if lowest < -EPS_SIMPLEX:
        raise NegativeMass(f"probability entry {lowest} is negative")
    np.maximum(arr, 0.0, out=arr)
    total = _exact_sum(arr)
    if abs(total - 1.0) > EPS_SIMPLEX:
        raise NotNormalized(f"probabilities sum to {total}, not 1")
    if total != 1.0:
        arr /= total
    arr.flags.writeable = False
    return arr


def make_joint(arity: int, probs) -> JointBooleanDist:
    """The joint table `JointBooleanDist(arity, probs)`, by the one rule for
    a probability table: finite entries, none below -EPS_SIMPLEX (those
    below zero, and -0.0, are set to +0.0), that sum to 1 within
    EPS_SIMPLEX; the table is then divided by its exactly rounded sum."""
    return JointBooleanDist(arity, probs)


def _joint_cells(arity, probs: list) -> list:
    """The entries of `make_joint(arity, probs)` as floats, each equal to
    its own (a -0.0 may keep its sign), from make_joint's checks in their
    order, in plain Python: `probs` holds the ints and floats of a JSON
    document, and math.fsum is `_exact_sum` on finite values."""
    arity = check_arity(arity)
    if len(probs) != 1 << arity:
        raise ArityMismatch(
            f"need {1 << arity} probabilities for arity {arity}, "
            f"got shape ({len(probs)},)"
        )
    try:
        probs = list(map(float, probs))
    except OverflowError:  # an int beyond the float range: to_float reads +-inf
        probs = [to_float(p) for p in probs]
    if not all(map(math.isfinite, probs)):
        raise NegativeMass("probabilities must be finite")
    lowest = min(probs)
    if lowest < -EPS_SIMPLEX:
        raise NegativeMass(f"probability entry {lowest} is negative")
    if lowest < 0.0:
        probs = [p if p >= 0.0 else 0.0 for p in probs]
    try:
        total = math.fsum(probs)
    except OverflowError:  # where `_exact_sum` rounds to inf
        total = math.inf
    if abs(total - 1.0) > EPS_SIMPLEX:
        raise NotNormalized(f"probabilities sum to {total}, not 1")
    if total != 1.0:
        probs = [p / total for p in probs]
    return probs


def independent_product(factors: Sequence[float]) -> JointBooleanDist:
    """Joint table of conditionally independent predicates.

    Entry (a1, ..., an) is the product of p_i when a_i is true and 1 - p_i
    when false; every single-coordinate marginal recovers p_i.
    """
    import numpy as np

    ps = [check_belief(p, f"factor {i + 1}") for i, p in enumerate(factors)]
    if not ps:
        raise BadCoordinate("independent_product needs at least one factor")
    if len(ps) > N_MAX:
        raise ArityTooLarge(f"{len(ps)} factors exceed N_MAX={N_MAX}")
    table = np.empty(1 << len(ps), dtype=np.float64)
    table[0] = 1.0
    half = 1
    for p in ps:
        # Stacks the new predicate as the next-higher bit: the upper half
        # before the lower half is scaled in place.
        np.multiply(table[:half], p, out=table[half : 2 * half])
        table[:half] *= 1.0 - p
        half *= 2
    return JointBooleanDist._adopt(len(ps), table)


def _coords_to_bits(coords: Sequence[int], arity: int) -> list[int]:
    what = "coordinates must be integers"
    coords = [check_int(c, what, BadCoordinate) for c in coords]
    if not coords:
        raise BadCoordinate("coordinate selection must be nonempty")
    if len(set(coords)) != len(coords):
        raise BadCoordinate(f"duplicate coordinates in {coords}")
    for c in coords:
        if not 1 <= c <= arity:
            raise BadCoordinate(f"coordinate {c} out of range 1..{arity}")
    return [c - 1 for c in coords]


def marginal(dist: JointBooleanDist, coords: Sequence[int]) -> JointBooleanDist:
    """Marginal onto the given 1-based coordinates, order preserved.

    Each output entry is summed from 0.0 in ascending index order, as in
    `pushforward`.
    """
    import numpy as np

    bits = _coords_to_bits(coords, dist.arity)
    n = dist.arity
    if bits == [n - 1]:
        # Onto the highest coordinate alone, each half of the table is one
        # entry.  A cumsum adds a contiguous half in index order, as the
        # reduction below would add the rows of a (2**(n-1), 2) array, but
        # without its inner loop of length 2.  Its last partial sum plus
        # 0.0 is the sum from 0.0 (the addition turns -0.0 into 0.0).
        half = 1 << (n - 1)
        partial = np.empty(half)
        sides = (dist.probs[:half], dist.probs[half:])
        ends = [np.cumsum(side, out=partial)[-1] for side in sides]
        return JointBooleanDist._adopt(1, np.array(ends) + 0.0)
    # In the (2,)*n view, axis n-1-b holds bit b.  Dropped axes go first in
    # their own order, kept axes last with output bit 0 innermost; the
    # contiguous copy makes each column's reduction run down the rows in
    # ascending index order (a strided view may be summed pairwise).
    kept = [n - 1 - b for b in reversed(bits)]
    dropped = sorted(set(range(n)) - set(kept))
    rows = np.ascontiguousarray(
        dist.probs.reshape((2,) * n).transpose(dropped + kept)
    ).reshape(-1, 1 << len(bits))
    summed = np.add.reduce(rows, axis=0, initial=0.0)
    return JointBooleanDist._adopt(len(bits), summed)


def pair_from_pq(p1: float, p2: float, q: float) -> JointBooleanDist:
    """2x2 joint table from marginals (p1, p2) and both-false confidence q.

    p_FF = q, p_FT = (1-p1) - q, p_TF = (1-p2) - q, p_TT = p1 + p2 - 1 + q;
    the marginals of the result equal (p1, p2).  q outside the feasible
    interval (beyond EPS_FEAS) raises InfeasibleQ.
    """
    import numpy as np

    table = np.maximum(_pair_cells(*_feasible_q(p1, p2, q)), 0.0)
    return JointBooleanDist._adopt(2, table)


def pushforward(dist: JointBooleanDist, f: BooleanFunction) -> JointBooleanDist:
    """Transport the table through a Boolean function.

    Output entry b collects the probability of every input assignment a
    with f(a) = b; each sum runs from 0.0 in ascending index order.
    """
    import numpy as np

    if f.arity_in != dist.arity:
        raise ArityMismatch(
            f"function input arity {f.arity_in} != distribution arity {dist.arity}"
        )
    summed = np.zeros(1 << f.arity_out)
    np.add.at(summed, f.table, dist.probs)
    return JointBooleanDist._adopt(f.arity_out, summed)


def pushforward_finite(dist: JointBooleanDist, value_table) -> FiniteDist:
    """Transport the table through a map into an arbitrary finite alphabet.

    `value_table` is either a mapping from full assignments (tuples of
    booleans) to labels, total on B^n, or a sequence of 2**n labels in
    table-index order.  Output labels are ordered by first appearance in
    ascending index order.
    """
    import numpy as np

    size = 1 << dist.arity
    if isinstance(value_table, Mapping):
        keys = [index_assignment(idx, dist.arity) for idx in range(size)]
        missing = [key for key in keys if key not in value_table]
        if missing:
            raise ArityMismatch(
                f"value table is missing assignment {missing[0]!r}; it must be "
                f"total on B^{dist.arity}"
            )
        values = [value_table[key] for key in keys]
        count = len(value_table)
    else:
        values = to_tuple(value_table, "value_table")
        count = len(values)
    if count != size:
        raise ArityMismatch(f"value table has {count} entries, expected {size}")
    label_codes: dict = {}
    try:
        codes = [label_codes.setdefault(label, len(label_codes)) for label in values]
    except TypeError as exc:
        raise InvalidParameter(f"value table labels must be hashable: {exc}") from None
    summed = np.zeros(len(label_codes))
    np.add.at(summed, np.array(codes, dtype=np.int64), dist.probs)
    return FiniteDist._adopt(tuple(label_codes), summed)
