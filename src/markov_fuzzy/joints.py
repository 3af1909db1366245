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
order (pushforward by an in-order `np.add.at`), and `make_joint`
normalises by the exactly rounded sum of its entries, which makes results
reproducible bit for bit on a given build.

The public constructors copy and check the caller's array.  The kernels
here build each output table once and hand it over as it is: they have
already checked it, and no caller holds a reference to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._common import EPS_SIMPLEX, N_MAX, check_arity, check_belief, check_int, to_float
from .boolfuncs import BooleanFunction, index_assignment
from .connectives import _feasible_q, _pair_cells
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    BadCoordinate,
    InvalidParameter,
    NegativeMass,
    NotNormalized,
)

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


def _freeze(values, size: int) -> np.ndarray:
    """Read-only copy of a probability vector, checked for shape, sign and
    sum.  Structural sanity only; make_joint performs full input validation."""
    arr = _float_array(values)
    if arr.shape != (size,):
        raise ArityMismatch(f"expected {size} probabilities, got shape {arr.shape}")
    # Written as "not (ok)" so that NaN and +-inf fail the checks too.
    if arr.size and not arr.min() >= -4 * EPS_SIMPLEX:
        raise NegativeMass(f"negative probability {arr.min()}")
    if not abs(float(arr.sum()) - 1.0) <= 4 * EPS_SIMPLEX:
        raise NotNormalized(f"probabilities sum to {float(arr.sum())}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class JointBooleanDist:
    """Probability table over B^arity, indexed by packed assignments."""

    arity: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "arity", check_arity(self.arity))
        object.__setattr__(self, "probs", _freeze(self.probs, 1 << self.arity))

    @classmethod
    def _adopt(cls, arity: int, probs: np.ndarray) -> "JointBooleanDist":
        """Wrap a table that a kernel has just built and checked: made
        read-only in place, neither copied nor checked again."""
        probs.flags.writeable = False
        dist = object.__new__(cls)
        object.__setattr__(dist, "arity", arity)
        object.__setattr__(dist, "probs", probs)
        return dist

    def prob(self, assignment: Sequence[bool]) -> float:
        """Probability of one full assignment (a1, ..., an)."""
        from .boolfuncs import assignment_index

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


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """Probability distribution over a small ordered alphabet of labels."""

    alphabet: tuple
    probs: np.ndarray

    def __post_init__(self):
        labels = tuple(self.alphabet)
        if len(set(labels)) != len(labels):
            raise InvalidParameter("alphabet labels must be distinct")
        object.__setattr__(self, "alphabet", labels)
        object.__setattr__(self, "probs", _freeze(self.probs, len(labels)))

    def prob(self, label) -> float:
        return float(self.probs[self.alphabet.index(label)])

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
    """A new float64 array of values; an integer too large for a float
    reads as +-inf, as the literal 1e400 does."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return np.frompyfunc(to_float, 1, 1)(
            np.asarray(values, dtype=object)
        ).astype(np.float64)


def make_joint(arity: int, probs) -> JointBooleanDist:
    """Validate and construct a joint table.

    Entries must be finite and nonnegative (excursions below zero within
    EPS_SIMPLEX are clamped) and sum to 1 within EPS_SIMPLEX, in which case
    the table is renormalized by dividing by its exactly rounded sum.
    """
    arity = check_arity(arity)
    arr = _float_array(probs)
    if arr.shape != (1 << arity,):
        raise ArityMismatch(
            f"need {1 << arity} probabilities for arity {arity}, "
            f"got shape {arr.shape}"
        )
    # min and max are NaN if any entry is.
    lowest, highest = float(arr.min()), float(arr.max())
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
    return JointBooleanDist._adopt(arity, arr)


def independent_product(factors: Sequence[float]) -> JointBooleanDist:
    """Joint table of conditionally independent predicates.

    Entry (a1, ..., an) is the product of p_i when a_i is true and 1 - p_i
    when false; every single-coordinate marginal recovers p_i.
    """
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
    bits = _coords_to_bits(coords, dist.arity)
    n = dist.arity
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
    table = np.maximum(_pair_cells(*_feasible_q(p1, p2, q)), 0.0)
    return JointBooleanDist._adopt(2, table)


def pushforward(dist: JointBooleanDist, f: BooleanFunction) -> JointBooleanDist:
    """Transport the table through a Boolean function.

    Output entry b collects the probability of every input assignment a
    with f(a) = b; each sum runs from 0.0 in ascending index order.
    """
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
    size = 1 << dist.arity
    if isinstance(value_table, Mapping):
        values = []
        for idx in range(size):
            key = index_assignment(idx, dist.arity)
            if key not in value_table:
                raise ArityMismatch(
                    f"value table is missing assignment {key!r}; it must be "
                    f"total on B^{dist.arity}"
                )
            values.append(value_table[key])
        if len(value_table) != size:
            raise ArityMismatch(
                f"value table has {len(value_table)} entries, expected {size}"
            )
    else:
        values = list(value_table)
        if len(values) != size:
            raise ArityMismatch(
                f"value table has {len(values)} entries, expected {size}"
            )
    label_codes: dict = {}
    codes = np.empty(size, dtype=np.int64)
    for idx, label in enumerate(values):
        if label not in label_codes:
            label_codes[label] = len(label_codes)
        codes[idx] = label_codes[label]
    summed = np.zeros(len(label_codes))
    np.add.at(summed, codes, dist.probs)
    return FiniteDist(tuple(label_codes), summed)
