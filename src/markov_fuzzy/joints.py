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
Pushforward sums are accumulated in ascending index order, which makes
results reproducible bit for bit on a given build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._common import EPS_SIMPLEX, N_MAX, check_arity, check_belief
from .boolfuncs import BooleanFunction, index_assignment
from .connectives import _feasible_q
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    BadCoordinate,
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
    arr = np.asarray(values, dtype=np.float64).copy()
    if arr.shape != (size,):
        raise ArityMismatch(f"expected {size} probabilities, got shape {arr.shape}")
    if arr.size and arr.min() < -4 * EPS_SIMPLEX:
        raise NegativeMass(f"negative probability {arr.min()}")
    if abs(float(arr.sum()) - 1.0) > 4 * EPS_SIMPLEX:
        raise NotNormalized(f"probabilities sum to {float(arr.sum())}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class JointBooleanDist:
    """Probability table over B^arity, indexed by packed assignments."""

    arity: int
    probs: np.ndarray

    def __post_init__(self):
        check_arity(self.arity)
        object.__setattr__(self, "probs", _freeze(self.probs, 1 << self.arity))

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
            raise ValueError("alphabet labels must be distinct")
        object.__setattr__(self, "alphabet", labels)
        object.__setattr__(self, "probs", _freeze(self.probs, len(labels)))

    def prob(self, label) -> float:
        return float(self.probs[self.alphabet.index(label)])

    def __repr__(self):
        return f"FiniteDist({dict(zip(self.alphabet, self.probs.tolist()))})"


def make_joint(arity: int, probs) -> JointBooleanDist:
    """Validate and construct a joint table.

    Entries must be nonnegative (excursions below zero within EPS_SIMPLEX
    are clamped) and sum to 1 within EPS_SIMPLEX, in which case the table
    is renormalized exactly by dividing by its sum.
    """
    arity = check_arity(arity)
    arr = np.asarray(probs, dtype=np.float64)
    if arr.shape != (1 << arity,):
        raise ArityMismatch(
            f"need {1 << arity} probabilities for arity {arity}, "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise NegativeMass("probabilities must be finite")
    lowest = float(arr.min())
    if lowest < -EPS_SIMPLEX:
        raise NegativeMass(f"probability entry {lowest} is negative")
    arr = np.maximum(arr, 0.0)
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > EPS_SIMPLEX:
        raise NotNormalized(f"probabilities sum to {total}, not 1")
    if total != 1.0:
        arr = arr / total
    return JointBooleanDist(arity, arr)


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
    table = np.ones(1, dtype=np.float64)
    for p in ps:
        # Stacks the new predicate as the next-higher bit.
        table = np.concatenate([table * (1.0 - p), table * p])
    return JointBooleanDist(len(ps), table)


def _coords_to_bits(coords: Sequence[int], arity: int) -> list[int]:
    coords = [int(c) for c in coords]
    if not coords:
        raise BadCoordinate("coordinate selection must be nonempty")
    if len(set(coords)) != len(coords):
        raise BadCoordinate(f"duplicate coordinates in {coords}")
    for c in coords:
        if not 1 <= c <= arity:
            raise BadCoordinate(f"coordinate {c} out of range 1..{arity}")
    return [c - 1 for c in coords]


def marginal(dist: JointBooleanDist, coords: Sequence[int]) -> JointBooleanDist:
    """Marginal onto the given 1-based coordinates, order preserved."""
    bits = _coords_to_bits(coords, dist.arity)
    idx = np.arange(1 << dist.arity, dtype=np.int64)
    packed = np.zeros_like(idx)
    for new_bit, old_bit in enumerate(bits):
        packed |= ((idx >> old_bit) & 1) << new_bit
    summed = np.bincount(packed, weights=dist.probs, minlength=1 << len(bits))
    return JointBooleanDist(len(bits), summed)


def pair_from_pq(p1: float, p2: float, q: float) -> JointBooleanDist:
    """2x2 joint table from marginals (p1, p2) and both-false confidence q.

    p_FF = q, p_FT = (1-p1) - q, p_TF = (1-p2) - q, p_TT = p1 + p2 - 1 + q;
    the marginals of the result equal (p1, p2).  q outside the feasible
    interval (beyond EPS_FEAS) raises InfeasibleQ.
    """
    p1, p2, q = _feasible_q(p1, p2, q)
    p_ff = q
    p_ft = (1.0 - p1) - q
    p_tf = (1.0 - p2) - q
    p_tt = p1 + p2 - 1.0 + q
    table = np.maximum([p_ff, p_tf, p_ft, p_tt], 0.0)
    return JointBooleanDist(2, table)


def pushforward(dist: JointBooleanDist, f: BooleanFunction) -> JointBooleanDist:
    """Transport the table through a Boolean function.

    Output entry b collects the probability of every input assignment a
    with f(a) = b; the sums run in ascending index order.
    """
    if f.arity_in != dist.arity:
        raise ArityMismatch(
            f"function input arity {f.arity_in} != distribution arity {dist.arity}"
        )
    summed = np.bincount(f.table, weights=dist.probs, minlength=1 << f.arity_out)
    return JointBooleanDist(f.arity_out, summed)


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
    summed = np.bincount(codes, weights=dist.probs, minlength=len(label_codes))
    return FiniteDist(tuple(label_codes), summed)
