"""Exact confidence bounds for a formula under partial joint information.

A PartialJointSpec pins the single-predicate confidences and, optionally,
pairwise both-false confidences q_ij.  The set of joint tables compatible
with a spec is a compact polytope, so the confidence of any single-output
formula attains an exact minimum and maximum over it:

* `exact_bounds` solves the two linear programs over the 2**n table
  entries with the package's own dense revised simplex (`_simplex`, numpy
  only): phase I once, the min, then the max from the min's optimal
  basis, each optimum checked afresh on its final basis.  Phase I starts
  from the comonotone chain table (`_chain_basis`), which puts every pair
  at its q_max and is a vertex of every marginals-only LP, so phase I
  makes no pivot on a marginals-only spec.  Entries inside an empty cell
  of a marginal or a pair (a 0/1 marginal, a q at an end of its range)
  must be zero and are left out of the LPs;
* `brute_force_bounds` is the independent oracle: it enumerates joint
  tables directly on a grid in the "both-false" parametrization and never
  touches the LP machinery.

For n = 2 with marginals only, both reproduce the classic closed-form
connective bounds (`classic_binary_bounds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from ._common import EPS_FEAS, N_MAX, check_belief, clip01
from ._simplex import Simplex
from .boolfuncs import BooleanFunction
from .connectives import _add_pair_q, classic
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    BadCoordinate,
    Cancelled,
    InfeasibleSpec,
    MultiOutput,
    SchemaError,
)
from .joints import independent_product, pushforward

__all__ = [
    "ConfidenceInterval",
    "PartialJointSpec",
    "exact_bounds",
    "brute_force_bounds",
    "classic_binary_bounds",
]

#: Slack allowed between `lo` and `hi` of an interval: a `lo` above `hi` by
#: at most this much (solver round-off) is set to `hi`, by more is an error.
#: The solver checks its own primal and optimality tolerance, `_simplex.TOL`.
FEASIBILITY_TOL = 1e-9

#: Arity cap for the LP route (a 4096-dimensional program at the cap).
LP_MAX_ARITY = 12

#: Arity cap for the enumeration oracle.
ORACLE_MAX_ARITY = 4

_CHUNK = 1 << 17


@dataclass(frozen=True)
class ConfidenceInterval:
    """Lower/upper bounds on a truth confidence.

    Exact when returned by `exact_bounds`; `exists_bounds` and
    `forall_bounds` return an outer bound when pairwise q values are given.
    """

    lo: float
    hi: float

    def __post_init__(self):
        lo = check_belief(self.lo, "lo")
        hi = check_belief(self.hi, "hi")
        if lo > hi:
            if lo - hi > FEASIBILITY_TOL:
                raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
            lo = hi
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= value <= self.hi + tol


@dataclass(frozen=True, eq=False)
class PartialJointSpec:
    """Marginals, optional pairwise both-false confidences, or independence.

    `pairwise` maps 1-based coordinate pairs to q_ij, the confidence that
    predicates i and j are both false; keys are symmetric and each value
    must be feasible for its pair of marginals.  `independent` asserts full
    conditional independence and excludes pairwise entries.
    """

    marginals: tuple
    pairwise: Optional[Mapping] = None
    independent: bool = False

    def __post_init__(self):
        ps = tuple(
            check_belief(p, f"marginal {i + 1}") for i, p in enumerate(self.marginals)
        )
        if not ps:
            raise BadCoordinate("spec needs at least one marginal")
        if len(ps) > N_MAX:
            raise ArityTooLarge(f"{len(ps)} marginals exceed N_MAX={N_MAX}")
        object.__setattr__(self, "marginals", ps)

        if self.independent and self.pairwise:
            raise SchemaError("an independent spec cannot carry pairwise entries")
        normalized: dict = {}
        for key, value in dict(self.pairwise or {}).items():
            i, j = (int(c) for c in key)
            if i == j or not (1 <= i <= len(ps)) or not (1 <= j <= len(ps)):
                raise BadCoordinate(f"bad pairwise coordinates {key!r}")
            pair = (min(i, j), max(i, j))
            _add_pair_q(normalized, pair, ps[pair[0] - 1], ps[pair[1] - 1], value)
        object.__setattr__(self, "pairwise", normalized)

    @property
    def arity(self) -> int:
        return len(self.marginals)


def _check_formula(spec: PartialJointSpec, f: BooleanFunction) -> None:
    if f.arity_out != 1:
        raise MultiOutput(f"bounds require a single-output function, got {f.arity_out}")
    if f.arity_in != spec.arity:
        raise ArityMismatch(
            f"function arity {f.arity_in} != spec arity {spec.arity}"
        )


def _check_cancel(cancel: Optional[Callable[[], bool]]) -> None:
    if cancel is not None and cancel():
        raise Cancelled("solve interrupted by caller")


def _independent_point(spec: PartialJointSpec, f: BooleanFunction) -> float:
    """Confidence under full independence: the product table pushed through f."""
    return clip01(pushforward(independent_product(spec.marginals), f).probs[1])


def exact_bounds(
    spec: PartialJointSpec,
    f: BooleanFunction,
    cancel: Optional[Callable[[], bool]] = None,
) -> ConfidenceInterval:
    """Exact min/max of the formula confidence over all compatible joints.

    Solved as two linear programs over the 2**n table with equality
    constraints from the marginals and any pairwise q values.  `cancel` is
    polled before each solve; a True return aborts with Cancelled.  A
    solver failure other than infeasibility (the pivot limit, or a final
    basis that fails its check) raises SolverError.
    """
    _check_formula(spec, f)
    n = spec.arity
    if n > LP_MAX_ARITY:
        raise ArityTooLarge(
            f"exact bounds support arity <= {LP_MAX_ARITY}, got {n}"
        )
    if spec.independent:
        _check_cancel(cancel)
        value = _independent_point(spec, f)
        return ConfidenceInterval(value, value)

    size = 1 << n
    pairs = sorted(spec.pairwise.items())
    bits = (np.arange(size) & (1 << np.arange(n))[:, None]) != 0
    # An empty cell of a marginal or a pair (a 0/1 marginal, a q at an end
    # of its range) forces its entries to zero.  Leaving them out removes
    # the degenerate vertices where the simplex would otherwise stall; a
    # chain column left out hands its row to an artificial in the start
    # basis (`_chain_basis`).
    keep = np.ones(size, dtype=bool)
    for i, p in enumerate(spec.marginals):
        for value, mass in ((True, p), (False, 1.0 - p)):
            if mass <= EPS_FEAS:
                keep &= bits[i] != value
    for (i, j), q in pairs:
        bi, bj = bits[i - 1], bits[j - 1]
        pi, pj = spec.marginals[i - 1], spec.marginals[j - 1]
        cells = {
            (False, False): q,
            (True, False): 1.0 - pj - q,
            (False, True): 1.0 - pi - q,
            (True, True): pi + pj - 1.0 + q,
        }
        for (vi, vj), mass in cells.items():
            if mass <= EPS_FEAS:
                keep &= (bi != vi) | (bj != vj)

    if not keep.all():
        bits = bits[:, keep]
    a_eq = np.empty((1 + n + len(pairs), bits.shape[1]))
    a_eq[0] = 1.0
    a_eq[1 : n + 1] = bits
    first = [i - 1 for (i, _), _ in pairs]
    second = [j - 1 for (_, j), _ in pairs]
    a_eq[n + 1 :] = ~(bits[first] | bits[second])
    b_eq = np.array([1.0, *spec.marginals, *(q for _, q in pairs)])

    _check_cancel(cancel)
    if not keep.any():
        raise InfeasibleSpec("no joint distribution satisfies the spec")
    lp = Simplex(a_eq, b_eq, _chain_basis(spec.marginals, keep, a_eq, b_eq))
    if not lp.feasible:
        raise InfeasibleSpec("no joint distribution satisfies the spec")
    cost = f.table[keep].astype(np.float64)
    lo = lp.minimize(cost)
    _check_cancel(cancel)
    hi = -lp.minimize(-cost)
    lo, hi = clip01(lo), clip01(hi)
    return ConfidenceInterval(min(lo, hi), hi)


def _chain_basis(
    marginals: tuple, keep: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray
) -> np.ndarray:
    """Start basis of the comonotone chain table, which puts every pair at
    its q_max at once; it is a vertex of every marginals-only bounds LP.

    With the coordinates sorted by marginal, descending (ties by index),
    chain assignment S_k makes the first k of them true and carries mass
    p_(k) - p_(k+1), where p_(0) = 1 and p_(n+1) = 0.  On the marginal rows
    the chain columns are triangular: S_0 is basic in the row of ones and
    S_k in the row of the k-th sorted coordinate.  A chain column outside
    `keep` leaves the artificial of its row basic instead; then slot k,
    column or artificial, is at level p_(k) - p_(next kept column), which
    the sort makes >= 0.  Each pair row keeps its artificial, at level q
    minus the chain mass on the pair's both-false cell; a row where that
    is negative is negated in place, in `a_eq` and `b_eq`, so that every
    level is >= 0.
    """
    n = len(marginals)
    ps = np.asarray(marginals)
    order = np.argsort(-ps, kind="stable")
    chain = np.concatenate(([0], np.cumsum(1 << order)))
    rows = np.concatenate(([0], 1 + order))
    levels = np.concatenate(([1.0], ps[order], [0.0]))
    kept = np.flatnonzero(keep[chain])
    mass = levels[kept] - levels[np.append(kept[1:], n + 1)]
    columns = np.searchsorted(np.flatnonzero(keep), chain[kept])

    m, size = a_eq.shape
    basis = np.arange(size, size + m)
    basis[rows[kept]] = columns
    residual = b_eq[n + 1 :] - a_eq[n + 1 :, columns] @ mass
    negative = n + 1 + np.flatnonzero(residual < 0.0)
    a_eq[negative] *= -1.0
    b_eq[negative] *= -1.0
    return basis


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------
#
# Parametrize the joint table by the "all-false" probabilities
#
#     z_S = P(predicate i is false for every i in S),      z_{} = 1,
#
# one per nonempty subset S.  Inclusion-exclusion recovers each table entry
#
#     x_a = sum over S containing T_a of (-1)^(|S| - |T_a|) z_S
#
# where T_a is the set of coordinates that are false in assignment a.  The
# singleton z's are fixed by the marginals and any supplied pairwise q
# fixes its z; every other z except the full-set one is enumerated on a
# grid over its Frechet range.  For each grid combination the remaining
# top parameter enters every entry linearly with coefficient +-1, so its
# feasible values form an interval and the (linear) objective is extremal
# at the interval's endpoints, which are evaluated exactly.


def _subset_masks(a: int):
    """All submasks of bitmask a, including 0 and a itself."""
    sub = a
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & a


@dataclass
class _ZSystem:
    const: np.ndarray          # per-entry constant term
    coef: np.ndarray           # (n_free, 2**n) coefficients of free z's
    sigma: np.ndarray          # per-entry coefficient of the top z
    grids: list                # grid values per free z
    has_top: bool


def _build_z_system(spec: PartialJointSpec, grid_step: float) -> _ZSystem:
    n = spec.arity
    size = 1 << n
    full = size - 1
    z_single = {1 << i: 1.0 - p for i, p in enumerate(spec.marginals)}
    fixed = dict(z_single)
    for (i, j), q in spec.pairwise.items():
        fixed[(1 << (i - 1)) | (1 << (j - 1))] = q

    has_top = n >= 2 and full not in fixed
    free_masks = [
        m
        for m in range(1, size)
        if bin(m).count("1") >= 2 and m not in fixed and not (has_top and m == full)
    ]

    const = np.zeros(size)
    sigma = np.zeros(size)
    coef = np.zeros((len(free_masks), size))
    free_index = {m: k for k, m in enumerate(free_masks)}
    for a in range(size):
        t_mask = (~a) & full
        for r in _subset_masks(a):
            s_mask = t_mask | r
            sign = -1.0 if bin(r).count("1") & 1 else 1.0
            if s_mask == 0:
                const[a] += sign
            elif s_mask in fixed:
                const[a] += sign * fixed[s_mask]
            elif has_top and s_mask == full:
                sigma[a] += sign
            else:
                coef[free_index[s_mask], a] += sign

    grids = []
    for m in free_masks:
        singles = [z_single[1 << i] for i in range(n) if (m >> i) & 1]
        lo = max(0.0, math.fsum(singles) - (len(singles) - 1))
        hi = min(singles)
        if hi <= lo:
            grids.append(np.array([lo]))
        else:
            npts = int(math.ceil((hi - lo) / grid_step)) + 1
            grids.append(np.linspace(lo, hi, npts))
    return _ZSystem(const=const, coef=coef, sigma=sigma, grids=grids, has_top=has_top)


def brute_force_bounds(
    spec: PartialJointSpec,
    f: BooleanFunction,
    grid_step: float,
    cancel: Optional[Callable[[], bool]] = None,
) -> ConfidenceInterval:
    """Grid-enumeration oracle for `exact_bounds`.

    Enumerates compatible joint tables on a grid of step `grid_step` in the
    both-false parametrization, accepting tables whose entries are within
    `grid_step` of nonnegative.  The result brackets the exact bounds to
    within about arity * grid_step.  Cost grows as (1/grid_step)**d with d
    the number of free parameters, so fine grids are only practical for
    arity <= 3.  `cancel` is polled once per enumeration chunk.
    """
    _check_formula(spec, f)
    grid_step = float(grid_step)
    if not 0.0 < grid_step <= 0.1:
        raise ValueError(f"grid_step must be in (0, 0.1], got {grid_step}")
    n = spec.arity
    if n > ORACLE_MAX_ARITY:
        raise ArityTooLarge(
            f"brute-force bounds support arity <= {ORACLE_MAX_ARITY}, got {n}"
        )
    _check_cancel(cancel)
    if spec.independent:
        value = _independent_point(spec, f)
        return ConfidenceInterval(value, value)

    slack = grid_step
    system = _build_z_system(spec, grid_step)
    trueset = np.flatnonzero(f.table == 1)
    obj_const = float(system.const[trueset].sum())
    obj_coef = system.coef[:, trueset].sum(axis=1)
    obj_sigma = float(system.sigma[trueset].sum())

    if not system.has_top:
        # Table fully determined by the fixed z's (arity 1, or arity 2 with
        # its pair given).
        if float(system.const.min()) < -slack:
            raise InfeasibleSpec("fixed constraints admit no joint distribution")
        value = clip01(obj_const)
        return ConfidenceInterval(value, value)

    plus_cols = np.flatnonzero(system.sigma > 0)
    minus_cols = np.flatnonzero(system.sigma < 0)
    coef_plus = np.ascontiguousarray(system.coef[:, plus_cols])
    coef_minus = np.ascontiguousarray(system.coef[:, minus_cols])
    const_plus = system.const[plus_cols]
    const_minus = system.const[minus_cols]
    best_lo = math.inf
    best_hi = -math.inf

    sizes = [len(g) for g in system.grids]
    total = int(np.prod(sizes, dtype=np.int64)) if sizes else 1
    for start in range(0, total, _CHUNK):
        _check_cancel(cancel)
        ids = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        if sizes:
            cols = []
            rem = ids
            for g in system.grids:
                cols.append(g[rem % len(g)])
                rem = rem // len(g)
            z_free = np.column_stack(cols)
        else:
            z_free = np.zeros((len(ids), 0))
        top_lo = -(const_plus[None, :] + z_free @ coef_plus).min(axis=1)
        top_hi = (const_minus[None, :] + z_free @ coef_minus).min(axis=1)
        gap = top_lo - top_hi
        # Combos whose top interval is empty by more than 2*slack cannot
        # correspond to any table with entries >= -slack.
        strict = gap <= 0.0
        loose = (gap > 0.0) & (gap <= 2.0 * slack)
        obj_rest = obj_const + z_free @ obj_coef
        if strict.any():
            for top in (top_lo[strict], top_hi[strict]):
                values = obj_rest[strict] + obj_sigma * top
                best_lo = min(best_lo, float(values.min()))
                best_hi = max(best_hi, float(values.max()))
        if loose.any():
            # Grid quantization can push a feasible region just outside a
            # combo; score it at its most-feasible top value.
            values = obj_rest[loose] + obj_sigma * 0.5 * (top_lo + top_hi)[loose]
            best_lo = min(best_lo, float(values.min()))
            best_hi = max(best_hi, float(values.max()))

    if best_lo > best_hi:
        raise InfeasibleSpec("no grid table satisfies the spec constraints")
    return ConfidenceInterval(clip01(best_lo), clip01(best_hi))


def classic_binary_bounds(p1: float, p2: float, kind: str) -> ConfidenceInterval:
    """Closed-form extremes of a binary connective given only marginals."""
    return ConfidenceInterval(
        classic(p1, p2, kind, "min"), classic(p1, p2, kind, "max")
    )
