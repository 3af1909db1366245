"""Exact confidence bounds for a formula under partial joint information.

A PartialJointSpec pins the single-predicate confidences and, optionally,
pairwise both-false confidences q_ij.  The set of joint tables compatible
with a spec is a compact polytope, so the confidence of any single-output
formula attains an exact minimum and maximum over it:

* `exact_bounds` splits a function from `compile_formula` along the
  normal form of its formula, which the function keeps (see
  "Decomposition along the formula" below): operands of an and/or that
  read variables no given pair connects are bounded apart and combined by
  the classic Frechet rules.  Each part that does not split is bounded by
  one rule (`_part_bounds`): one or two variables in closed form (the q
  connective at the pair's q, or the classic connectives at the ends of
  its range), an and/or of literals whose pairs form no cycle in closed
  form (Hunter's bound above, the best point or pair below), and anything
  else as an LP over the 2**k table of its k variables, evaluated from the
  normal form; `LP_MAX_ARITY` caps k.  A raw table (`and_function(n)`, a
  `BooleanFunction` built by hand) always takes one LP over all n;
* each LP is solved with the package's own dense revised simplex
  (`_simplex`, numpy only): phase I once, then the min and the max, each
  from the basis phase I ended on, each optimum checked on its final
  basis from one fresh inverse.  Phase I starts from a table glued from
  the pair tables along a spanning forest of the pair graph
  (`_glued_basis`): every pair of the forest is at its own q, and with no
  pairs this is the comonotone chain table, a vertex of every
  marginals-only LP.  The start basis holds an artificial only for a pair
  that closes a cycle and for a cell left out below, so phase I runs only
  for those.  Entries inside an empty cell of a marginal or a pair (a 0/1
  marginal, a q at an end of its range, after snapping values within
  EPS_FEAS of an end to it) must be zero and are left out of the LPs; the
  closed forms read the spec's values as given;
* `brute_force_bounds` is the independent oracle: it enumerates the
  vertices of the spec's polytope in the "both-false" parametrization,
  one square solve per choice of tight table entries, and never touches
  the LP machinery.

For n = 2 with marginals only, both reproduce the classic closed-form
connective bounds (`classic_binary_bounds`); a two-variable
and/or/implies from `compile_formula` with no negation above its
connective gives them bit for bit, since both come from
`connectives._frechet_and` / `_frechet_or`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from ._common import EPS_FEAS, N_MAX, Frozen, FrozenValue, check_belief, check_int
from ._common import clip01, to_float
from .boolfuncs import _ALL, _LEAF, _NEG, BooleanFunction, _truth_bits, _truth_table
from .connectives import _add_pair_q, _frechet_and, _frechet_or, _pair_cells, _q_range
from .connectives import classic
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    BadCoordinate,
    Cancelled,
    InfeasibleSpec,
    InvalidParameter,
    MultiOutput,
    SchemaError,
)
from .joints import independent_product, pushforward

if TYPE_CHECKING:
    import numpy as np

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

#: Arity cap of each linear program (a 4096-dimensional program at the
#: cap): of each part of a formula's normal form that does not split, and
#: of a raw table.
LP_MAX_ARITY = 12

#: Arity cap for the vertex-enumeration oracle: it solves up to
#: C(2**n, 2**(n-1)) square systems, C(16, 8) = 12 870 at 4 and about 6e8
#: at 5.
ORACLE_MAX_ARITY = 4

#: Square systems the oracle solves per batch, between polls of `cancel`.
_CHUNK = 1 << 10


class ConfidenceInterval(FrozenValue):
    """Lower/upper bounds on a truth confidence.

    Exact from `exact_bounds`, which raises ArityTooLarge for a linear
    program over more than `LP_MAX_ARITY` variables.  Exact from
    `exists_bounds` and `forall_bounds` too, except that a component of the
    q_pair graph with a cycle and more than `LP_MAX_ARITY` points gives an
    outer bound.  A spec with no joint raises InfeasibleSpec, except in
    such a component, whose outer bound checks no joint.
    """

    _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = check_belief(lo, "lo")
        hi = check_belief(hi, "hi")
        if lo > hi:
            if lo - hi > FEASIBILITY_TOL:
                raise InvalidParameter(f"interval bounds out of order: [{lo}, {hi}]")
            lo = hi
        self.__dict__.update(lo=lo, hi=hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= value <= self.hi + tol


class PartialJointSpec(Frozen):
    """Marginals, optional pairwise both-false confidences, or independence.

    `pairwise` maps 1-based coordinate pairs to q_ij, the confidence that
    predicates i and j are both false; keys are symmetric and each value
    must be feasible for its pair of marginals.  `independent` asserts full
    conditional independence and excludes pairwise entries.
    """

    _fields = ("marginals", "pairwise", "independent")

    def __init__(
        self,
        marginals: tuple,
        pairwise: Optional[Mapping] = None,
        independent: bool = False,
    ):
        ps = tuple(
            check_belief(p, f"marginal {i + 1}") for i, p in enumerate(marginals)
        )
        if not ps:
            raise BadCoordinate("spec needs at least one marginal")
        if len(ps) > N_MAX:
            raise ArityTooLarge(f"{len(ps)} marginals exceed N_MAX={N_MAX}")

        if independent and pairwise:
            raise SchemaError("an independent spec cannot carry pairwise entries")
        normalized: dict = {}
        for key, value in dict(pairwise or {}).items():
            try:
                i, j = key
            except (TypeError, ValueError):
                raise BadCoordinate(f"bad pairwise coordinates {key!r}") from None
            what = "pairwise coordinates must be integers"
            i, j = check_int(i, what, BadCoordinate), check_int(j, what, BadCoordinate)
            if i == j or not (1 <= i <= len(ps)) or not (1 <= j <= len(ps)):
                raise BadCoordinate(f"bad pairwise coordinates {key!r}")
            pair = (min(i, j), max(i, j))
            _add_pair_q(normalized, pair, ps[pair[0] - 1], ps[pair[1] - 1], value)
        self.__dict__.update(marginals=ps, pairwise=normalized, independent=independent)

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

    A function from `compile_formula` is split along its formula: and/or
    operands whose variables no given pair connects are bounded apart and
    combined by the classic (Frechet) rules.  A part that does not split
    takes a closed form (one or two variables, or an and/or of literals
    whose pairs form no cycle) or one linear program over the 2**k table
    of its k variables, evaluated from the part alone, which
    `LP_MAX_ARITY` caps.  Any other table (a gate such as
    `and_function(n)`, or one built by hand) is one linear program over
    the 2**n table.  Every part of the spec is checked for
    feasibility.  `cancel` is polled before each solve; a True return
    aborts with Cancelled.  A solver failure other than infeasibility (the
    pivot limit, or a final basis that fails its check) raises SolverError.
    """
    _check_formula(spec, f)
    if spec.independent:
        _check_cancel(cancel)
        value = _independent_point(spec, f)
        return ConfidenceInterval(value, value)
    pairs = sorted(spec.pairwise.items())
    if f._formula is None:
        lo, hi = _lp_bounds(spec.marginals, pairs, f.table, cancel)
    else:
        lo, hi = _decomposed_bounds(spec.marginals, pairs, f._formula, cancel)
    return ConfidenceInterval(lo, hi)


def _check_lp_arity(n: int) -> None:
    if n > LP_MAX_ARITY:
        raise ArityTooLarge(
            f"exact bounds solve linear programs over at most {LP_MAX_ARITY} "
            f"variables, got one over {n}"
        )


def _lp_bounds(
    marginals: tuple,
    pairs: list,
    cost: Optional[np.ndarray],
    cancel: Optional[Callable[[], bool]],
) -> Optional[tuple]:
    """(min, max) of cost . x over the tables x on 2**n entries with the
    given marginals and sorted ((i, j), q) pairs; with `cost` None, only
    check that such a table exists and return None."""
    import numpy as np

    from ._simplex import Simplex

    n = len(marginals)
    _check_lp_arity(n)
    # A marginal, and then a q, within EPS_FEAS of an end of its range is
    # that end, so that the cells dropped below are exactly empty and the
    # rows left agree (a marginal of 1 - 1e-13 would otherwise leave its row
    # 1e-13 short of the row of ones).
    marginals = tuple(_snapped(p, 0.0, 1.0) for p in marginals)
    pairs = [
        ((i, j), _snapped(q, *_q_range(marginals[i - 1], marginals[j - 1])))
        for (i, j), q in pairs
    ]
    bits = _bit_table(n)
    # An empty cell of a marginal or a pair (a 0/1 marginal, a q at an end
    # of its range, exactly 0 once snapped) forces its entries to zero.
    # Leaving them out removes the degenerate vertices where the simplex
    # would otherwise stall; a piece of the start table left out hands its
    # row to an artificial in the start basis (`_glued_basis`).  A cell
    # with any mass stays, however small.
    keep = np.ones(1 << n, dtype=bool)
    for i, p in enumerate(marginals):
        for value, mass in ((True, p), (False, 1.0 - p)):
            if mass <= 0.0:
                keep &= bits[i] != value
    for (i, j), q in pairs:
        bi, bj = bits[i - 1], bits[j - 1]
        cells = _pair_cells(marginals[i - 1], marginals[j - 1], q)
        for index, mass in enumerate(cells):
            if mass <= 0.0:
                keep &= (bi != (index & 1)) | (bj != (index >> 1))

    if not keep.all():
        bits = bits[:, keep]
        if cost is not None:
            cost = cost[keep]
    # Rows: the row of ones, the marginals, the pairs' both-false cells.
    # Columns: the kept cells, then one artificial per row, the identity, so
    # that column size + r is e_r, as `_glued_basis` numbers it.
    m, size = 1 + n + len(pairs), bits.shape[1]
    a_eq = np.empty((m, size + m))
    a_eq[0, :size] = 1.0
    a_eq[1 : n + 1, :size] = bits
    if pairs:
        first = [i - 1 for (i, _), _ in pairs]
        second = [j - 1 for (_, j), _ in pairs]
        a_eq[n + 1 :, :size] = ~(bits[first] | bits[second])
    a_eq[:, size:] = np.eye(m)
    b_eq = np.array([1.0, *marginals, *(q for _, q in pairs)])

    _check_cancel(cancel)
    if not keep.any():
        raise InfeasibleSpec("no joint distribution satisfies the spec")
    lp = Simplex(a_eq, b_eq, _glued_basis(marginals, pairs, keep))
    if not lp.feasible:
        raise InfeasibleSpec("no joint distribution satisfies the spec")
    if cost is None:
        return None
    lo = lp.minimize(cost)
    _check_cancel(cancel)
    # 0.0 - x, not -x: a maximum of 0 is +0.0, never -0.0.
    hi = 0.0 - lp.minimize(-cost)
    return clip01(lo), clip01(hi)


def _snapped(x: float, lo: float, hi: float) -> float:
    """x clamped to [lo, hi], and moved to an end within EPS_FEAS of it."""
    x = min(max(x, lo), hi)
    if x - lo <= EPS_FEAS:
        return lo
    if hi - x <= EPS_FEAS:
        return hi
    return x


# ---------------------------------------------------------------------------
# Decomposition along the formula
# ---------------------------------------------------------------------------
#
# The pairs split the coordinates into connected components, and the
# compatible joints are exactly the couplings of one compatible joint per
# component.  So when the operands of an and/or read disjoint sets of
# components, each operand's confidence ranges over its own interval
# whatever the others do, and every coupling of the operands (as events) is
# reachable: the confidence of the and/or ranges over the Frechet interval
# of the operands' intervals, the classic connectives of the paper.  A
# negation maps [lo, hi] to [1 - hi, 1 - lo].
#
# One rule groups the operands.  Each component of the pair graph is a bit
# mask (none without pairs); an operand reads its own mask widened by every
# component mask it meets, and operands whose read masks meet share a
# group, transitively.  When no two read masks meet, every operand stands
# alone.  A group of two or more operands is one part over the
# coordinates of its mask and the pairs inside them, bounded by
# `_part_bounds`.  A negation directly above a part belongs to the part,
# at any depth: the part is bounded whole, so `!(a -> b)` and `a & !b`
# over one pair take the same table and give the same bits.
#
# A part that is an and/or of literals of distinct variables, reading each
# of its variables, whose pairs form no cycle, has a closed form.  Write it
# as the "or" of events E_i (the literals; for an "and", 1 minus the "or" of
# their negations).  Over the given pairs ij its exact range is
#
#     [max(max_i P(E_i), max_ij P(E_i or E_j)),
#      min(1, sum_i P(E_i) - sum_ij P(E_i and E_j))].
#
# Both ends hold for every joint.  Each is attained by laying the events out
# as sets in [0, 1), one variable at a time, each tree of the pair graph in
# the order of a walk from its root, so that a new E_v shares a pair with
# at most one placed E_u.  The part of E_v in E_u has its given size and
# lies inside E_u.  For the lower end the rest of E_v goes first inside the
# union so far, outside E_u: the union grows only to
# max(union, P(E_u or E_v)).  For the upper end it goes first outside the
# union: the union grows to min(1, union + P(E_v) - P(E_u and E_v)).  What
# does not fit spills into the other region, which is large enough because
# P(E_u or E_v) <= 1.  The upper end is Hunter's (1976) bound.  With a
# cycle both ends still hold, the upper one over the heaviest spanning
# forest (Kruskal), but are only an outer bound; the quantifiers take it
# for a component over `LP_MAX_ARITY` points.


def _union_find(n: int, edges) -> tuple:
    """Union-find over 0 ... n-1, joining the ends of each (a, b) in
    `edges` in order: (the root of each element, the indices of the edges
    that joined two sets).  The joining edges span a forest; the others
    close a cycle."""
    parent = list(range(n))
    joined = []
    for k, (a, b) in enumerate(edges):
        while parent[a] != a:  # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            joined.append(k)
    for k, root in enumerate(parent):
        while parent[root] != root:
            root = parent[root]
        parent[k] = root
    return parent, joined


def _merged(masks) -> list:
    """`masks` with those that meet merged, transitively, in any order."""
    merged: list = []
    for mask in masks:
        for m in merged[:]:
            if m & mask:
                merged.remove(m)
                mask |= m
        merged.append(mask)
    return merged


def _groups(kids: list, components: list) -> Optional[list]:
    """The operands `kids` of an and/or in groups: an operand reads its own
    mask, widened by every component mask it meets, and operands whose read
    masks meet share a group, so a group's mask is a merge of operand and
    component masks.  [the group's mask, its operands] per group, in order
    of first operand; None when no two read masks meet, each operand alone,
    as when the operands' masks are disjoint and meet no component."""
    seen = 0
    for kid in kids:
        if seen & kid[1]:
            break
        seen |= kid[1]
    else:
        for c in components:
            if c & seen:
                break
        else:
            return None
    masks = _merged([kid[1] for kid in kids] + components)
    groups: dict = {}
    for kid in kids:
        groups.setdefault(next(m for m in masks if m & kid[1]), []).append(kid)
    return list(groups.items()) if len(groups) < len(kids) else None


def _walk(node: list, marginals, components: list, bound) -> tuple:
    """(lo, hi) of the normal-form `node`: an and/or whose operands form
    one group (`_groups`) is one part, with any negation above it, which
    `bound(node, the group's mask)` bounds; other groups combine by the
    Frechet rules.

    A node and the one negation that may lie above it (double negations
    cancel in the normal form) take one frame.  The walk descends only into
    an operand alone in its group while the and/or has another group, so
    each and/or on the way down reads strictly fewer coordinates than the
    one above it.  A formula from `compile_formula` reads at most N_MAX
    coordinates, so the walk is at most N_MAX frames deep however deep the
    formula is."""
    negated = node[0] == _NEG
    inner = node[2] if negated else node
    kind = inner[0]
    if kind == _LEAF:
        lo = hi = marginals[inner[2]]
    else:
        groups = _groups(inner[2], components)
        if groups is None:
            # Each operand alone: a variable is its own marginal.
            ends = [
                (marginals[kid[2]],) * 2
                if kid[0] == _LEAF
                else _walk(kid, marginals, components, bound)
                for kid in inner[2]
            ]
        elif len(groups) == 1:
            return bound(node, groups[0][0])
        else:
            # In operand order, so that the first group to fail raises.
            ends = [
                _walk(kids[0], marginals, components, bound)
                if len(kids) == 1
                else bound([kind, inner[1], kids], mask)
                for mask, kids in groups
            ]
        lo, hi = (_frechet_and if kind == _ALL else _frechet_or)(*zip(*ends))
    return (1.0 - hi, 1.0 - lo) if negated else (lo, hi)


def _local(marginals, pairs, mask: int) -> tuple:
    """The coordinates of `mask`, their marginals and the pairs inside them,
    numbered 1 ... k."""
    coords = [i for i in range(mask.bit_length()) if mask >> i & 1]
    number = {i + 1: k + 1 for k, i in enumerate(coords)}
    part = [((number[i], number[j]), q) for (i, j), q in pairs if mask >> i - 1 & 1]
    return coords, tuple(marginals[i] for i in coords), part


def _decomposed_bounds(marginals, pairs, root, cancel):
    """(lo, hi) of the normal-form `root` of a compiled formula given
    `marginals` and the sorted ((i, j), q) `pairs`, split by `_walk`.  Then
    each component with a cycle that no part read is checked for
    feasibility (a tree of pairs always is feasible)."""
    _check_cancel(cancel)
    # The components of the pair graph as bit masks; none without pairs.
    components = pairs and _merged([1 << i - 1 | 1 << j - 1 for (i, j), _ in pairs])
    read = 0  # the coordinates of the parts bounded

    def bound(node: list, mask: int) -> tuple:
        nonlocal read
        read |= mask
        coords, ps, part = _local(marginals, pairs, mask)
        return _part_bounds(ps, part, node, coords, cancel)

    result = _walk(root, marginals, components, bound)
    # A part's mask merges whole components, so `read` holds each or none of it.
    for mask in components:
        if not read & mask:
            coords, ps, part = _local(marginals, pairs, mask)
            if len(part) >= len(coords):
                _lp_bounds(ps, part, None, cancel)
    return result


def _part_bounds(marginals, pairs, node, coords, cancel):
    """(lo, hi) of the normal-form `node` over `coords`, the ascending
    coordinates of whole components, which `marginals` and the sorted
    pairs number 1 ... k.  One or two variables take the cells of the pair
    table (`_pair_cells`) at the pair's q, or at both ends of its range;
    an and/or of literals whose pairs form no cycle takes its closed form;
    anything else one LP on its table, evaluated from `node`, up to
    `LP_MAX_ARITY`, and above it raises ArityTooLarge."""
    k = len(coords)
    if k <= 2:
        truth = _truth_bits(node, coords)
        if k == 1:
            cells = [[1.0 - marginals[0], marginals[0]]]
        else:
            qs = [pairs[0][1]] if pairs else _q_range(*marginals)
            cells = [_pair_cells(*marginals, q) for q in qs]
        values = [_table_value(truth, c) for c in cells]
        return min(values), max(values)
    literal = _literal_bounds(marginals, pairs, node, coords)
    if literal is not None and literal[2]:
        return literal[:2]
    _check_lp_arity(k)
    return _lp_bounds(marginals, pairs, _truth_table(node, coords), cancel)


def _table_value(truth: int, cells: list) -> float:
    """P(true) of the truth table `truth` (bit a for cell a) over `cells`:
    the sum of its true cells, or 1 minus the sum of its false ones when
    those are fewer, so that an "or" is 1 - q as `or_q` computes it."""
    true = [c for a, c in enumerate(cells) if truth >> a & 1]
    false = [c for a, c in enumerate(cells) if not truth >> a & 1]
    return clip01(1.0 - math.fsum(false) if len(false) < len(true) else math.fsum(true))


def _literal_bounds(marginals: tuple, pairs: list, node: list, coords: list):
    """(lo, hi, exact) of `node`, an and/or under at most one negation, by
    the closed form when its operands are literals of distinct variables,
    one per coordinate; exact when its pairs form no cycle.  Else None."""
    flip = node[0] == _NEG
    if flip:
        node = node[2]
    negate = node[0] == _ALL  # an "and" is 1 - the "or" of the negations
    sign = {}  # coordinate: whether E_i is "x_i" rather than "not x_i"
    for kid in node[2]:
        leaf = kid[2] if kid[0] == _NEG else kid
        if leaf[0] != _LEAF:
            return None
        sign[leaf[2]] = (kid[0] == _NEG) == negate
    if not len(node[2]) == len(sign) == len(coords):
        return None
    sign = [sign[i] for i in coords]
    ps = [p if s else 1.0 - p for p, s in zip(marginals, sign)]
    lo, weights = max(ps), []
    for (i, j), q in pairs:
        cells = _pair_cells(marginals[i - 1], marginals[j - 1], q)
        both = sign[i - 1] + 2 * sign[j - 1]  # the cell where E_i and E_j
        lo = max(lo, 1.0 - cells[3 - both])
        weights.append(cells[both])
    # Kruskal, heaviest first, finds the forest that makes Hunter's bound
    # least; a forest of all the pairs leaves nothing to choose.
    order = sorted(range(len(pairs)), key=lambda e: -weights[e])
    edges = [(pairs[e][0][0] - 1, pairs[e][0][1] - 1) for e in order]
    forest = [weights[order[e]] for e in _union_find(len(coords), edges)[1]]
    hi = max(lo, min(1.0, math.fsum([*ps, *(-w for w in forest if w > 0.0)])))
    if negate != flip:
        lo, hi = 1.0 - hi, 1.0 - lo
    return lo, hi, len(forest) == len(pairs)


@lru_cache(maxsize=None)
def _bit_table(n: int) -> np.ndarray:
    """The read-only (n, 2**n) table of bit i of each assignment a; built
    once per arity, on first use."""
    import numpy as np

    bits = (np.arange(1 << n) & (1 << np.arange(n))[:, None]) != 0
    bits.flags.writeable = False
    return bits


def _glue(marginals: tuple, pairs: list, forest: list, keep: np.ndarray) -> tuple:
    """The table glued from the pair tables along `forest`, as pieces of
    [0, 1): (row, mask, length, kept) per piece, in position order.

    Each coordinate's true set is a union of pieces (bit i of `mask` set
    when the piece lies in coordinate i's), and each piece is basic in
    its own `row`, the row it was cut for.  The roots, the coordinates
    first in the chain order of their tree (marginal descending, ties by
    index), are laid out first: root r is [0, p_r), so with no forest the
    pieces are the chain table.  Then each tree is walked from its root:
    child c of u, joined by forest pair k, is the first P(u true, c true)
    of u's true set (cut for c's marginal row) and the first P(u false,
    c true) of u's false set (cut for pair k's row), read left to right;
    both are cells of the pair's 2x2 table (`_pair_cells`).  A cut splits
    one piece in two and gives one of them the new row; a cut at a
    piece's end leaves a piece of length 0.

    A piece outside `keep` is not basic: the artificial of its row is.
    At each cut of a child, the half holding a kept piece keeps the old
    row when the other half holds none, so that the kept pieces and these
    artificials stay independent (the chain's cuts are triangular, so any
    of its pieces can be swapped for its artificial).
    """
    n = len(marginals)
    order = sorted(range(n), key=lambda i: -marginals[i])
    neighbours: list = [[] for _ in range(n)]
    for k in forest:
        (i, j), q = pairs[k]
        cells = _pair_cells(marginals[i - 1], marginals[j - 1], q)
        # (child, pair, P(u true, c true), P(u false, c true)) from each end
        neighbours[i - 1].append((j - 1, k, cells[3], cells[2]))
        neighbours[j - 1].append((i - 1, k, cells[3], cells[1]))
    roots, walk = [], []
    seen = [False] * n
    for r in order:
        if not seen[r]:
            seen[r] = True
            roots.append(r)
            tree = [r]
            for u in tree:
                for c, k, both_true, only_c in neighbours[u]:
                    if not seen[c]:
                        seen[c] = True
                        tree.append(c)
                        walk.append((u, c, k, both_true, only_c))

    length, mask = [1.0], [0]
    pieces = [0]  # piece ids in position order
    cuts = []  # (piece, left half, right half, new row, new row to the left)

    def cut(at, left, bit, row, to_left):
        """Cut the piece at position `at` after `left`; `bit` is set on
        the left half, and the new row goes to the left or right half."""
        p = pieces[at]
        k = len(length)
        pieces[at : at + 1] = [k, k + 1]
        cuts.append((p, k, k + 1, row, to_left))
        length.extend((left, length[p] - left))
        mask.extend((mask[p] | bit, mask[p]))

    def prefix(u_bit, value, size, bit):
        """Set `bit` on the first `size` of the pieces whose `u_bit` is
        `value`; the position of the piece the prefix ends in, unmarked,
        and the length of the prefix inside it."""
        done, last = 0.0, 0
        for at, p in enumerate(pieces):
            if (mask[p] & u_bit) == value:
                if done + length[p] >= size:
                    return at, min(size - done, length[p])
                done += length[p]
                mask[p] |= bit
                last = at
        mask[pieces[last]] &= ~bit  # rounding left `size` beyond the set
        return last, length[pieces[last]]

    for r in roots:  # the chain: every cut falls in the first piece
        cut(0, min(marginals[r], length[pieces[0]]), 1 << r, 1 + r, True)
    for u, c, k, both_true, only_c in walk:
        at, left = prefix(1 << u, 1 << u, max(both_true, 0.0), 1 << c)
        cut(at, left, 1 << c, 1 + c, True)
        at, left = prefix(1 << u, 0, max(only_c, 0.0), 1 << c)
        cut(at, left, 1 << c, n + 1 + k, False)

    held = [False] * len(length)  # the piece is or holds a kept piece
    for p in pieces:
        held[p] = bool(keep[mask[p]])
    for p, left, right, _, _ in reversed(cuts):
        held[p] = held[left] or held[right]
    row = [0] * len(length)
    for index, (p, left, right, new, to_left) in enumerate(cuts):
        fresh, old = (left, right) if to_left else (right, left)
        if index >= len(roots) and held[fresh] and not held[old]:
            fresh, old = old, fresh
        row[fresh], row[old] = new, row[p]
    return [(row[p], mask[p], length[p], held[p]) for p in pieces]


def _glued_basis(marginals: tuple, pairs: list, keep: np.ndarray) -> np.ndarray:
    """Start basis of the table glued from the pair tables along a spanning
    forest of the pair graph (`_glue`); with no pairs it is the comonotone
    chain table, a vertex of every marginals-only bounds LP.

    The pieces, 1 + n + |forest| of them, are independent columns that
    satisfy the marginal rows and every forest pair's row, each basic in
    its own row.  A piece of length 0 in a kept cell stays basic at level
    0; a piece outside `keep` hands its row to its artificial, as does a
    pair that closes a cycle (`Simplex` negates the column of each such
    artificial below zero, so that it starts at a level >= 0).  With no such pair and no piece
    outside `keep`, the basis holds no artificial and phase I does not run.
    Glue that puts mass on a cell left out (a cell a cycle's pair leaves
    empty, at a q at an end of its range) is not a start: then the chain
    table is, with every pair row artificial.
    """
    import numpy as np

    n = len(marginals)
    forest = _union_find(n, [(i - 1, j - 1) for (i, j), _ in pairs])[1]
    pieces = _glue(marginals, pairs, forest, keep)
    if forest and any(size > EPS_FEAS and not kept for _, _, size, kept in pieces):
        pieces = _glue(marginals, pairs, [], keep)
    rows = [row for row, _, _, kept in pieces if kept]
    masks = [mask for _, mask, _, kept in pieces if kept]
    columns = keep.nonzero()[0]
    basis = np.arange(columns.size, columns.size + 1 + n + len(pairs))
    basis[rows] = columns.searchsorted(masks)
    return basis


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------
#
# Parametrize the joint table by the "all-false" probabilities
#
#     z_S = P(predicate i is false for every i in S),      z_{} = 1,
#
# one per subset S.  Inclusion-exclusion recovers each table entry
#
#     x_a = sum over S containing T_a of (-1)^(|S| - |T_a|) z_S
#
# where T_a is the set of coordinates that are false in assignment a.  The
# singleton z's are fixed by the marginals and any supplied pairwise q
# fixes its z; the d others are free, and the tables of the spec are the
# polytope {z : x(z) >= 0}.  The confidence of f is linear in z, so its
# extremes lie at vertices (Hailperin 1965), and each vertex is the one
# solution of d independent tight constraints x_a = 0 (Balinski 1961).
# The oracle solves every d-subset of the 2**n entries and keeps the
# solutions that are tables.


def _build_z_system(spec: PartialJointSpec) -> tuple:
    """`(const, matrix)`: the joint table as `const + matrix @ z`, over every
    z that no marginal or pair fixes."""
    import numpy as np

    size = 1 << spec.arity
    fixed = {0: 1.0, **{1 << i: 1.0 - p for i, p in enumerate(spec.marginals)}}
    for (i, j), q in spec.pairwise.items():
        fixed[(1 << (i - 1)) | (1 << (j - 1))] = q
    signs = np.zeros((size, size))
    for a in range(size):
        for s in range(size):
            if s | a == size - 1:  # S holds every coordinate false in a
                signs[a, s] = -1.0 if bin(s & a).count("1") & 1 else 1.0
    free = [s for s in range(size) if s not in fixed]
    return signs[:, list(fixed)] @ np.array(list(fixed.values())), signs[:, free]


def brute_force_bounds(
    spec: PartialJointSpec,
    f: BooleanFunction,
    grid_step: float,
    cancel: Optional[Callable[[], bool]] = None,
) -> ConfidenceInterval:
    """Vertex-enumeration oracle for `exact_bounds`.

    Solves every choice of d of the 2**n table entries set to zero, d the
    number of parameters no marginal or pair fixes, and keeps the tables
    whose entries are all at least -max(grid_step, FEASIBILITY_TOL); the
    floor absorbs round-off on entries that are exactly zero.  Every
    vertex of the spec's polytope is kept, so the result contains the
    exact bounds; `grid_step`, the slack on negative entries, can widen
    it by about arity * grid_step.  Cost is C(2**n, d) small solves
    whatever `grid_step` is, at most C(16, 8) = 12 870 at arity 4.
    `cancel` is polled once per batch of solves.
    """
    import numpy as np

    _check_formula(spec, f)
    grid_step = to_float(grid_step, "grid_step")
    if not 0.0 < grid_step <= 0.1:
        raise InvalidParameter(f"grid_step must be in (0, 0.1], got {grid_step}")
    n = spec.arity
    if n > ORACLE_MAX_ARITY:
        raise ArityTooLarge(
            f"brute-force bounds support arity <= {ORACLE_MAX_ARITY}, got {n}"
        )
    _check_cancel(cancel)
    if spec.independent:
        value = _independent_point(spec, f)
        return ConfidenceInterval(value, value)

    slack = max(grid_step, FEASIBILITY_TOL)
    const, matrix = _build_z_system(spec)
    size, d = matrix.shape
    true = f.table == 1
    subsets = np.array(list(combinations(range(size), d)), dtype=np.intp)
    lo, hi = math.inf, -math.inf
    for start in range(0, len(subsets), _CHUNK):
        _check_cancel(cancel)
        tight = subsets[start:start + _CHUNK]
        # An integer matrix: a determinant under 1/2 in size is zero.
        tight = tight[np.abs(np.linalg.det(matrix[tight])) > 0.5]
        z = np.linalg.solve(matrix[tight], -const[tight][..., None])[..., 0]
        tables = const + z @ matrix.T
        values = tables[tables.min(axis=1) >= -slack][:, true].sum(axis=1)
        if len(values):
            lo, hi = min(lo, float(values.min())), max(hi, float(values.max()))
    if lo > hi:
        raise InfeasibleSpec("no joint table satisfies the spec constraints")
    return ConfidenceInterval(clip01(lo), clip01(hi))


def classic_binary_bounds(p1: float, p2: float, kind: str) -> ConfidenceInterval:
    """Closed-form extremes of a binary connective given only marginals."""
    return ConfidenceInterval(
        classic(p1, p2, kind, "min"), classic(p1, p2, kind, "max")
    )
