"""Exact confidence bounds for a formula under partial joint information.

A PartialJointSpec pins the single-predicate confidences and, optionally,
pairwise both-false confidences q_ij.  The set of joint tables compatible
with a spec is a compact polytope, so the confidence of any single-output
formula attains an exact minimum and maximum over it:

* `exact_bounds` first splits a function from `compile_formula` along its
  formula (see "Decomposition along the formula" below): operands of an
  and/or that read variables no given pair connects are bounded apart and
  combined by the classic Frechet rules, so a read-once formula given
  marginals only reaches no linear program.  Only a part that does not
  split (a variable read twice, or pairs that link its operands) is
  solved, over the 2**k table of its own k variables; `LP_MAX_ARITY`
  caps k.  A raw table (`and_function(n)`, a `BooleanFunction` built by
  hand) always takes one LP over all n;
* each LP is solved with the package's own dense revised simplex
  (`_simplex`, numpy only): phase I once, then the min and the max, each
  from the basis phase I ended on, each optimum checked on its final
  basis from one fresh inverse.  Phase I starts from a table glued from
  the pair tables along a spanning forest of the pair graph
  (`_glued_basis`): every pair of the forest is at its own q, and with no
  pairs this is the comonotone chain table, a vertex of every
  marginals-only LP.  The start basis holds an artificial only for a pair
  that closes a cycle and for a cell left out below, so phase I runs only
  for those; a spec whose pairs form a forest is always feasible, and
  without 0/1 marginals or a q at an end of its range it skips phase I.
  The end the start table attains (the max of an and chain, the min of
  an or chain, given marginals only) makes no pivot.  Entries inside an
  empty cell of a marginal or a pair (a 0/1 marginal, a q at an end of
  its range) must be zero and are left out of the LPs;
* `brute_force_bounds` is the independent oracle: it enumerates joint
  tables directly on a grid in the "both-false" parametrization and never
  touches the LP machinery.

For n = 2 with marginals only, both reproduce the classic closed-form
connective bounds (`classic_binary_bounds`).  A compiled two-variable
and/or/implies with no negation above its connective (`P1 & P2`,
`P2 | P1`, `!P1 | P2`, `P1 -> P2`, ...) gives them bit for bit, since both
come from the rules of `connectives._frechet_and` / `_frechet_or`; a
spelling through a negated connective, such as `!(P1 & !P2)`, passes
through 1 - x twice and may differ in the last digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from ._common import EPS_FEAS, N_MAX, check_belief, check_int, clip01
from .boolfuncs import (
    And,
    BooleanFunction,
    Implies,
    Not,
    Or,
    Var,
    _fold,
    compile_formula,
)
from .connectives import _add_pair_q, _frechet_and, _frechet_or, _pair_cells, classic
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
#: cap): of each part of a compiled formula that does not split, and of a
#: raw table.
LP_MAX_ARITY = 12

#: Arity cap for the enumeration oracle.
ORACLE_MAX_ARITY = 4

_CHUNK = 1 << 17


@dataclass(frozen=True)
class ConfidenceInterval:
    """Lower/upper bounds on a truth confidence.

    Exact from `exact_bounds`, which raises ArityTooLarge for a linear
    program over more than `LP_MAX_ARITY` variables.  Exact from
    `exists_bounds` and `forall_bounds` too, except that a component of the
    q_pair graph with more than `LP_MAX_ARITY` points gives an outer bound.
    A spec with no joint raises InfeasibleSpec.
    """

    lo: float
    hi: float

    def __post_init__(self):
        lo = check_belief(self.lo, "lo")
        hi = check_belief(self.hi, "hi")
        if lo > hi:
            if lo - hi > FEASIBILITY_TOL:
                raise InvalidParameter(f"interval bounds out of order: [{lo}, {hi}]")
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
    from .joints import independent_product, pushforward

    return clip01(pushforward(independent_product(spec.marginals), f).probs[1])


def exact_bounds(
    spec: PartialJointSpec,
    f: BooleanFunction,
    cancel: Optional[Callable[[], bool]] = None,
) -> ConfidenceInterval:
    """Exact min/max of the formula confidence over all compatible joints.

    A function from `compile_formula` is split along its formula: and/or
    operands whose variables no given pair connects are bounded apart and
    combined by the classic (Frechet) rules, so only the parts that do not
    split reach a linear program.  Each such part is solved over the 2**k
    table of its own k variables, which `LP_MAX_ARITY` caps.  Any other
    table (a gate such as `and_function(n)`, or one built by hand) is
    solved as one linear program over the 2**n table.  Either way the
    constraints are the marginals and any pairwise q values, and every
    part of the spec is checked for feasibility.  `cancel` is polled
    before each solve; a True return aborts with Cancelled.  A solver
    failure other than infeasibility (the pivot limit, or a final basis
    that fails its check) raises SolverError.
    """
    _check_formula(spec, f)
    if spec.independent:
        _check_cancel(cancel)
        value = _independent_point(spec, f)
        return ConfidenceInterval(value, value)
    if f._formula is None:
        pairs = sorted(spec.pairwise.items())
        lo, hi = _lp_bounds(spec.marginals, pairs, f.table, cancel)
    else:
        lo, hi = _decomposed_bounds(spec, f, cancel)
    return ConfidenceInterval(min(lo, hi), hi)


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
    bits = _bit_table(n)
    # An empty cell of a marginal or a pair (a 0/1 marginal, a q at an end
    # of its range) forces its entries to zero.  Leaving them out removes
    # the degenerate vertices where the simplex would otherwise stall; a
    # piece of the start table left out hands its row to an artificial in
    # the start basis (`_glued_basis`).
    keep = np.ones(1 << n, dtype=bool)
    for i, p in enumerate(marginals):
        for value, mass in ((True, p), (False, 1.0 - p)):
            if mass <= EPS_FEAS:
                keep &= bits[i] != value
    for (i, j), q in pairs:
        bi, bj = bits[i - 1], bits[j - 1]
        cells = _pair_cells(marginals[i - 1], marginals[j - 1], q)
        for index, mass in enumerate(cells):
            if mass <= EPS_FEAS:
                keep &= (bi != (index & 1)) | (bj != (index >> 1))

    if not keep.all():
        bits = bits[:, keep]
        if cost is not None:
            cost = cost[keep]
    a_eq = np.empty((1 + n + len(pairs), bits.shape[1]))
    a_eq[0] = 1.0
    a_eq[1 : n + 1] = bits
    if pairs:
        first = [i - 1 for (i, _), _ in pairs]
        second = [j - 1 for (_, j), _ in pairs]
        a_eq[n + 1 :] = ~(bits[first] | bits[second])
    b_eq = np.array([1.0, *marginals, *(q for _, q in pairs)])

    _check_cancel(cancel)
    if not keep.any():
        raise InfeasibleSpec("no joint distribution satisfies the spec")
    lp = Simplex(a_eq, b_eq, _glued_basis(marginals, pairs, keep))
    if not lp.feasible:
        raise InfeasibleSpec("no joint distribution satisfies the spec")
    if cost is None:
        return None
    cost = cost.astype(np.float64)
    lo = lp.minimize(cost)
    _check_cancel(cancel)
    # 0.0 - x, not -x: a maximum of 0 is +0.0, never -0.0.
    hi = 0.0 - lp.minimize(-cost)
    return clip01(lo), clip01(hi)


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
# negation maps [lo, hi] to [1 - hi, 1 - lo].  Operands that share a
# component are solved together, as one linear program over the components
# they read.

#: Node kinds of `_normal_form`: a variable, a negation, an n-ary and, an
#: n-ary or.
_LEAF, _NEG, _ALL, _ANY = range(4)


def _normal_form(ast, index: dict) -> list:
    """The formula as a tree of [kind, mask, formula, part] lists.

    `mask` has bit i set when the subtree reads coordinate i; `formula` is
    an AST of the subtree's function (None for a negation: see
    `_formula_of`); `part` is the coordinate of a leaf, the operand of a
    negation or the operand list of an and/or.  a -> b becomes (not a) or
    b, double negations cancel and nested chains of one connective become
    one node.  Operand order carries no meaning: a chain is merged into
    the longer operand list, so a chain of either association costs time
    linear in its length.
    """

    def node(formula, kids):
        kind = type(formula)
        if kind is Var:
            i = index[formula.name]
            return [_LEAF, 1 << i, formula, i]
        if kind is Not:
            return _negated(kids[0])
        left, right = kids
        if kind is Implies:
            left = _negated(left)
        op = _ALL if kind is And else _ANY
        a = left[3] if left[0] == op else [left]
        b = right[3] if right[0] == op else [right]
        if len(a) < len(b):
            a, b = b, a
        a.extend(b)
        return [op, left[1] | right[1], formula, a]

    return _fold(ast, node)


def _negated(node: list) -> list:
    return node[3] if node[0] == _NEG else [_NEG, node[1], None, node]


def _formula_of(node: list):
    """An AST of the node's function; a negation's is built only here, as
    few of them are ever compiled."""
    return Not(node[3][2]) if node[0] == _NEG else node[2]


def _components(n: int, pairwise: Mapping) -> list:
    """component[i]: the mask of the coordinates the pairs connect to i."""
    if not pairwise:
        return [1 << i for i in range(n)]
    roots = _union_find(n, [(i - 1, j - 1) for i, j in pairwise])[0]
    masks = [0] * n
    for i, root in enumerate(roots):
        masks[root] |= 1 << i
    return [masks[root] for root in roots]


def _coordinates(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


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


def _groups(kids: list, component: list) -> list:
    """The operands of an and/or, grouped by union-find so that operands
    reading a common component share a group: [components' mask, operands]
    per group, in order of first operand."""
    first: dict = {}
    closures, edges = [], []
    for k, kid in enumerate(kids):
        closure = 0
        rest = kid[1]
        while rest:
            c = component[(rest & -rest).bit_length() - 1]
            rest &= ~c
            closure |= c
            j = first.setdefault(c, k)
            if j != k:
                edges.append((j, k))
        closures.append(closure)
    groups: dict = {}
    roots = _union_find(len(kids), edges)[0] if edges else range(len(kids))
    for kid, closure, root in zip(kids, closures, roots):
        group = groups.setdefault(root, [0, []])
        group[0] |= closure
        group[1].append(kid)
    return list(groups.values())


def _decomposed_bounds(
    spec: PartialJointSpec, f: BooleanFunction, cancel: Optional[Callable[[], bool]]
) -> tuple:
    """(lo, hi) of a compiled formula by the decomposition above.

    A formula that does not split below its root (or below a negation
    there), as when the pairs connect every coordinate, is one LP on f's
    own table, solved exactly as the raw table would be.  Otherwise the
    normal form is walked by recursion, and the components that no linear
    program covers are checked for feasibility afterwards.  One whose
    pairs form a tree always is (each pair's q is feasible for its
    marginals, and chaining the pair tables along the tree builds a
    joint), so only those with a cycle are solved.
    """
    ast, names = f._formula
    n = spec.arity
    marginals = spec.marginals
    pairs = sorted(spec.pairwise.items())
    component = _components(n, spec.pairwise)
    full = (1 << n) - 1
    if spec.pairwise and component[0] == full:
        # One component: every operand reads it, so nothing splits.
        return _lp_bounds(marginals, pairs, f.table, cancel)
    covered = 0

    def bound(mask: int, cost: Optional[np.ndarray]) -> Optional[tuple]:
        """(min, max) of a truth table over the variables of `mask`, a
        union of components; with `cost` None, only their feasibility."""
        nonlocal covered
        covered |= mask
        coords = _coordinates(mask)
        local = {i + 1: k + 1 for k, i in enumerate(coords)}
        part = [((local[i], local[j]), q) for (i, j), q in pairs if i in local]
        return _lp_bounds(tuple(marginals[i] for i in coords), part, cost, cancel)

    def walk(node: list) -> tuple:
        # The walk descends only into an operand alone in its group while
        # the and/or has another group, so each and/or on the way down
        # reads strictly fewer of the at most N_MAX components than the
        # one above it.  Double negations cancel in the normal form, so at
        # most one negation lies above each and/or and above the leaf: the
        # depth stays under 2 * N_MAX + 2 however deep the formula is.
        kind = node[0]
        if kind == _LEAF:
            p = marginals[node[3]]
            return p, p
        if kind == _NEG:
            lo, hi = walk(node[3])
            return 1.0 - hi, 1.0 - lo
        groups = top_groups if node is top else _groups(node[3], component)
        # Single operands are bounded before the LPs of the groups.
        singles = {}
        for k, (_, members) in enumerate(groups):
            if len(members) == 1:
                singles[k] = walk(members[0])
        los, his = [], []
        for k, (mask, members) in enumerate(groups):
            if k in singles:
                lo, hi = singles[k]
            else:
                if len(members) == len(node[3]):
                    formula = node[2]
                else:
                    operands = [_formula_of(m) for m in members]
                    formula = reduce(And if kind == _ALL else Or, operands)
                coords = _coordinates(mask)
                _check_lp_arity(len(coords))
                g = compile_formula(formula, [names[i] for i in coords])
                lo, hi = bound(mask, g.table)
            los.append(lo)
            his.append(hi)
        return (_frechet_and if kind == _ALL else _frechet_or)(los, his)

    _check_cancel(cancel)
    root = _normal_form(ast, {name: i for i, name in enumerate(names)})
    top = root[3] if root[0] == _NEG else root
    if top[0] != _LEAF:
        top_groups = _groups(top[3], component)
        if len(top_groups) == 1 and top_groups[0][0] == full:
            # Nothing splits: one LP on f's own table.
            return _lp_bounds(marginals, pairs, f.table, cancel)
    result = walk(root)

    edges: dict = {}
    for i, _ in spec.pairwise:
        edges[component[i - 1]] = edges.get(component[i - 1], 0) + 1
    for mask, count in edges.items():
        if count >= bin(mask).count("1") and not mask & covered:
            bound(mask, None)
    return result


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
    pair that closes a cycle (`Simplex` orients each such row so that its
    artificial starts at a level >= 0).  With no such pair and no piece
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
    import numpy as np

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
    import numpy as np

    _check_formula(spec, f)
    grid_step = float(grid_step)
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
