"""Finite Boolean functions as dense truth tables, plus the formula AST.

A function f: B^n -> B^m is stored as a table of 2**n packed outputs: entry
a holds the m output bits of f at the input assignment encoded by a.  The
input/output bit convention matches the joint-table convention: variable i
(1-based) contributes 2**(i-1) to the index when true.

Formulas are immutable trees of `Frozen` nodes.  Every walk over a tree,
save equality's pairwise walk and the parser, is the one fold `_fold`:
hashing, printing, quantifier expansion, `formula_variables` and
`compile_formula`.  A compiled formula keeps its normal form (n-ary
and/or over variables and negations).  The parser builds that form
beside the tree and records it with the tree's variable names on the
root (`_Node._parsed`), so `formula_variables` and `compile_formula`
against those names read the record and walk nothing.  Any other tree
or ordering is folded: `compile_formula` checks the tree against its
ordering in the fold that builds its normal form, and
`formula_variables` collects the names in one.  `_truth_bits` evaluates
any node of the normal form on every assignment at once, on an explicit
stack of its own, as a Python int with one bit per assignment, which by
uniqueness of the minterm normal form is the same function as the
or-of-minterms expansion.  The first read of `table` unpacks the bits of
the whole formula; `exact_bounds` takes the bits of each part of it,
unpacked when the part reaches a linear program.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import TYPE_CHECKING, Sequence, Union

from ._common import N_MAX, Frozen, check_arity, to_tuple
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    DuplicateVariable,
    InvalidParameter,
    MultiOutput,
    UnboundVariable,
    UnexpandedQuantifier,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BooleanFunction",
    "assignment_index",
    "index_assignment",
    "identity_function",
    "not_function",
    "and_function",
    "or_function",
    "implies_function",
    "xor_function",
    "compose",
    "product",
    "to_minterms",
    "from_minterms",
    "Var",
    "Not",
    "And",
    "Or",
    "Implies",
    "Exists",
    "Forall",
    "Formula",
    "compile_formula",
    "formula_variables",
]


class BooleanFunction(Frozen):
    """Truth table of a map B^arity_in -> B^arity_out."""

    _fields = ("arity_in", "arity_out", "table")

    #: The formula's normal form (see `compile_formula`) when `compile_formula`
    #: made the function, else None; `exact_bounds` decomposes along it,
    #: and the first read of `table` evaluates the table from it.  Not a
    #: field: equality, hashing and repr ignore it.
    _formula = None

    def __init__(self, arity_in: int, arity_out: int, table: np.ndarray):
        import numpy as np

        arity_in = check_arity(arity_in, "arity_in")
        arity_out = check_arity(arity_out, "arity_out")
        table = np.array(table, dtype=np.int64)
        if table.shape != (1 << arity_in,):
            raise ArityMismatch(
                f"table length {table.size} does not match arity_in={arity_in}"
            )
        if table.size and (table.min() < 0 or table.max() >= (1 << arity_out)):
            raise ArityMismatch(f"table entries must be {arity_out}-bit values")
        table.flags.writeable = False
        self.__dict__.update(arity_in=arity_in, arity_out=arity_out, table=table)

    @classmethod
    def _adopt(
        cls, arity_in: int, arity_out: int, table: np.ndarray | None
    ) -> "BooleanFunction":
        """Wrap an int64 table that a builder here has just made, valid by
        construction: made read-only in place, neither copied nor checked
        again.  With None, `compile_formula` sets `_formula` instead."""
        f = object.__new__(cls)
        f.__dict__.update(arity_in=arity_in, arity_out=arity_out)
        if table is not None:
            table.flags.writeable = False
            f.__dict__["table"] = table
        return f

    def __getattr__(self, name):
        """Only reached when `name` is not set: the table of a compiled
        formula before its first read, built now and kept."""
        if name != "table" or self._formula is None:
            raise AttributeError(name)
        table = _truth_table(self._formula, range(self.arity_in))
        self.__dict__["table"] = table
        return table

    def __eq__(self, other):
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        # Equal arity_in: tables of one shape.
        return (
            self.arity_in == other.arity_in
            and self.arity_out == other.arity_out
            and bool((self.table == other.table).all())
        )

    def __call__(self, assignment: Sequence[bool]) -> tuple[bool, ...]:
        """Apply to one assignment given as a sequence of booleans."""
        assignment = to_tuple(assignment, "assignment")
        if len(assignment) != self.arity_in:
            raise ArityMismatch(
                f"expected {self.arity_in} inputs, got {len(assignment)}"
            )
        out = int(self.table[assignment_index(assignment)])
        return index_assignment(out, self.arity_out)

    def __repr__(self):
        return (
            f"BooleanFunction({self.arity_in}->{self.arity_out}, "
            f"table={self.table.tolist()})"
        )


def assignment_index(assignment: Sequence[bool]) -> int:
    """Pack an assignment (a1, ..., an) of bools, 0s and 1s into its table index."""
    idx = 0
    for i, bit in enumerate(assignment):
        if bit == 1:
            idx |= 1 << i
        elif bit != 0:
            raise InvalidParameter(f"assignment coordinate {bit!r} is not a bool, 0 or 1")
    return idx


def index_assignment(index: int, arity: int) -> tuple[bool, ...]:
    """Unpack a table index into the assignment (a1, ..., an)."""
    return tuple(bool((index >> i) & 1) for i in range(arity))


# ---------------------------------------------------------------------------
# Elementary gates
# ---------------------------------------------------------------------------


def identity_function(n: int) -> BooleanFunction:
    import numpy as np

    n = check_arity(n)
    return BooleanFunction._adopt(n, n, np.arange(1 << n, dtype=np.int64))


def not_function() -> BooleanFunction:
    return BooleanFunction(1, 1, [1, 0])


def and_function(n: int = 2) -> BooleanFunction:
    import numpy as np

    n = check_arity(n)
    table = np.zeros(1 << n, dtype=np.int64)
    table[-1] = 1
    return BooleanFunction._adopt(n, 1, table)


def or_function(n: int = 2) -> BooleanFunction:
    import numpy as np

    n = check_arity(n)
    table = np.ones(1 << n, dtype=np.int64)
    table[0] = 0
    return BooleanFunction._adopt(n, 1, table)


def implies_function() -> BooleanFunction:
    return BooleanFunction(2, 1, [1, 0, 1, 1])


def xor_function() -> BooleanFunction:
    return BooleanFunction(2, 1, [0, 1, 1, 0])


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def compose(g: BooleanFunction, f: BooleanFunction) -> BooleanFunction:
    """g after f; the table of g indexed by the table of f."""
    if f.arity_out != g.arity_in:
        raise ArityMismatch(
            f"cannot compose: inner output arity {f.arity_out} != "
            f"outer input arity {g.arity_in}"
        )
    return BooleanFunction._adopt(f.arity_in, g.arity_out, g.table[f.table])


def product(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    """Blockwise product f x g acting on the first f.arity_in coordinates
    with f and the remaining g.arity_in with g."""
    import numpy as np

    n = f.arity_in + g.arity_in
    m = f.arity_out + g.arity_out
    if n > N_MAX or m > N_MAX:
        raise ArityTooLarge(f"product arity {n}->{m} exceeds N_MAX={N_MAX}")
    idx = np.arange(1 << n, dtype=np.int64)
    low = idx & ((1 << f.arity_in) - 1)
    high = idx >> f.arity_in
    table = f.table[low] | (g.table[high] << f.arity_out)
    return BooleanFunction._adopt(n, m, table)


def to_minterms(f: BooleanFunction) -> set[tuple[bool, ...]]:
    """The assignments a single-output function maps to true."""
    if f.arity_out != 1:
        raise MultiOutput(
            f"minterm expansion requires a single output, got {f.arity_out}"
        )
    return {
        index_assignment(int(a), f.arity_in) for a in f.table.nonzero()[0]
    }


def from_minterms(arity: int, minterms) -> BooleanFunction:
    """Rebuild the single-output function that is true exactly on `minterms`."""
    import numpy as np

    arity = check_arity(arity)
    table = np.zeros(1 << arity, dtype=np.int64)
    for assignment in to_tuple(minterms, "minterms"):
        assignment = to_tuple(assignment, "minterm")
        if len(assignment) != arity:
            raise ArityMismatch(
                f"minterm {assignment!r} does not have {arity} coordinates"
            )
        table[assignment_index(assignment)] = 1
    return BooleanFunction._adopt(arity, 1, table)


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------


class _Node(Frozen):
    """Equality and hashing of formula trees, by explicit stacks instead of
    recursion once per tree level: the same node type with equal fields,
    and the hash of the tuple of fields."""

    #: On the root of a tree from `parse_formula`, the parser's record:
    #: (a tuple of the variable names in first-appearance order, the
    #: tree's normal form over them, or None when the tree holds a
    #: quantifier); else None.  Not a field: equality, hashing and repr
    #: ignore it.
    _parsed = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if a.__class__ not in _CHILD_FIELDS:
                if a != b:
                    return False
                continue
            for name in a._fields:
                stack.append((getattr(a, name), getattr(b, name)))
        return True

    def __hash__(self):
        return _fold(self, _hash_node)


class Var(_Node):
    _fields = ("name",)

    def __init__(self, name: str):
        try:
            hash(name)
        except TypeError as exc:
            raise InvalidParameter(f"variable names must be hashable: {exc}") from None
        self.__dict__["name"] = name


class Not(_Node):
    _fields = ("child",)

    def __init__(self, child: "Formula"):
        self.__dict__["child"] = child


class _Binary(_Node):
    _fields = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        self.__dict__.update(left=left, right=right)


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


class _Quantifier(_Node):
    _fields = ("var", "universe", "body")

    def __init__(self, var: str, universe: str, body: "Formula"):
        self.__dict__.update(var=var, universe=universe, body=body)


class Exists(_Quantifier):
    pass


class Forall(_Quantifier):
    pass


Formula = Union[Var, Not, And, Or, Implies, Exists, Forall]

#: The shape of the tree: the child fields of each node type.
_CHILD_FIELDS = {
    Var: (),
    Not: ("child",),
    And: ("left", "right"),
    Or: ("left", "right"),
    Implies: ("left", "right"),
    Exists: ("body",),
    Forall: ("body",),
}


class _Hash:
    """Stands in a tuple for a subtree whose hash is already known."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def _hash_node(node, child_hashes) -> int:
    """hash(tuple of the node's fields), each subformula read by its hash.
    A node type's subformula fields are its last fields."""
    fields = node._fields
    own = (getattr(node, name) for name in fields[: len(fields) - len(child_hashes)])
    return hash((*own, *map(_Hash, child_hashes)))


def _child_fields(node) -> tuple:
    """Names of the node's subformula fields, left to right."""
    try:
        return _CHILD_FIELDS[type(node)]
    except KeyError:
        raise TypeError(f"not a formula node: {node!r}") from None


def _with_children(node, children):
    """The node with its subformulas replaced, in `_child_fields` order."""
    changed = dict(zip(_child_fields(node), children))
    if not changed:
        return node
    values = (changed.get(name, getattr(node, name)) for name in node._fields)
    return node.__class__(*values)


#: Below this on `_fold`'s stack lies a node whose subformulas are done.
_POST = object()


def _fold(node, combine):
    """combine(node, [folded subformulas]) over the tree, bottom-up and left
    to right; a foreign object raises TypeError when the walk reaches it.
    One explicit stack stands in for recursion, so tree depth (a
    quantifier over a large universe expands to a chain as long as the
    universe) is not bounded by the interpreter's recursion limit: a node
    with subformulas waits on the stack under `_POST` until they are done."""
    stack = [node]
    done: list = []
    while stack:
        node = stack.pop()
        if node is _POST:
            node = stack.pop()
            start = len(done) - len(_CHILD_FIELDS[node.__class__])
            value = combine(node, done[start:])
            del done[start:]
            done.append(value)
        else:
            fields = _child_fields(node)
            if fields:
                stack += (node, _POST)
                stack += (getattr(node, name) for name in reversed(fields))
            else:
                done.append(combine(node, []))
    return done[0]


def formula_variables(ast: Formula) -> list[str]:
    """Variable names in first-appearance order, quantifier bodies
    included.  A tree from `parse_formula` gives a fresh copy of the names
    its parser recorded; any other tree is folded, and a foreign object in
    it raises TypeError."""
    parsed = getattr(ast, "_parsed", None)
    if parsed is not None:
        return list(parsed[0])
    names: dict = {}

    def collect(node, kids):
        if node.__class__ is Var:
            names[node.name] = None

    _fold(ast, collect)
    return list(names)


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------
#
# A compiled formula keeps its normal form, a tree of [kind, mask, part]
# lists.  `mask` has bit i set when the subtree reads coordinate i; `part`
# is the coordinate of a leaf, the operand of a negation or the operand
# list of an and/or.  a -> b becomes (not a) or b, double negations cancel
# and nested chains of one connective become one node.  Operand order
# carries no meaning: a chain is merged into the longer operand list, so a
# chain of either association costs time linear in its length.  Both
# builders, the parser and `compile_formula`'s fold, make each node by
# `_negated` and `_combined`, and no reader changes a normal form once it
# is built, so a parsed tree and its compiled functions may share one.

#: Node kinds of the normal form: a variable, a negation, an n-ary and, an
#: n-ary or.
_LEAF, _NEG, _ALL, _ANY = range(4)

#: The leaf of each coordinate below N_MAX, which every normal form shares.
_LEAVES = [[_LEAF, 1 << i, i] for i in range(N_MAX)]

#: The message of UnexpandedQuantifier for a quantified tree.
_UNEXPANDED = "quantifiers must be expanded over their universes before compilation"


def compile_formula(ast: Formula, ordering: Sequence[str]) -> BooleanFunction:
    """Compile a quantifier-free formula into its truth table.

    `ordering` assigns variable i+1 (bit i) to ordering[i]; it may contain
    variables the formula never mentions.  Every variable in the formula
    must appear in the ordering.  The function keeps the formula's normal
    form: `exact_bounds` splits it into independent parts and evaluates
    the table of each part from it, and the first read of `table`
    evaluates all of it.

    A quantifier-free tree from `parse_formula` compiled against its own
    `formula_variables` (as the CLI binds them) takes the normal form the
    parser recorded, after the ordering's length is checked.  Any other
    tree or ordering is folded, which checks the tree and builds its
    normal form bottom-up and left to right.  A foreign object raises
    TypeError when the fold reaches it and a quantifier raises
    UnexpandedQuantifier once its body is done; an unbound variable raises
    UnboundVariable, naming the leftmost, only after the whole fold.  An
    ordering that is not iterable or holds an unhashable name raises
    InvalidParameter.
    """
    names = to_tuple(ordering, "ordering")
    parsed = getattr(ast, "_parsed", None)
    if parsed is not None and parsed[1] is not None and names == parsed[0]:
        n = check_arity(len(names), "ordering length")
        form = parsed[1]
    else:
        n, form = _walked(ast, names)
    f = BooleanFunction._adopt(n, 1, None)
    f.__dict__["_formula"] = form
    return f


def _walked(ast: Formula, names: tuple) -> tuple:
    """(the arity, the normal form) of `ast` over the ordering `names`, by
    `compile_formula`'s fold, with its checks in its order."""
    try:
        index = {name: i for i, name in enumerate(names)}
    except TypeError as exc:
        raise InvalidParameter(f"ordering names must be hashable: {exc}") from None
    if len(index) != len(names):
        dupes = [n for n in index if names.count(n) > 1]  # by first appearance
        raise DuplicateVariable(f"duplicate variables in ordering: {dupes}")
    n = check_arity(len(names), "ordering length")
    unbound = []

    def combine(node, kids):
        kind = node.__class__
        if kind is Var:
            i = index.get(node.name)
            if i is None:
                unbound.append(node.name)
                return [_LEAF, 0, 0]
            return _LEAVES[i]
        if kind is Not:
            return _negated(kids[0])
        if kind is Exists or kind is Forall:
            raise UnexpandedQuantifier(_UNEXPANDED)
        return _combined(kind, *kids)

    form = _fold(ast, combine)
    if unbound:
        raise UnboundVariable(f"variable {unbound[0]!r} not bound by the ordering")
    return n, form


def _negated(node: list) -> list:
    return node[2] if node[0] == _NEG else [_NEG, node[1], node]


def _combined(kind: type, left: list, right: list) -> list:
    """The normal form of `kind(left, right)`, an And, Or or Implies node,
    from the normal forms of its operands.  A chain of one connective
    merges into the longer operand list, which it extends in place."""
    if kind is Implies:
        left = _negated(left)
    op = _ALL if kind is And else _ANY
    a = left[2] if left[0] == op else [left]
    b = right[2] if right[0] == op else [right]
    if len(a) < len(b):
        a, b = b, a
    a.extend(b)
    return [op, left[1] | right[1], a]


#: The markers on `_truth_bits`' stack, past the node kinds: the operands
#: of an and, of an or (each with the number of values before them), or of
#: a negation are done.
_ALL_DONE, _ANY_DONE, _NEG_DONE = 4, 5, (6,)


def _truth_bits(tree: list, coords: Sequence[int]) -> int:
    """The table of a normal-form node over the coordinates `coords`,
    ascending, as an int: bit a is set when the node is true at assignment
    a, whose bit k is coordinate coords[k]."""
    size = 1 << len(coords)
    full = (1 << size) - 1
    # The last coordinate is true on the upper half of the assignments,
    # and coordinate k - 1 where coordinate k differs from itself shifted
    # down by 2**(k - 1).
    columns, column = {}, full ^ (full >> (size >> 1))
    for k in reversed(range(len(coords))):
        columns[coords[k]] = column
        column ^= column >> (1 << k >> 1)
    # One explicit stack: an and/or lies under a marker and its operands,
    # in any order, since and and or commute.
    values: list = []
    stack = [tree]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind == _LEAF:
            values.append(columns[node[2]])
        elif kind == _NEG:
            stack += (_NEG_DONE, node[2])
        elif kind == _ALL or kind == _ANY:
            stack.append((_ALL_DONE if kind == _ALL else _ANY_DONE, len(values)))
            stack += node[2]
        elif node is _NEG_DONE:
            values[-1] ^= full
        else:
            start = node[1]
            combine = operator.and_ if kind == _ALL_DONE else operator.or_
            value = reduce(combine, values[start:])
            del values[start:]
            values.append(value)
    return values[0]


def _truth_table(tree: list, coords: Sequence[int]) -> np.ndarray:
    """The read-only int64 table of `_truth_bits(tree, coords)`."""
    import numpy as np

    size = 1 << len(coords)
    bits = _truth_bits(tree, coords).to_bytes((size + 7) >> 3, "little")
    packed = np.frombuffer(bits, np.uint8)
    table = np.empty(size, dtype=np.int64)
    # Unpacked a block at a time: no full-size byte column besides the table.
    for start in range(0, size, 1 << 16):
        stop = min(start + (1 << 16), size)
        table[start:stop] = np.unpackbits(
            packed[start >> 3 :], count=stop - start, bitorder="little"
        )
    table.flags.writeable = False
    return table
