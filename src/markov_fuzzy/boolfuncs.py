"""Finite Boolean functions as dense truth tables, plus the formula AST.

A function f: B^n -> B^m is stored as a table of 2**n packed outputs: entry
a holds the m output bits of f at the input assignment encoded by a.  The
input/output bit convention matches the joint-table convention: variable i
(1-based) contributes 2**(i-1) to the index when true.

Formulas are immutable dataclass trees; `compile_formula` checks a
quantifier-free tree against its ordering, and the first read of the
result's `table` evaluates the tree on every assignment at once (broadcast
over the (2,)*n grid of assignments), which by uniqueness of the minterm
normal form is the same function as the or-of-minterms expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Sequence, Union

from ._common import N_MAX, check_arity
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    DuplicateVariable,
    MultiOutput,
    UnboundVariable,
    UnexpandedQuantifier,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """Truth table of a map B^arity_in -> B^arity_out."""

    arity_in: int
    arity_out: int
    table: np.ndarray

    #: (formula, ordering) when `compile_formula` made the function, else
    #: None; `exact_bounds` decomposes along the formula, and the first read
    #: of `table` builds the table from it.  Not a field: equality, hashing
    #: and repr ignore it.
    _formula = None

    def __post_init__(self):
        import numpy as np

        object.__setattr__(self, "arity_in", check_arity(self.arity_in, "arity_in"))
        object.__setattr__(self, "arity_out", check_arity(self.arity_out, "arity_out"))
        table = np.array(self.table, dtype=np.int64)
        if table.shape != (1 << self.arity_in,):
            raise ArityMismatch(
                f"table length {table.size} does not match arity_in={self.arity_in}"
            )
        if table.size and (table.min() < 0 or table.max() >= (1 << self.arity_out)):
            raise ArityMismatch(f"table entries must be {self.arity_out}-bit values")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @classmethod
    def _adopt(
        cls, arity_in: int, arity_out: int, table: np.ndarray | None
    ) -> "BooleanFunction":
        """Wrap an int64 table that a builder here has just made, valid by
        construction: made read-only in place, neither copied nor checked
        again.  With None, `compile_formula` sets `_formula` instead."""
        f = object.__new__(cls)
        object.__setattr__(f, "arity_in", arity_in)
        object.__setattr__(f, "arity_out", arity_out)
        if table is not None:
            table.flags.writeable = False
            object.__setattr__(f, "table", table)
        return f

    def __getattr__(self, name):
        """Only reached when `name` is not set: the table of a compiled
        formula before its first read, built now and kept."""
        if name != "table" or self._formula is None:
            raise AttributeError(name)
        table = _truth_table(*self._formula)
        object.__setattr__(self, "table", table)
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
    """Pack an assignment (a1, ..., an) into its table index."""
    idx = 0
    for i, bit in enumerate(assignment):
        if bit:
            idx |= 1 << i
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
    for assignment in minterms:
        if len(assignment) != arity:
            raise ArityMismatch(
                f"minterm {assignment!r} does not have {arity} coordinates"
            )
        table[assignment_index(assignment)] = 1
    return BooleanFunction._adopt(arity, 1, table)


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------


class _Node:
    """Equality and hashing of formula trees, by explicit stacks instead of
    the dataclass methods, which recurse once per tree level.  Both mean
    what the dataclass ones do: the same node type with equal fields, and
    the hash of the tuple of fields."""

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
            for name in _FIELDS[a.__class__]:
                stack.append((getattr(a, name), getattr(b, name)))
        return True

    def __hash__(self):
        return _fold(self, _hash_node)


@dataclass(frozen=True, eq=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False)
class Not(_Node):
    child: "Formula"


@dataclass(frozen=True, eq=False)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False)
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False)
class Exists(_Node):
    var: str
    universe: str
    body: "Formula"


@dataclass(frozen=True, eq=False)
class Forall(_Node):
    var: str
    universe: str
    body: "Formula"


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

#: Every field of each node type, in declaration order.
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _CHILD_FIELDS}


class _Hash:
    """Stands in a tuple for a subtree whose hash is already known."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def _hash_node(node, child_hashes) -> int:
    children = dict(zip(_CHILD_FIELDS[node.__class__], child_hashes))
    return hash(
        tuple(
            _Hash(children[name]) if name in children else getattr(node, name)
            for name in _FIELDS[node.__class__]
        )
    )


_QUANTIFIERS = (Exists, Forall)


def _child_fields(node) -> tuple:
    """Names of the node's subformula fields, left to right."""
    try:
        return _CHILD_FIELDS[type(node)]
    except KeyError:
        raise TypeError(f"not a formula node: {node!r}") from None


def _with_children(node, children):
    """The node with its subformulas replaced, in `_child_fields` order."""
    fields = _child_fields(node)
    return replace(node, **dict(zip(fields, children))) if fields else node


def _walk(node):
    """Every node of the tree in pre-order, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for name in reversed(_child_fields(node)):
            stack.append(getattr(node, name))


def _fold(node, combine):
    """combine(node, [folded children]) over the tree, bottom-up and left
    to right.  An explicit stack stands in for recursion, so tree depth
    (a quantifier over a large universe expands to a chain as long as the
    universe) is not bounded by the interpreter's recursion limit."""
    stack = [(node, None)]
    done: list = []
    while stack:
        node, fields = stack.pop()
        if fields is None:
            fields = _child_fields(node)
            stack.append((node, fields))
            for name in reversed(fields):
                stack.append((getattr(node, name), None))
        else:
            start = len(done) - len(fields)
            value = combine(node, done[start:])
            del done[start:]
            done.append(value)
    return done[0]


def formula_variables(ast: Formula) -> list[str]:
    """Variable names in first-appearance order (quantifier-free trees)."""
    return list(dict.fromkeys(n.name for n in _walk(ast) if isinstance(n, Var)))


def compile_formula(ast: Formula, ordering: Sequence[str]) -> BooleanFunction:
    """Compile a quantifier-free formula into its truth table.

    `ordering` assigns variable i+1 (bit i) to ordering[i]; it may contain
    variables the formula never mentions.  Every variable in the formula
    must appear in the ordering.  The function keeps the formula and the
    ordering, so that `exact_bounds` can split it into independent parts;
    the first read of its `table` builds the table from them.
    """
    names = list(ordering)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DuplicateVariable(f"duplicate variables in ordering: {dupes}")
    n = check_arity(len(names), "ordering length")
    bound = set(names)
    unbound = None
    for node in _walk(ast):
        if isinstance(node, _QUANTIFIERS):
            raise UnexpandedQuantifier(
                "quantifiers must be expanded over their universes before compilation"
            )
        if unbound is None and isinstance(node, Var) and node.name not in bound:
            unbound = node.name
    if unbound is not None:
        raise UnboundVariable(f"variable {unbound!r} not bound by the ordering")
    f = BooleanFunction._adopt(n, 1, None)
    object.__setattr__(f, "_formula", (ast, tuple(names)))
    return f


def _truth_table(ast: Formula, names: Sequence[str]) -> np.ndarray:
    """The read-only table of a formula that `compile_formula` checked."""
    import numpy as np

    # Truth-column op of each connective; on booleans a -> b is a <= b.
    ops = {
        Not: np.logical_not,
        And: np.logical_and,
        Or: np.logical_or,
        Implies: np.less_equal,
    }
    false_true = np.array([False, True])
    n = len(names)
    # Variable `bit` is a [False, True] column along axis n-1-bit of the
    # (2,)*n index grid, so the ops broadcast up to the full table.
    columns = {}
    for bit, name in enumerate(names):
        shape = [1] * n
        shape[n - 1 - bit] = 2
        columns[name] = false_true.reshape(shape)

    def column(node, args):
        if isinstance(node, Var):
            return columns[node.name]
        # The root's op writes its 0/1 values straight into the table,
        # without a full-size boolean column in between.
        out = np.empty((2,) * n, dtype=np.int64) if node is ast else None
        return ops[type(node)](*args, out=out)

    if isinstance(ast, Var):
        table = np.empty((2,) * n, dtype=np.int64)
        table[...] = column(ast, [])
    else:
        table = _fold(ast, column)
    table = table.reshape(-1)
    table.flags.writeable = False
    return table
