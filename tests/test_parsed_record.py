"""The parser's record: the variable names and the normal form that
`parse_formula` builds beside each tree, which `formula_variables` and
`compile_formula` read in place of their walks.  Each property compares
a parsed tree with the same tree rebuilt by hand, which has no record and
so takes the walks."""

import copy
import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markov_fuzzy as mf
from markov_fuzzy.boolfuncs import _CHILD_FIELDS
from markov_fuzzy.errors import (
    ArityTooLarge,
    InfeasibleSpec,
    UnboundVariable,
    UnexpandedQuantifier,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

#: Few names, so that texts repeat them.
NAMES = ("A", "B", "C", "D", "E")
OPERATORS = ("&", "|", "->")


def _chain(parts: list, op: str, right: bool) -> str:
    """`parts` joined by `op`, bracketed to associate to the right or the
    left whatever the parser's own association."""
    text = parts[-1] if right else parts[0]
    for part in reversed(parts[:-1]) if right else parts[1:]:
        text = f"{part} {op} ({text})" if right else f"({text}) {op} {part}"
    return text


def _compound(inner):
    return st.one_of(
        inner.map(lambda text: f"!{text}"),
        inner.map(lambda text: f"({text})"),
        st.tuples(inner, st.sampled_from(OPERATORS), inner).map(" ".join),
        st.builds(
            lambda parts, op: f" {op} ".join(parts),
            st.lists(inner, min_size=2, max_size=5),
            st.sampled_from(OPERATORS),
        ),
        st.builds(
            _chain,
            st.lists(inner, min_size=2, max_size=5),
            st.sampled_from(OPERATORS),
            st.booleans(),
        ),
    )


#: Quantifier-free formula texts: negations, parentheses, implications and
#: chains of either association over a few repeated names.
TEXTS = st.recursive(st.sampled_from(NAMES), _compound, max_leaves=12)


def rebuilt(node):
    """The same tree, node by node, made by the node constructors: no
    record on any node."""
    fields = _CHILD_FIELDS[node.__class__]
    values = (
        rebuilt(getattr(node, name)) if name in fields else getattr(node, name)
        for name in node._fields
    )
    return node.__class__(*values)


def random_spec(seed: int, n: int, kept: int) -> mf.PartialJointSpec:
    """The marginals of a random joint over n variables, with the
    both-false confidence of each pair whose bit is set in `kept`."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(1 << n, 0.5))
    index = np.arange(1 << n)
    marginals = tuple(float(probs[index >> i & 1 == 1].sum()) for i in range(n))
    pairwise = {
        (i + 1, j + 1): float(probs[(index >> i | index >> j) & 1 == 0].sum())
        for k, (i, j) in enumerate(combinations(range(n), 2))
        if kept >> k & 1
    }
    return mf.PartialJointSpec(marginals, pairwise=pairwise)


def bounds_bits(spec, f):
    """exact_bounds of f by `float.hex`, or the type and message of the
    infeasibility it raises."""
    try:
        interval = mf.exact_bounds(spec, f)
    except InfeasibleSpec as exc:
        return type(exc), str(exc)
    return interval.lo.hex(), interval.hi.hex()


def compiled(ast, ordering):
    """The normal form `compile_formula` keeps, or the type and message of
    the UnboundVariable it raises."""
    try:
        return mf.compile_formula(ast, ordering)._formula
    except UnboundVariable as exc:
        return type(exc), str(exc)


@PROPERTY
@given(TEXTS, st.integers(0, 2**32 - 1), st.integers(0, 1023))
def test_the_record_equals_the_walks(text, seed, kept):
    """Names, normal form, table and bit-identical bounds on a spec with
    random pairs, as the walks give them on the tree rebuilt by hand."""
    ast = mf.parse_formula(text)
    walked = rebuilt(ast)
    assert walked._parsed is None and ast._parsed is not None
    names = mf.formula_variables(ast)
    assert names == mf.formula_variables(walked)
    f, g = mf.compile_formula(ast, names), mf.compile_formula(walked, names)
    assert f._formula == g._formula
    assert f.table.tolist() == g.table.tolist()
    spec = random_spec(seed, len(names), kept)
    assert bounds_bits(spec, f) == bounds_bits(spec, g)


@PROPERTY
@given(TEXTS, st.data())
def test_another_ordering_takes_the_walk(text, data):
    """An ordering permuted, with an extra name, or without one of the
    formula's names gives the walk's normal form or its UnboundVariable,
    with the same message."""
    ast = mf.parse_formula(text)
    walked = rebuilt(ast)
    names = mf.formula_variables(ast)
    ordering = data.draw(st.permutations(names))
    if data.draw(st.booleans()):
        ordering.insert(data.draw(st.integers(0, len(ordering))), "extra")
    if data.draw(st.booleans()):
        ordering.remove(data.draw(st.sampled_from(names)))
    assert compiled(ast, ordering) == compiled(walked, ordering)
    assert compiled(ast, iter(ordering)) == compiled(walked, ordering)


@PROPERTY
@given(TEXTS)
def test_the_names_returned_are_a_copy(text):
    ast = mf.parse_formula(text)
    names = mf.formula_variables(ast)
    expected = list(names)
    names.append("extra")
    names.reverse()
    assert mf.formula_variables(ast) == expected
    assert mf.compile_formula(ast, expected)._formula == compiled(rebuilt(ast), expected)


@PROPERTY
@given(TEXTS)
def test_trees_compare_hash_print_and_copy_as_before(text):
    """The record is no field: a parsed tree equals, hashes and prints as
    its rebuilt twin, and a pickled or deep-copied tree does too, and
    compiles to the same normal form."""
    ast = mf.parse_formula(text)
    walked = rebuilt(ast)
    assert ast == walked and hash(ast) == hash(walked) and repr(ast) == repr(walked)
    names = mf.formula_variables(ast)
    for twin in (pickle.loads(pickle.dumps(ast)), copy.deepcopy(ast)):
        assert twin == ast and hash(twin) == hash(ast) and repr(twin) == repr(ast)
        assert mf.formula_variables(twin) == names
        assert mf.compile_formula(twin, names)._formula == compiled(walked, names)


def test_a_quantified_tree_is_marked_and_takes_the_walk():
    ast = mf.parse_formula("exists x in U : P(x) & Q")
    assert ast._parsed == (("P(x)", "Q"), None)
    assert mf.formula_variables(ast) == ["P(x)", "Q"]
    with pytest.raises(UnexpandedQuantifier, match="^quantifiers must be expanded "):
        mf.compile_formula(ast, ["P(x)", "Q"])


def test_a_subtree_of_a_parsed_tree_has_no_record():
    ast = mf.parse_formula("(A | !B) & C")
    assert ast.left._parsed is None and ast.left.right._parsed is None
    assert mf.formula_variables(ast.left) == ["A", "B"]


def test_trees_at_and_over_the_cap():
    """N_MAX names compile from the record to the walk's normal form.  One
    more raises ArityTooLarge against its names, and UnboundVariable
    against all but the last, as the walk does."""
    for count in (mf.N_MAX, mf.N_MAX + 1):
        text = " | ".join(f"!(P{i} & P{(i + 1) % count})" for i in range(count))
        ast = mf.parse_formula(text)
        names = mf.formula_variables(ast)
        assert names == [f"P{i}" for i in range(count)]
        walked = rebuilt(ast)
        if count == mf.N_MAX:
            assert mf.compile_formula(ast, names)._formula == compiled(walked, names)
            continue
        for tree in (ast, walked):
            with pytest.raises(ArityTooLarge, match="^ordering length=25 exceeds"):
                mf.compile_formula(tree, names)
        assert compiled(ast, names[:-1]) == compiled(walked, names[:-1])
