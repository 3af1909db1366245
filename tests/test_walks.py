"""The walks of `compile_formula` and `formula_variables`: which
error a tree with several faults raises, and from_minterms' check of its
argument."""

import pytest

import markov_fuzzy as mf
from markov_fuzzy import And, Exists, Forall, Not, Or, Var
from markov_fuzzy.errors import InvalidParameter, UnboundVariable, UnexpandedQuantifier

QUANTIFIED = Exists("x", "U", Var("P(x)"))


def test_foreign_node_inside_a_quantifier_body():
    """The walk reaches the foreign object before the quantifier's body
    is done."""
    ast = Forall("x", "U", And(Var("P(x)"), "b"))
    with pytest.raises(TypeError, match="not a formula node: 'b'"):
        mf.compile_formula(ast, ["P(x)"])
    with pytest.raises(TypeError, match="not a formula node: 'b'"):
        mf.formula_variables(ast)


def test_quantifier_left_of_a_foreign_node():
    """A quantifier's body is done before the walk reaches its right
    sibling.  formula_variables reads quantifier bodies."""
    ast = And(QUANTIFIED, "b")
    with pytest.raises(UnexpandedQuantifier):
        mf.compile_formula(ast, ["P(x)"])
    with pytest.raises(TypeError, match="not a formula node: 'b'"):
        mf.formula_variables(ast)


def test_unbound_variable_with_a_quantifier():
    """An unbound variable raises only after the whole walk, on either
    side of the quantifier."""
    for ast in (And(Var("mystery"), QUANTIFIED), Or(QUANTIFIED, Not(Var("mystery")))):
        with pytest.raises(UnexpandedQuantifier):
            mf.compile_formula(ast, ["P(x)"])
    assert mf.formula_variables(Or(QUANTIFIED, Var("mystery"))) == ["P(x)", "mystery"]


def test_unbound_variable_with_a_foreign_node():
    with pytest.raises(TypeError, match="not a formula node: None"):
        mf.compile_formula(And(Var("mystery"), None), [])


def test_leftmost_unbound_variable_is_named():
    ast = And(Not(Var("m1")), Or(Var("a"), Var("m2")))
    with pytest.raises(UnboundVariable, match="'m1'"):
        mf.compile_formula(ast, ["a"])


@pytest.mark.parametrize("foreign", [Var, Not, And, Exists])
def test_a_node_type_in_the_tree_is_foreign(foreign):
    """A node class where a node belongs is no formula node, though the
    compiler marks finished operands with node types."""
    ast = Or(Var("a"), foreign)
    with pytest.raises(TypeError, match="not a formula node: <class "):
        mf.compile_formula(ast, ["a"])
    with pytest.raises(TypeError, match="not a formula node: <class "):
        mf.formula_variables(ast)


def test_from_minterms_needs_an_iterable():
    with pytest.raises(InvalidParameter, match="minterms must be iterable, got 5"):
        mf.from_minterms(1, 5)
