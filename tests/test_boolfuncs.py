"""Truth tables, gates, composition and formula compilation."""

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markov_fuzzy as mf
from markov_fuzzy import And, Exists, Forall, Implies, Not, Or, Var
from markov_fuzzy.errors import (
    ArityMismatch,
    ArityTooLarge,
    DuplicateVariable,
    MultiOutput,
    UnboundVariable,
    UnexpandedQuantifier,
)


def eval_ast(node, env):
    """Plain recursive evaluation; the oracle for compile_formula."""
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Not):
        return not eval_ast(node.child, env)
    if isinstance(node, And):
        return eval_ast(node.left, env) and eval_ast(node.right, env)
    if isinstance(node, Or):
        return eval_ast(node.left, env) or eval_ast(node.right, env)
    if isinstance(node, Implies):
        return (not eval_ast(node.left, env)) or eval_ast(node.right, env)
    raise TypeError(node)


#: Formulas over a, b, c, d; variables are often read twice.
FORMULAS = st.recursive(
    st.sampled_from("abcd").map(Var),
    lambda sub: st.one_of(
        sub.map(Not),
        st.builds(
            lambda op, a, b: op(a, b), st.sampled_from((And, Or, Implies)), sub, sub
        ),
    ),
    max_leaves=12,
)


class TestCompile:
    def test_deep_chain_is_not_bounded_by_recursion(self):
        ast = mf.parse_formula(" & ".join(["a", "!b"] * 2000))
        assert mf.formula_variables(ast) == ["a", "b"]
        assert mf.compile_formula(ast, ["a", "b"]).table.tolist() == [0, 1, 0, 0]

    def test_and_table(self):
        f = mf.compile_formula(And(Var("p1"), Var("p2")), ["p1", "p2"])
        assert f.table.tolist() == [0, 0, 0, 1]
        assert f == mf.and_function()

    def test_classic_de_morgan(self):
        lhs = mf.compile_formula(Not(Or(Var("p1"), Var("p2"))), ["p1", "p2"])
        rhs = mf.compile_formula(And(Not(Var("p1")), Not(Var("p2"))), ["p1", "p2"])
        assert lhs == rhs

    def test_implication_expansion(self):
        lhs = mf.compile_formula(Implies(Var("p1"), Var("p2")), ["p1", "p2"])
        rhs = mf.compile_formula(Or(Not(Var("p1")), Var("p2")), ["p1", "p2"])
        assert lhs == rhs
        assert lhs == mf.implies_function()

    def test_unused_ordering_variable(self):
        f = mf.compile_formula(Var("a"), ["a", "b"])
        assert f.table.tolist() == [0, 1, 0, 1]

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            mf.compile_formula(Var("mystery"), ["p1"])

    def test_duplicate_ordering(self):
        with pytest.raises(DuplicateVariable):
            mf.compile_formula(Var("p1"), ["p1", "p1"])

    def test_duplicates_named_in_first_appearance_order(self):
        with pytest.raises(DuplicateVariable, match=r"ordering: \[2, 'b', 1\]$"):
            mf.compile_formula(Var("a"), [2, "b", "a", 1, "b", 2, 1])

    def test_quantifier_rejected(self):
        ast = mf.Exists("x", "U", Var("P(x)"))
        with pytest.raises(ValueError):
            mf.compile_formula(ast, ["P(a)"])

    def test_quantifier_reported_before_an_unbound_variable(self):
        ast = And(Var("mystery"), Exists("x", "U", Var("P(x)")))
        with pytest.raises(UnexpandedQuantifier):
            mf.compile_formula(ast, ["P(a)"])

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(FORMULAS, st.permutations("abcdef"))
    def test_matches_recursive_evaluation(self, ast, ordering):
        """Orderings of six names, so e and f (and any of a-d the formula
        does not read) are unused variables.  The first read of `table`
        builds it; later reads return the same array."""
        want = [
            int(eval_ast(ast, dict(zip(ordering, mf.index_assignment(index, 6)))))
            for index in range(64)
        ]
        f = mf.compile_formula(ast, ordering)
        assert "table" not in vars(f)
        assert not hasattr(f, "tables")
        table = f.table
        assert table.tolist() == want
        assert not table.flags.writeable
        assert f.table is table
        # Each of these reads the table of a fresh, unread function first.
        expected = mf.BooleanFunction(6, 1, np.array(want))
        assert mf.compile_formula(ast, ordering) == expected
        assert expected == mf.compile_formula(ast, ordering)
        assert repr(mf.compile_formula(ast, ordering)) == repr(expected)
        fresh = mf.compile_formula(ast, ordering)
        for index in range(64):
            assignment = mf.index_assignment(index, 6)
            assert fresh(assignment) == expected(assignment)

    def test_leaves_no_reference_cycle(self):
        """The variable columns are freed once the first read of `table`
        returns, not by the cyclic GC."""
        ast = mf.parse_formula("(a & !b) | (c -> a)")
        gc.collect()
        gc.disable()
        try:
            assert mf.compile_formula(ast, ["a", "b", "c"]).table.tolist() == [
                1, 1, 1, 1, 0, 1, 0, 1
            ]
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMinterms:
    def test_xor(self):
        assert mf.to_minterms(mf.xor_function()) == {(True, False), (False, True)}

    def test_constant_false(self):
        f = mf.BooleanFunction(2, 1, [0, 0, 0, 0])
        assert mf.to_minterms(f) == set()

    def test_three_way_and(self):
        assert mf.to_minterms(mf.and_function(3)) == {(True, True, True)}

    def test_multi_output_rejected(self):
        with pytest.raises(MultiOutput):
            mf.to_minterms(mf.identity_function(2))

    def test_minterm_of_the_wrong_length_rejected(self):
        with pytest.raises(ArityMismatch, match="does not have 2 coordinates"):
            mf.from_minterms(2, {(True, False), (True,)})

    def test_round_trip_all_two_variable_functions(self):
        for bits in itertools.product((0, 1), repeat=4):
            f = mf.BooleanFunction(2, 1, list(bits))
            assert mf.from_minterms(2, mf.to_minterms(f)) == f

    def test_round_trip_via_formula(self):
        # Rebuild as an explicit or-of-full-conjunctions and recompile.
        names = ["p1", "p2"]
        for bits in itertools.product((0, 1), repeat=4):
            f = mf.BooleanFunction(2, 1, list(bits))
            minterms = sorted(mf.to_minterms(f))
            if not minterms:
                ast = And(Var("p1"), Not(Var("p1")))
            else:
                terms = []
                for assignment in minterms:
                    literals = [
                        Var(name) if value else Not(Var(name))
                        for name, value in zip(names, assignment)
                    ]
                    term = literals[0]
                    for lit in literals[1:]:
                        term = And(term, lit)
                    terms.append(term)
                ast = terms[0]
                for term in terms[1:]:
                    ast = Or(ast, term)
            assert mf.compile_formula(ast, names) == f


class TestCompose:
    def test_negated_or_equals_and_of_negations(self):
        lhs = mf.compose(mf.not_function(), mf.or_function())
        rhs = mf.compose(
            mf.and_function(), mf.product(mf.not_function(), mf.not_function())
        )
        assert lhs == rhs

    def test_identity_neutral(self):
        f = mf.xor_function()
        assert mf.compose(mf.identity_function(1), f) == f
        assert mf.compose(f, mf.identity_function(2)) == f

    def test_double_negation(self):
        assert mf.compose(mf.not_function(), mf.not_function()) == mf.identity_function(1)

    def test_associative(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n, k, m, r = (int(x) for x in rng.integers(1, 4, size=4))
            f = mf.BooleanFunction(n, k, rng.integers(0, 1 << k, size=1 << n))
            g = mf.BooleanFunction(k, m, rng.integers(0, 1 << m, size=1 << k))
            h = mf.BooleanFunction(m, r, rng.integers(0, 1 << r, size=1 << m))
            assert mf.compose(h, mf.compose(g, f)) == mf.compose(mf.compose(h, g), f)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            mf.compose(mf.and_function(2), mf.identity_function(3))


class TestProduct:
    def test_not_pair(self):
        both_not = mf.product(mf.not_function(), mf.not_function())
        assert both_not((True, False)) == (False, True)

    def test_identity_blocks(self):
        assert mf.product(mf.identity_function(1), mf.identity_function(1)) == (
            mf.identity_function(2)
        )

    def test_and_with_or(self):
        f = mf.product(mf.and_function(), mf.or_function())
        assert f((True, True, False, False)) == (True, False)

    def test_arity_cap(self):
        wide = mf.identity_function(13)
        with pytest.raises(ArityTooLarge):
            mf.product(wide, wide)


class TestBooleanFunction:
    def test_table_validation(self):
        with pytest.raises(ValueError):
            mf.BooleanFunction(1, 1, [0, 2])
        with pytest.raises(ArityMismatch):
            mf.BooleanFunction(2, 1, [0, 1])

    def test_call_checks_arity(self):
        with pytest.raises(ArityMismatch):
            mf.and_function()((True,))

    def test_formula_variables_order(self):
        ast = Or(And(Var("q"), Var("p")), Var("q"))
        assert mf.formula_variables(ast) == ["q", "p"]

    def test_formula_variables_rejects_a_foreign_node(self):
        with pytest.raises(TypeError, match="not a formula node: 'b'"):
            mf.formula_variables(And(Var("a"), "b"))

    def test_equal_only_to_functions(self):
        f = mf.and_function()
        assert f != object() and not f == object()
        assert f == mf.BooleanFunction(2, 1, [0, 0, 0, 1])


class TestFormulaEquality:
    def test_shallow_trees_keep_dataclass_semantics(self):
        """A node equals a node of its type with equal fields, and hashes
        as the tuple of its fields, as the dataclass methods did."""
        def build():
            body = Implies(And(Var("a"), Not(Var("b"))), Or(Var("c"), Var("a")))
            return Exists("x", "U", body)

        tree, same = build(), build()
        assert tree == same and hash(tree) == hash(same)
        assert tree != Forall("x", "U", tree.body)
        assert tree != Exists("y", "U", tree.body)
        assert And(Var("a"), Var("b")) != Or(Var("a"), Var("b"))
        assert And(Var("a"), Var("b")) != And(Var("b"), Var("a"))
        assert Var("a") != "a" and Not(Var("a")) != Var("a")
        assert hash(Var("a")) == hash(("a",))
        assert hash(Not(Var("a"))) == hash((Var("a"),))
        assert hash(tree.body) == hash((tree.body.left, tree.body.right))
        assert hash(tree) == hash(("x", "U", tree.body))
        assert len({tree, same, tree.body}) == 2

    @pytest.mark.parametrize("depth", [1200, 4000])
    def test_deep_parsed_formulas(self, depth):
        text = "!" * depth + "(P & Q)"
        a, b = mf.parse_formula(text), mf.parse_formula(text)
        assert a == b and hash(a) == hash(b)
        assert a != mf.parse_formula("!" * depth + "(P & R)")
        assert a != mf.parse_formula("!" * (depth - 1) + "(P & Q)")
        chain = " & ".join(["a", "!b"] * depth)
        assert {mf.parse_formula(chain): 1}[mf.parse_formula(chain)] == 1
