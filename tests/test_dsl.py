"""Formula parsing, printing round trips and model-file loading."""

import numpy as np
import pytest

import markov_fuzzy as mf
from markov_fuzzy import And, Exists, Forall, Implies, Not, Or, Var
from markov_fuzzy.errors import (
    DuplicateVariable,
    InfeasibleQ,
    ParseError,
    SchemaError,
)


def random_formula(rng, depth, quantifier_ok=True):
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return Var(str(rng.choice(["P1", "P2", "P3", "P4"])))
    if quantifier_ok and roll < 0.3:
        var = str(rng.choice(["x", "y"]))
        universe = str(rng.choice(["U", "V"]))
        family = str(rng.choice(["P", "Q"]))
        body_core = Var(f"{family}({var})")
        if rng.random() < 0.5:
            body_core = Not(body_core)
        node = Exists if rng.random() < 0.5 else Forall
        return node(var, universe, body_core)
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return Not(random_formula(rng, depth - 1, quantifier_ok))
    branches = (
        random_formula(rng, depth - 1, quantifier_ok),
        random_formula(rng, depth - 1, quantifier_ok),
    )
    return (And, Or, Implies)[kind - 1](*branches)


class TestParseFormula:
    def test_negated_disjunction(self):
        assert mf.parse_formula("!(P1 | P2)") == Not(Or(Var("P1"), Var("P2")))

    def test_implies_right_associative(self):
        assert mf.parse_formula("P -> Q -> R") == Implies(
            Var("P"), Implies(Var("Q"), Var("R"))
        )

    def test_precedence(self):
        assert mf.parse_formula("A & B | C & D") == Or(
            And(Var("A"), Var("B")), And(Var("C"), Var("D"))
        )
        assert mf.parse_formula("!A & B") == And(Not(Var("A")), Var("B"))
        assert mf.parse_formula("A | B -> C") == Implies(
            Or(Var("A"), Var("B")), Var("C")
        )

    def test_left_associative_chains(self):
        assert mf.parse_formula("A & B & C") == And(And(Var("A"), Var("B")), Var("C"))

    def test_quantifier(self):
        assert mf.parse_formula("exists x in U : P(x)") == Exists(
            "x", "U", Var("P(x)")
        )
        assert mf.parse_formula("forall y in V : !Q(y)") == Forall(
            "y", "V", Not(Var("Q(y)"))
        )

    def test_nested_quantifiers_distinct_names(self):
        ast = mf.parse_formula("exists x in U : (forall y in V : P(x) & P(y))")
        assert isinstance(ast, Exists)

    def test_duplicate_nested_variable_rejected(self):
        with pytest.raises(DuplicateVariable):
            mf.parse_formula("exists x in U : (exists x in V : P(x))")

    def test_one_family_per_variable(self):
        with pytest.raises(ParseError):
            mf.parse_formula("exists x in U : P(x) & Q(x)")

    def test_whitespace_insignificant(self):
        assert mf.parse_formula("P1&P2") == mf.parse_formula("  P1  &  P2  ")


class TestParseErrors:
    def test_span_points_at_offending_token(self):
        text = "P1 & & P2"
        with pytest.raises(ParseError) as info:
            mf.parse_formula(text)
        span = info.value.span
        assert text[span.start:span.end] == "&"
        assert 0 <= span.start <= span.end <= len(text)
        assert info.value.expected

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            mf.parse_formula("P1 ^ P2")
        assert info.value.span.start == 3

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as info:
            mf.parse_formula("(P1 | P2")
        assert info.value.span.start == len("(P1 | P2")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            mf.parse_formula("P1 P2")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            mf.parse_formula("")


class TestDeepNesting:
    """Nesting depth is not bounded by the interpreter's recursion limit;
    trees this deep are checked level by level or through their text
    form.  Node equality and hashing do not recurse either; the formula
    node tests compare such trees directly."""

    DEPTH = 1200

    def test_nested_not(self):
        ast = mf.parse_formula("!" * self.DEPTH + "P")
        for _ in range(self.DEPTH):
            assert isinstance(ast, Not)
            ast = ast.child
        assert ast == Var("P")

    def test_nested_parentheses(self):
        text = "(" * self.DEPTH + "P & Q" + ")" * self.DEPTH
        assert mf.parse_formula(text) == And(Var("P"), Var("Q"))

    def test_unclosed_nested_parentheses(self):
        text = "(" * self.DEPTH + "P"
        with pytest.raises(ParseError) as info:
            mf.parse_formula(text)
        assert info.value.span.start == len(text)

    def test_implies_chain_is_right_associative(self):
        names = [f"P{i}" for i in range(self.DEPTH)]
        ast = mf.parse_formula(" -> ".join(names))
        for name in names[:-1]:
            assert isinstance(ast, Implies) and ast.left == Var(name)
            ast = ast.right
        assert ast == Var(names[-1])

    def test_format_and_chain(self):
        names = [f"P{i}" for i in range(self.DEPTH)]
        ast = Var(names[0])
        for name in names[1:]:
            ast = And(ast, Var(name))
        text = mf.format_formula(ast)
        assert text == " & ".join(names)
        assert mf.format_formula(mf.parse_formula(text)) == text
        right = Var(names[-1])
        for name in reversed(names[:-1]):
            right = And(Var(name), right)
        text = mf.format_formula(right)
        assert text == (
            " & (".join(names[:-1]) + f" & {names[-1]}" + ")" * (self.DEPTH - 2)
        )
        assert mf.format_formula(mf.parse_formula(text)) == text

    def test_nested_quantifiers(self):
        text = "".join(f"exists x{i} in U : " for i in range(self.DEPTH)) + "P(x0)"
        assert mf.format_formula(mf.parse_formula(text)) == text


class TestRoundTrip:
    def test_corpus(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            ast = random_formula(rng, depth=int(rng.integers(1, 7)))
            text = mf.format_formula(ast)
            assert mf.parse_formula(text) == ast

    def test_examples(self):
        for text in (
            "!(P1 | P2)",
            "P -> Q -> R",
            "(P -> Q) -> R",
            "exists x in U : P(x)",
            "!(A & (B | !C)) -> D",
        ):
            ast = mf.parse_formula(text)
            assert mf.parse_formula(mf.format_formula(ast)) == ast


class TestParseModel:
    def test_marginal_spec(self):
        spec = mf.parse_model('{"marginals": [0.7, 0.6]}')
        assert isinstance(spec, mf.PartialJointSpec)
        assert spec.arity == 2
        assert spec.marginals == (0.7, 0.6)

    def test_infeasible_pairwise(self):
        with pytest.raises(InfeasibleQ):
            mf.parse_model('{"marginals": [0.7, 0.6], "pairwise": {"1,2": 0.9}}')

    def test_belief_table(self):
        table = mf.parse_model('{"universe": ["a", "b"], "p": {"a": 0.3, "b": 0.4}}')
        assert isinstance(table, mf.BeliefTable)
        assert table.p["b"] == 0.4

    def test_belief_table_with_pairs(self):
        table = mf.parse_model(
            '{"universe": ["a", "b"], "p": {"a": 0.3, "b": 0.4},'
            ' "q_pair": {"a,b": 0.42}}'
        )
        assert table.q("b", "a") == pytest.approx(0.42)

    def test_independent_flag(self):
        spec = mf.parse_model('{"marginals": [0.5, 0.5], "independent": true}')
        assert spec.independent

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2, 3]",
            '{"something": 1}',
            '{"marginals": [0.5, "x"]}',
            '{"marginals": [0.5], "extra": 1}',
            '{"marginals": [0.5, 0.5], "pairwise": {"1-2": 0.1}}',
            '{"marginals": [0.5, 0.5], "pairwise": {"a,b": 0.1}}',
            '{"marginals": [0.5, 0.5], "independent": "yes"}',
            '{"universe": ["a", 1], "p": {"a": 0.5}}',
            '{"universe": ["a,b"], "p": {"a,b": 0.5}}',
            '{"universe": ["a"], "p": [0.5]}',
            '{"universe": ["a"], "p": {"a": null}}',
            '{"universe": ["a"], "p": {"a": "0.1"}}',
            '{"universe": ["a"], "p": {"a": true}}',
            '{"universe": ["a", "b"], "p": {"a": 0.3, "b": 0.4}, "q_pair": {"a,b": null}}',
            '{"universe": ["a", "b"], "p": {"a": 0.3, "b": 0.4}, "q_pair": {"a,b": [0.4]}}',
            '{"universe": ["a", "b"], "p": {"a": 0.3, "b": 0.4}, "q_pair": [1]}',
            '{"marginals": [0.5, 0.5], "pairwise": {"1,2": null}}',
            '{"marginals": [0.5, 0.5], "pairwise": {"1,2": [0.1]}}',
            '{"marginals": [0.5, 0.5], "pairwise": {"1,2": "0.1"}}',
            '{"marginals": [0.5, 0.5], "pairwise": [1]}',
        ],
    )
    def test_schema_errors(self, text):
        with pytest.raises(SchemaError):
            mf.parse_model(text)


class TestParseJoint:
    def test_round_trip(self):
        dist = mf.parse_joint('{"arity": 2, "probs": [0.1, 0.2, 0.3, 0.4]}')
        assert dist.arity == 2
        np.testing.assert_allclose(dist.probs, [0.1, 0.2, 0.3, 0.4], atol=0)

    @pytest.mark.parametrize(
        "text",
        [
            '{"arity": 2}',
            '{"probs": [1.0]}',
            '{"arity": "2", "probs": [0.5, 0.5]}',
            '{"arity": 1, "probs": [0.5, 0.5], "extra": 0}',
            '{"arity": 1, "probs": 0.5}',
        ],
    )
    def test_schema_errors(self, text):
        with pytest.raises(SchemaError):
            mf.parse_joint(text)

    def test_value_errors_propagate(self):
        from markov_fuzzy.errors import NotNormalized

        with pytest.raises(NotNormalized):
            mf.parse_joint('{"arity": 1, "probs": [0.5, 0.4]}')
