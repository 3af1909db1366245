"""Formula parsing, printing round trips and model-file loading."""

import sys

import numpy as np
import pytest

import markov_fuzzy as mf
from markov_fuzzy import dsl
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


class TestScopeRules:
    """Both scope rules are checked as the parser reads the tokens, so the
    first fault in text order raises (a character the tokenizer refuses
    still raises before any of them)."""

    def test_family_error_spans_the_second_family(self):
        text = "exists x in U : P(x) & (A | Q(x)) & R(x)"
        with pytest.raises(ParseError) as info:
            mf.parse_formula(text)
        assert str(info.value) == (
            "variable 'x' is applied to multiple belief families ['P', 'Q']; "
            "one family per quantified variable is supported"
        )
        span = info.value.span
        assert text[span.start:span.end] == "Q(x)"

    def test_family_of_an_outer_variable_inside_an_inner_quantifier(self):
        text = "forall x in U : Q(x) & (exists y in V : P(y) & P(x))"
        with pytest.raises(ParseError) as info:
            mf.parse_formula(text)
        assert text[info.value.span.start:info.value.span.end] == "P(x)"

    def test_scope_fault_before_a_later_syntax_error(self):
        with pytest.raises(DuplicateVariable):
            mf.parse_formula("exists x in U : (exists x in V : P(x)) & & ")
        with pytest.raises(ParseError, match="multiple belief families"):
            mf.parse_formula("exists x in U : P(x) & Q(x) & & ")

    def test_inner_shadowing_before_a_later_second_family(self):
        with pytest.raises(DuplicateVariable, match="'x' shadows"):
            mf.parse_formula("exists x in U : (exists x in U : R(x)) & P(x) & Q(x)")

    def test_closed_scopes_bind_nothing(self):
        for text in (
            "(exists x in U : P(x)) & (exists x in U : Q(x))",
            "(exists x in U : P(x)) & Q(x)",
            "(exists x in U : P(x)) -> (forall x in V : Q(x))",
            "exists y in U : (exists x in U : P(x)) & (exists x in U : Q(x))",
        ):
            assert mf.format_formula(mf.parse_formula(text)) == text

    def test_unbound_applications_name_any_family(self):
        assert mf.parse_formula("P(x) & Q(x)") == And(Var("P(x)"), Var("Q(x)"))


class TestParseErrors:
    def test_span_points_at_offending_token(self):
        text = "P1 & & P2"
        with pytest.raises(ParseError) as info:
            mf.parse_formula(text)
        span = info.value.span
        assert text[span.start:span.end] == "&"
        assert 0 <= span.start <= span.end <= len(text)
        assert info.value.expected

    @pytest.mark.parametrize(
        "text, quantifier_allowed",
        [
            ("", True),
            ("(", True),
            ("exists x in U : ", True),
            ("!exists x in U : P(x)", False),
            ("P1 & forall x in U : P(x)", False),
            ("P1 -> ", False),
        ],
    )
    def test_a_quantifier_is_expected_only_where_it_may_start(
        self, text, quantifier_allowed
    ):
        """An operand may start with 'exists' or 'forall' only first, after
        '(' or after a quantifier's ':', and only there does an error list
        them, so an error never lists the token it refuses."""
        with pytest.raises(ParseError) as info:
            mf.parse_formula(text)
        operand = {"identifier", "'!'", "'('"}
        quantifiers = {"'exists'", "'forall'"} if quantifier_allowed else set()
        assert set(info.value.expected) == operand | quantifiers

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

    def test_whitespace_is_what_str_isspace_names(self):
        """The tokenizer's pattern skips exactly the code points that
        `str.isspace` names, so a character is whitespace, part of a token
        or an unexpected character as before the pattern took whitespace
        in."""
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        skipped = set()
        for match in dsl._token_re().finditer(text):
            if match.lastgroup is None:
                skipped.update(range(*match.span()))
        assert skipped == {i for i, c in enumerate(text) if c.isspace()}

    @pytest.mark.parametrize("space", ["\x1c", "\u3000", "\u2028", "\x85"])
    def test_unicode_whitespace_separates_tokens(self, space):
        assert mf.parse_formula(f"P1{space}&{space}P2") == And(Var("P1"), Var("P2"))
        with pytest.raises(ParseError) as info:
            mf.parse_formula(f"P1{space}^")
        assert info.value.span.start == 3
        assert str(info.value) == "unexpected character '^' at offset 3"


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

    def test_nested_quantifiers_each_applied(self):
        """Every variable of a deep chain is applied in the innermost body;
        a second family of the outermost variable at its end is found."""
        heads = "".join(f"exists x{i} in U : " for i in range(self.DEPTH))
        body = " & ".join(f"P(x{i})" for i in range(self.DEPTH))
        assert mf.format_formula(mf.parse_formula(heads + body)) == heads + body
        with pytest.raises(ParseError) as info:
            mf.parse_formula(f"{heads}{body} & Q(x0)")
        assert info.value.span.start == len(heads + body) + 3
        with pytest.raises(DuplicateVariable):
            mf.parse_formula(f"{heads}exists x0 in U : P(x0)")


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


CONNECTIVES = (Not, And, Or, Implies, Exists, Forall)


def build(kind, children, var):
    """A `kind` node over `children`, each given as (node, text): the node
    and its text with no brackets added."""
    (first, text), *rest = children
    if kind is Not:
        return Not(first), f"!{text}"
    if kind in (Exists, Forall):
        keyword = "exists" if kind is Exists else "forall"
        return kind(var, "U", first), f"{keyword} {var} in U : {text}"
    (second, other), = rest
    symbol = {And: "&", Or: "|", Implies: "->"}[kind]
    return kind(first, second), f"{text} {symbol} {other}"


def bracketed(child):
    return child[0], f"({child[1]})"


#: Each connective with each side of it: a unary node has one operand.
SIDES = [(Not, "only"), (Exists, "only"), (Forall, "only")] + [
    (kind, side) for kind in (And, Or, Implies) for side in ("left", "right")
]


class TestBrackets:
    @pytest.mark.parametrize(
        "outer, side", SIDES, ids=[f"{k.__name__}-{side}" for k, side in SIDES]
    )
    @pytest.mark.parametrize("inner", CONNECTIVES, ids=lambda k: k.__name__)
    def test_brackets_exactly_when_needed(self, outer, side, inner):
        """An `inner` node as the `side` operand of an `outer` one:
        `format_formula` brackets it exactly when its unbracketed text
        would not parse back to the same tree, and its text parses back to
        the same tree."""
        leaves = [(Var(name), name) for name in ("A", "B")]
        child = build(inner, leaves, "y")
        other = (Var("C"), "C")
        kids = {"only": [child], "left": [child, other], "right": [other, child]}[side]
        tree, bare = build(outer, kids, "x")
        _, wrapped = build(outer, [bracketed(k) if k is child else k for k in kids], "x")
        try:
            needed = mf.parse_formula(bare) != tree
        except ParseError:
            needed = True
        text = mf.format_formula(tree)
        assert text == (wrapped if needed else bare)
        assert mf.parse_formula(text) == tree


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

    @pytest.mark.parametrize(
        "probs",
        [
            '["0.5", "0.5"]',
            "[true, false]",
            "[0, true]",
            "[null, 1]",
            "[[0.5], 0.5]",
            '[{"p": 0.5}, 0.5]',
        ],
    )
    def test_entries_must_be_json_numbers(self, probs):
        """Strings, booleans and nulls are not read as numbers."""
        with pytest.raises(SchemaError, match="'probs' must be a list of numbers"):
            mf.parse_joint(f'{{"arity": 1, "probs": {probs}}}')

    def test_integer_entries_are_numbers(self):
        dist = mf.parse_joint('{"arity": 1, "probs": [0, 1]}')
        assert dist.probs.tolist() == [0.0, 1.0]

    def test_huge_integer_reads_as_inf(self):
        from markov_fuzzy.errors import NegativeMass

        huge = "9" * 400
        with pytest.raises(NegativeMass, match="must be finite"):
            mf.parse_joint(f'{{"arity": 1, "probs": [0, {huge}]}}')
