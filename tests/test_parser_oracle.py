"""`parse_formula` against an oracle: the tokenizer and parser that kept
(kind, text, start, end) per token, kept here as they were.  On random
texts the parser returns the oracle's tree, or raises the oracle's
exception type with the same message, span and expected set."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markov_fuzzy import And, Exists, Forall, Implies, Not, Or, Var, parse_formula
from markov_fuzzy.dsl import SourceSpan
from markov_fuzzy.errors import DuplicateVariable, ParseError

# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

_KEYWORDS = ("exists", "forall", "in")
_TOKEN_RE = re.compile(
    r"\s+|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>->|[&|!():])|(?P<bad>.)", re.S
)


def _tokenize(text: str) -> list:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup
        if group is None:
            continue
        word, start = match.group(), match.start()
        if group == "bad":
            raise ParseError(
                f"unexpected character {word!r} at offset {start}",
                span=SourceSpan(start, start + 1),
                expected=("identifier", "'!'", "'&'", "'|'", "'->'", "'('", "')'", "':'"),
            )
        kind = "ident" if group == "ident" and word not in _KEYWORDS else word
        tokens.append((kind, word, start, match.end()))
    tokens.append(("eof", "", len(text), len(text)))
    return tokens


#: Each binary token's node type and the pending node types it closes
#: first: those binding tighter, and itself when it associates left.
_BINARY = {
    "&": (And, frozenset({And, Not, Var})),
    "|": (Or, frozenset({Or, And, Not, Var})),
    "->": (Implies, frozenset({Or, And, Not, Var})),
}
_CLOSES_ALL = frozenset({Exists, Forall, Implies, Or, And, Not, Var})
_OPENERS = frozenset((None, Exists, Forall))


def _close(stack: list, node, kinds: frozenset):
    while stack and stack[-1][0] in kinds:
        cls, fields = stack.pop()
        node = cls(*fields, node)
    return node


class _Parser:
    def __init__(self, text: str):
        self.tokens = iter(_tokenize(text))
        self.current = next(self.tokens)
        self.scopes: dict = {}

    def advance(self) -> tuple:
        token, self.current = self.current, next(self.tokens)
        return token

    def fail(self, expected) -> ParseError:
        _, text, start, end = self.current
        shown = text or "end of input"
        return ParseError(
            f"unexpected {shown!r} at offset {start}; "
            f"expected one of: {', '.join(sorted(expected))}",
            span=SourceSpan(start, end),
            expected=expected,
        )

    def expect(self, kind: str, label: str) -> tuple:
        if self.current[0] != kind:
            raise self.fail((label,))
        return self.advance()

    def scope_of(self, stack: list, var: str):
        scope = self.scopes.get(var)
        if scope and scope[0] < len(stack) and stack[scope[0]] is scope[1]:
            return scope
        return None

    def formula(self):
        stack: list = []
        while True:
            node = self.operand(stack)
            kind = self.current[0]
            while kind not in _BINARY:
                node = _close(stack, node, _CLOSES_ALL)
                if not stack:
                    return node
                self.expect(")", "')'")
                stack.pop()
                kind = self.current[0]
            cls, closes = _BINARY[kind]
            node = _close(stack, node, closes)
            self.advance()
            stack.append((cls, (node,)))

    def operand(self, stack: list):
        opens_formula = not stack or stack[-1][0] in _OPENERS
        while True:
            kind, name, start, _ = self.current
            if opens_formula and kind in ("exists", "forall"):
                self.advance()
                var = self.expect("ident", "variable name")[1]
                if self.scope_of(stack, var):
                    raise DuplicateVariable(
                        f"quantified variable {var!r} shadows an enclosing binding"
                    )
                self.expect("in", "'in'")
                universe = self.expect("ident", "universe name")[1]
                self.expect(":", "':'")
                frame = (Exists if kind == "exists" else Forall, (var, universe))
                self.scopes[var] = [len(stack), frame, None]
                stack.append(frame)
            elif kind == "!":
                self.advance()
                stack.append((Not, ()))
                opens_formula = False
            elif kind == "(":
                self.advance()
                stack.append((None, ()))
                opens_formula = True
            elif kind == "ident":
                self.advance()
                if self.current[0] != "(":
                    return Var(name)
                self.advance()
                arg = self.expect("ident", "variable name")[1]
                end = self.expect(")", "')'")[3]
                scope = self.scope_of(stack, arg)
                if scope:
                    family = scope[2] = scope[2] or name
                    if family != name:
                        raise ParseError(
                            f"variable {arg!r} is applied to multiple belief "
                            f"families {sorted((family, name))}; one family per "
                            f"quantified variable is supported",
                            span=SourceSpan(start, end),
                        )
                return Var(f"{name}({arg})")
            else:
                quantifiers = ("'exists'", "'forall'") if opens_formula else ()
                raise self.fail(("identifier", "'!'", "'('", *quantifiers))


def oracle_parse(text: str):
    parser = _Parser(text)
    node = parser.formula()
    if parser.current[0] != "eof":
        raise parser.fail(("end of input", "'&'", "'|'", "'->'"))
    return node


# ---------------------------------------------------------------------------
# Random texts
# ---------------------------------------------------------------------------

IDENTIFIERS = st.sampled_from(["P", "Q", "x", "y", "U", "_a", "P1", "v12"])
KEYWORDS = st.sampled_from(list(_KEYWORDS))
#: The operator symbols, and '-' without '>'.
SYMBOLS = st.sampled_from(["&", "|", "!", "->", ":", "-"])
#: One character that is no token, and three that are whitespace.
STRAY = st.sampled_from(["^", "\x1c", "\u3000", "\x85"])
PARENS = st.sampled_from(["(", ")", "((", "))"])
#: Whole pieces of the quantified forms, so that texts reach the scope rules.
PIECES = st.sampled_from(
    ["exists x in U :", "forall x in U :", "exists y in V :"]
    + ["P(x)", "Q(x)", "P(y)", "P("]
)
FRAGMENT = st.one_of(IDENTIFIERS, KEYWORDS, SYMBOLS, STRAY, PARENS, PIECES)
SPACE = st.sampled_from(["", " ", "  ", "\t"])
JUMBLES = st.lists(st.tuples(FRAGMENT, SPACE), max_size=14).map(
    lambda parts: "".join(f"{fragment}{space}" for fragment, space in parts)
)
#: Formula texts, well formed but for the scope rules and for quantifiers
#: as operands, where the grammar allows none.
FORMULAS = st.recursive(
    st.one_of(IDENTIFIERS, st.sampled_from(["P(x)", "Q(x)", "P(y)", "Q(y)"])),
    lambda inner: st.one_of(
        st.builds("!{}".format, inner),
        st.builds("({})".format, inner),
        st.builds("{} {} {}".format, inner, st.sampled_from(["&", "|", "->"]), inner),
        st.builds(
            "{} {} in U : {}".format,
            st.sampled_from(["exists", "forall"]),
            st.sampled_from(["x", "y"]),
            inner,
        ),
    ),
    max_leaves=8,
)


def _edit(text: str, at: int, fragment: str, how: str) -> str:
    at %= len(text) + 1
    if how == "cut":
        return text[:at]
    if how == "insert":
        return text[:at] + fragment + text[at:]
    if how == "drop":
        return text[:at] + text[at + 1 :]
    return text


#: A formula text as drawn, cut short, with a fragment put in, or with one
#: character taken out.
EDITED = st.builds(
    _edit,
    FORMULAS,
    st.integers(0, 200),
    FRAGMENT,
    st.sampled_from(["keep", "cut", "insert", "drop"]),
)
TEXTS = st.one_of(JUMBLES, EDITED)


def outcome(parse, text: str):
    """The tree, or (exception type, message, span, expected)."""
    try:
        return parse(text)
    except (ParseError, DuplicateVariable) as exc:
        return (
            type(exc),
            str(exc),
            getattr(exc, "span", None),
            getattr(exc, "expected", None),
        )


@settings(derandomize=True, deadline=None, max_examples=600)
@given(TEXTS)
@example("")
@example("P & ^")
@example("P & (Q")
@example("exists x in U : P(x) & Q(x)")
@example("exists x in U : exists x in V : P(x)")
@example("exists x in U : (P(x)) & forall y in V : P(y) | Q(y)")
@example("P(x) & exists x in U : P(x)")
@example("exists x in U :  P(x) &   Q( x )")
@example("P\x85&\u3000Q\x1c->!x")
def test_parse_formula_agrees_with_the_oracle(text):
    want = outcome(oracle_parse, text)
    got = outcome(parse_formula, text)
    assert got == want
    if not isinstance(want, tuple):
        assert hash(got) == hash(want)


@pytest.mark.parametrize(
    "text",
    ["P1 & ^", "P1 & (P2", "P1 P2", "(P1 | P2", "exists x in U : P(x) | Q(x)", "P(", "!"],
)
def test_errors_carry_the_oracles_span(text):
    want = outcome(oracle_parse, text)
    assert isinstance(want, tuple)
    assert outcome(parse_formula, text) == want
