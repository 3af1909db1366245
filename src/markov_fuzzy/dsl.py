"""Text syntax for formulas and JSON syntax for model files.

Formula grammar (ASCII connectives, whitespace insignificant):

    formula := quant | implies
    quant   := ("exists" | "forall") IDENT "in" IDENT ":" formula
    implies := or ("->" implies)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | "(" formula ")" | IDENT | IDENT "(" IDENT ")"
    IDENT   := [A-Za-z_][A-Za-z0-9_]*

Precedence: ! binds tightest, then &, then |, then ->; -> associates to
the right.  Inside quantifier bodies the application form P(x) names the
belief family P at the quantified point x.

Two scope rules hold, checked as the tokens are read: a quantifier may
not rebind a variable that an enclosing quantifier binds
(DuplicateVariable), and each quantified variable is applied to one
belief family (ParseError, with the span of the application that names
a second family).  The first fault in text order raises.  The parser
keeps a frame per open quantifier on its stack and does constant work
per token, so parse time is linear in the text at any nesting depth.

Model files are JSON objects; see `parse_model` / `parse_joint`.
"""

from __future__ import annotations

import json
import re
from typing import Union

from ._common import FrozenValue
from .boolfuncs import And, Exists, Forall, Formula, Implies, Not, Or, Var, _fold
from .bounds import PartialJointSpec
from .errors import DuplicateVariable, InvalidParameter, ParseError, SchemaError
from .joints import JointBooleanDist, make_joint
from .quantifiers import BeliefTable

__all__ = [
    "SourceSpan",
    "parse_formula",
    "format_formula",
    "parse_model",
    "parse_joint",
]


class SourceSpan(FrozenValue):
    """Byte offsets (start, end) of a token in the input text."""

    _fields = ("start", "end")

    def __init__(self, start: int, end: int):
        if not 0 <= start <= end:
            raise InvalidParameter(f"bad span ({start}, {end})")
        self.__dict__.update(start=start, end=end)


_KEYWORDS = ("exists", "forall", "in")
#: One pass over the text: whitespace (the characters `str.isspace` names),
#: an identifier, a symbol, or any other character, which is an error.
_TOKEN_RE = re.compile(
    r"\s+|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>->|[&|!():])|(?P<bad>.)", re.S
)


def _tokenize(text: str) -> list[tuple]:
    """The tokens of `text` as (kind, text, start, end) tuples, the last
    of kind "eof"."""
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = iter(_tokenize(text))
        self.current = next(self.tokens)
        #: The latest scope of each quantified variable: [the place of its
        #: quantifier's frame on the stack, that frame, the family applied
        #: to it or None].  It is open while `stack[place] is frame`.
        self.scopes: dict = {}

    # No rule reads past the eof token, so `next` never runs out.
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
        """The scope of `var` if a quantifier on `stack` binds it, else None."""
        scope = self.scopes.get(var)
        if scope and scope[0] < len(stack) and stack[scope[0]] is scope[1]:
            return scope
        return None

    def formula(self) -> Formula:
        """One formula, read up to the first token that cannot extend it.

        An explicit stack of pending prefix operators, open parentheses and
        binary operators with their left operands stands in for recursive
        descent, so nesting depth is not bounded by the recursion limit.
        """
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

    def operand(self, stack: list) -> Formula:
        """Push the prefix operators and open parentheses before the next
        atom, then read and return the atom.  Quantifiers may open a
        formula (at the start, after '(' or ':') but not an operand."""
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
                raise self.fail(("identifier", "'!'", "'('", "'exists'", "'forall'"))


#: Precedence of each node type, from the loosest binding to the tightest.
#: Of the binary connectives, -> alone associates to the right.  Both the
#: parser's closing rules and the printer's brackets follow from these two
#: facts.
_PRECEDENCE = {Exists: 0, Forall: 0, Implies: 1, Or: 2, And: 3, Not: 4, Var: 5}
_RIGHT_ASSOCIATIVE = Implies
_SYMBOL = {And: "&", Or: "|", Implies: "->"}


def _closed_first(cls) -> frozenset:
    """The pending operators that binary `cls` closes before it applies:
    those binding tighter, and `cls` itself when it associates to the
    left."""
    prec = _PRECEDENCE[cls]
    kinds = {kind for kind, other in _PRECEDENCE.items() if other > prec}
    if cls is not _RIGHT_ASSOCIATIVE:
        kinds.add(cls)
    return frozenset(kinds)


#: Binary connective of each operator token, and `_closed_first` of it.
_BINARY = {symbol: (cls, _closed_first(cls)) for cls, symbol in _SYMBOL.items()}
#: Everything but an open parenthesis (None) closes at the end of a formula.
_CLOSES_ALL = frozenset(_PRECEDENCE)
#: Stack tops after which a full formula, quantifier included, may start.
_OPENERS = frozenset((None, Exists, Forall))


def _close(stack: list, node: Formula, kinds: frozenset) -> Formula:
    """Apply the pending operators of the given kinds on top of the stack,
    innermost first; each frame is (node type, fields before the last)."""
    while stack and stack[-1][0] in kinds:
        cls, fields = stack.pop()
        node = cls(*fields, node)
    return node


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST, or raise ParseError or DuplicateVariable."""
    parser = _Parser(text)
    node = parser.formula()
    if parser.current[0] != "eof":
        raise parser.fail(("end of input", "'&'", "'|'", "'->'"))
    return node


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------


def _child_contexts(kind) -> tuple:
    """The least precedence each child of a `kind` node may have without
    brackets: its own precedence, and one more on the side a binary
    connective does not associate to."""
    prec = _PRECEDENCE[kind]
    if kind not in _SYMBOL:
        return (prec,)
    return (prec + 1, prec) if kind is _RIGHT_ASSOCIATIVE else (prec, prec + 1)


_CONTEXTS = {kind: _child_contexts(kind) for kind in _PRECEDENCE if kind is not Var}


def _format_node(node: Formula, children: list) -> tuple:
    """(text, precedence) of a node from those of its children."""
    kind = type(node)
    prec = _PRECEDENCE[kind]
    if kind is Var:
        return node.name, prec
    parts = [
        text if child_prec >= context else f"({text})"
        for (text, child_prec), context in zip(children, _CONTEXTS[kind])
    ]
    if kind is Not:
        return "!" + parts[0], prec
    if kind in _SYMBOL:
        return f" {_SYMBOL[kind]} ".join(parts), prec
    keyword = "exists" if kind is Exists else "forall"
    return f"{keyword} {node.var} in {node.universe} : {parts[0]}", prec


def format_formula(ast: Formula) -> str:
    """Minimal-parentheses text form; parse_formula(format_formula(a)) == a."""
    return _fold(ast, _format_node)[0]


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def _load_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    # A nesting deeper than the recursion limit ends the decoder this way.
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("model document must be a JSON object")
    return obj


def _check_keys(obj: dict, allowed: tuple, label: str) -> None:
    extra = set(obj) - set(allowed)
    if extra:
        raise SchemaError(f"unknown {label} keys: {sorted(extra)}")


def _all_numbers(values) -> bool:
    """Whether every value is a JSON number.  json.loads gives exact int
    and float objects, never subclasses, so one pass over the types
    rejects strings, booleans, nulls, lists and objects."""
    return set(map(type, values)) <= {int, float}


def _number_map(obj: dict, key: str) -> dict:
    """obj[key] as a JSON object of numbers; absent or null reads as {}."""
    value = obj.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict) or not _all_numbers(value.values()):
        raise SchemaError(f"{key!r} must be an object mapping keys to numbers")
    return value


def _split_pair_key(key: str):
    parts = key.split(",")
    if len(parts) != 2:
        raise SchemaError(f"pair key {key!r} must have the form 'a,b'")
    return parts[0], parts[1]


def parse_model(text: str) -> Union[PartialJointSpec, BeliefTable]:
    """Load a model document.

    {"marginals": [...], "pairwise": {"i,j": q}?, "independent": bool?}
    builds a PartialJointSpec (coordinates are 1-based);
    {"universe": [...], "p": {label: belief}, "q_pair": {"a,b": q}?}
    builds a BeliefTable.  All invariants (simplex, q feasibility) are
    checked at load time.
    """
    obj = _load_object(text)
    if "marginals" in obj:
        _check_keys(obj, ("marginals", "pairwise", "independent"), "spec")
        marginals = obj["marginals"]
        if not isinstance(marginals, list) or not _all_numbers(marginals):
            raise SchemaError("'marginals' must be a list of numbers")
        pairwise = {}
        for key, value in _number_map(obj, "pairwise").items():
            pair = _split_pair_key(key)
            # ASCII digits only: int() would also take signs, spaces,
            # underscores and other scripts' digits.
            if not all(side.isascii() and side.isdigit() for side in pair):
                raise SchemaError(f"pair key {key!r} must name 1-based coordinates")
            pairwise[tuple(map(int, pair))] = value
        independent = obj.get("independent", False)
        if not isinstance(independent, bool):
            raise SchemaError("'independent' must be a boolean")
        return PartialJointSpec(
            marginals=tuple(marginals), pairwise=pairwise, independent=independent
        )
    if "universe" in obj:
        _check_keys(obj, ("universe", "p", "q_pair"), "belief table")
        universe = obj["universe"]
        if not isinstance(universe, list) or not all(
            isinstance(x, str) for x in universe
        ):
            raise SchemaError("'universe' must be a list of strings")
        if any("," in x for x in universe):
            raise SchemaError("universe labels must not contain ','")
        p = obj.get("p")
        if not isinstance(p, dict) or not _all_numbers(p.values()):
            raise SchemaError("'p' must map labels to beliefs")
        q_pair = {}
        for key, value in _number_map(obj, "q_pair").items():
            q_pair[_split_pair_key(key)] = value
        return BeliefTable(universe=tuple(universe), p=p, q_pair=q_pair)
    raise SchemaError(
        "model document must contain either 'marginals' or 'universe'"
    )


def _joint_document(text: str) -> tuple:
    """(arity, probs) of a joint document, checked against its schema only:
    an int arity and a list of ints and floats, as json.loads made them."""
    obj = _load_object(text)
    _check_keys(obj, ("arity", "probs"), "joint")
    if "arity" not in obj or "probs" not in obj:
        raise SchemaError("joint document needs 'arity' and 'probs'")
    arity = obj["arity"]
    if not isinstance(arity, int) or isinstance(arity, bool):
        raise SchemaError("'arity' must be an integer")
    probs = obj["probs"]
    if not isinstance(probs, list) or not _all_numbers(probs):
        raise SchemaError("'probs' must be a list of numbers")
    return arity, probs


def parse_joint(text: str) -> JointBooleanDist:
    """Load {"arity": n, "probs": [... 2**n floats ...]} into a joint table."""
    import numpy as np

    arity, probs = _joint_document(text)
    # _joint_document has checked the types; as an array, make_joint does
    # not scan them again.
    return make_joint(arity, np.array(probs))
