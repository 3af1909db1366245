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
a second family).  The first fault in text order raises.

The tokenizer makes one `findall` pass over the text and keeps only the
text of each token.  The parser reads them by index: per token it does a
few comparisons and set lookups, and builds the tree's nodes on an
explicit stack that holds a frame per open quantifier, so parse time is
linear in the text at any nesting depth.  No offsets are kept.  Only
when an error is raised is its span computed, by scanning the text again
with the same pattern up to the offending token.

Beside each node it builds, the parser builds that node's normal form
(see `compile_formula`), numbering the variables in first-appearance
order, and it keeps on the root the record (the names, the normal form,
or None if the tree holds a quantifier).  `formula_variables` returns a
copy of the names, and `compile_formula` against those names adopts the
normal form; neither folds the tree.  The record is no field of the
tree: parsed trees compare, hash and print as trees built by hand.

Model files are JSON objects; see `parse_model` / `parse_joint`.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from typing import Union

from ._common import N_MAX, FrozenValue
from .boolfuncs import And, Exists, Forall, Formula, Implies, Not, Or, Var
from .boolfuncs import _LEAF, _LEAVES, _combined, _fold, _negated
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


#: The words that are not identifiers: the keywords, the symbols, and ""
#: for the end of input.
_RESERVED = frozenset((*_KEYWORDS, "->", "&", "|", "!", "(", ")", ":", ""))
#: What may start an operand, as an error lists it.
_OPERAND = ("identifier", "'!'", "'('", "'exists'", "'forall'")


def _tokenize(text: str) -> list:
    """The text of each token of `text`, then "" for the end of input.

    One `findall` gives (ident, sym, bad) per match, all three empty for
    whitespace.  A token's text is never empty, so an empty word marks an
    unexpected character, which raises."""
    matches = _TOKEN_RE.findall(text)
    words = [ident + sym for ident, sym, bad in matches if ident or sym or bad]
    if "" in words:
        match = next(m for m in _TOKEN_RE.finditer(text) if m.lastgroup == "bad")
        start = match.start()
        raise ParseError(
            f"unexpected character {match.group()!r} at offset {start}",
            span=SourceSpan(start, start + 1),
            expected=("identifier", "'!'", "'&'", "'|'", "'->'", "'('", "')'", "':'"),
        )
    words.append("")
    return words


def _span(text: str, index: int) -> SourceSpan:
    """The span of token `index` of `text`, or of the end of input past the
    last token.  The parser keeps only the tokens' text, so an error finds
    its offsets by scanning the text again with the same pattern."""
    tokens = (match for match in _TOKEN_RE.finditer(text) if match.lastgroup)
    match = next(islice(tokens, index, None), None)
    return SourceSpan(*match.span()) if match else SourceSpan(len(text), len(text))


def _unexpected(text: str, words: list, index: int, expected) -> ParseError:
    span = _span(text, index)
    return ParseError(
        f"unexpected {words[index] or 'end of input'!r} at offset {span.start}; "
        f"expected one of: {', '.join(sorted(expected))}",
        span=span,
        expected=expected,
    )


def _parse(text: str, words: list) -> tuple:
    """(the formula at the start of the tokens `words` of `text`, the index
    of the first token that cannot extend it).  The formula's root holds
    the parser's record (`_parsed`): its variable names in first-appearance
    order and its normal form over them (never read past N_MAX names), or
    None if it holds a quantifier.

    An explicit stack of pending quantifiers, prefix operators, open
    parentheses and binary operators with their left operands stands in
    for recursive descent, so nesting depth is not bounded by the
    recursion limit.  Each frame is (node type, fields before the last,
    the normal form of a binary operator's left operand or None).  Beside
    the stack the parser keeps only the names, the open quantifiers'
    variables and whether it has closed a quantifier.  While there are at
    most N_MAX names, it makes beside each node that node's normal form
    from those of its operands, as `compile_formula`'s walk does.
    """
    stack: list = [_BOTTOM]
    names: dict = {}  # each variable's coordinate, by first appearance
    scopes: dict = {}  # each open quantifier's variable: its family or None
    quantified = False
    index = 0
    while True:
        # An operand: the prefix operators and open parentheses before an
        # atom, then the atom.
        word = words[index]
        if word not in _RESERVED:
            index += 1
            if words[index] != "(":
                name = word
            else:
                arg = words[index + 1]
                if arg in _RESERVED:
                    raise _unexpected(text, words, index + 1, ("variable name",))
                if words[index + 2] != ")":
                    raise _unexpected(text, words, index + 2, ("')'",))
                if arg in scopes:
                    family = scopes[arg] = scopes[arg] or word
                    if family != word:
                        raise ParseError(
                            f"variable {arg!r} is applied to multiple belief "
                            f"families {sorted((family, word))}; one family per "
                            f"quantified variable is supported",
                            span=SourceSpan(
                                _span(text, index - 1).start, _span(text, index + 2).end
                            ),
                        )
                name = f"{word}({arg})"
                index += 3
            node = Var(name)
            i = names.setdefault(name, len(names))
            form = _LEAVES[i] if i < N_MAX else _PAST_CAP
        elif word == "(":
            stack.append(_PAREN)
            index += 1
            continue
        elif word == "!":
            stack.append(_NEGATION)
            index += 1
            continue
        elif (word == "exists" or word == "forall") and stack[-1][0] in _OPENERS:
            var = words[index + 1]
            if var in _RESERVED:
                raise _unexpected(text, words, index + 1, ("variable name",))
            if var in scopes:
                raise DuplicateVariable(
                    f"quantified variable {var!r} shadows an enclosing binding"
                )
            if words[index + 2] != "in":
                raise _unexpected(text, words, index + 2, ("'in'",))
            universe = words[index + 3]
            if universe in _RESERVED:
                raise _unexpected(text, words, index + 3, ("universe name",))
            if words[index + 4] != ":":
                raise _unexpected(text, words, index + 4, ("':'",))
            scopes[var] = None
            stack.append((Exists if word == "exists" else Forall, (var, universe), None))
            index += 5
            continue
        else:
            raise _unexpected(text, words, index, _OPERAND)
        # Then the closing parentheses and the binary operator after the
        # atom.  A binary operator closes the frames `_closed_first` names;
        # any other token closes all but an open parenthesis, and ends the
        # formula at the bottom of the stack unless it is ')'.
        while True:
            word = words[index]
            cls, closes = _BINARY.get(word, _END)
            while stack[-1][0] in closes:
                kind, fields, left = stack.pop()
                node = kind(*fields, node)
                if left is None and kind is not Not:
                    quantified = True
                    del scopes[fields[0]]
                elif len(names) <= N_MAX:
                    form = _negated(form) if left is None else _combined(kind, left, form)
            if cls is not None:
                break
            if stack[-1] is _BOTTOM:
                node.__dict__["_parsed"] = (tuple(names), None if quantified else form)
                return node, index
            if word != ")":
                raise _unexpected(text, words, index, ("')'",))
            stack.pop()
            index += 1
        stack.append((cls, (node,), form))
        index += 1


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
#: At a token that is no binary operator: no connective, and every frame
#: closes but an open parenthesis (None) and the bottom.
_END = (None, frozenset(_PRECEDENCE))
#: The normal form of a variable past the N_MAX-th.  Once a formula names
#: more than N_MAX variables the parser builds no more normal forms: such
#: a formula compiles against no ordering of its names, so its recorded
#: normal form is never read.  This leaf keeps that record a list, never the None that
#: marks a quantified formula.
_PAST_CAP = [_LEAF, 0, N_MAX]
#: The frames of an open parenthesis, of a negation, and at the bottom of
#: the stack, which nothing closes.
_PAREN = (None, (), None)
_NEGATION = (Not, (), None)
_BOTTOM = (False, (), None)
#: The kinds of top frame a quantifier may follow: the bottom, an open
#: parenthesis and a quantifier's ':'.
_OPENERS = frozenset((False, None, Exists, Forall))


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST, or raise ParseError or DuplicateVariable.
    The root keeps the parser's record of the formula's variable names and
    normal form (see the module docstring)."""
    words = _tokenize(text)
    node, index = _parse(text, words)
    if words[index]:
        raise _unexpected(text, words, index, ("end of input", "'&'", "'|'", "'->'"))
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
    """Minimal-parentheses text form.  parse_formula(format_formula(a)) == a
    for every tree `parse_formula` can return; a hand-built tree that it
    would refuse prints text that raises ParseError or DuplicateVariable."""
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
