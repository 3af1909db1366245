"""Property-based checks: formula round trips, the parser's scope rules
against a walk over the tree, compile_formula's normal form against a
fold over the tree, the one q-feasibility rule,
functoriality of pushforward, marginal consistency of products and of
pair tables, de Morgan duality of the q connectives and monotone
tightening of exact bounds, seeded `quantify sample` output, and `eval`
equal to pushforward bit for bit."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import markov_fuzzy as mf
from markov_fuzzy import And, Exists, Forall, Implies, Not, Or, Var, cli
from markov_fuzzy.boolfuncs import _ALL, _ANY, _LEAF, _NEG, _child_fields, _fold, _truth_bits
from markov_fuzzy.bounds import FEASIBILITY_TOL
from markov_fuzzy.errors import (
    DuplicateVariable,
    InfeasibleQ,
    ParseError,
    UnboundVariable,
    UnexpandedQuantifier,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

#: Each quantified variable is applied to one belief family only.
FAMILIES = {"x": "P", "y": "Q", "z": "R"}
BINARY = {"and": And, "or": Or, "implies": Implies}


@st.composite
def formulas(draw, depth=4, bound=()):
    """Trees that parse_formula accepts: nested quantifiers never rebind
    an enclosing variable."""
    free = [v for v in FAMILIES if v not in bound]
    kinds = ["var"]
    if depth > 0:
        kinds += ["not", *BINARY] + (["exists", "forall"] if free else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        names = ["A", "B", "C", "S(w)"] + [f"{FAMILIES[v]}({v})" for v in bound]
        return Var(draw(st.sampled_from(names)))
    if kind == "not":
        return Not(draw(formulas(depth - 1, bound)))
    if kind in BINARY:
        left = draw(formulas(depth - 1, bound))
        return BINARY[kind](left, draw(formulas(depth - 1, bound)))
    var = draw(st.sampled_from(free))
    universe = draw(st.sampled_from(["U", "V"]))
    body = draw(formulas(depth - 1, bound + (var,)))
    return (Exists if kind == "exists" else Forall)(var, universe, body)


def reference_variables(node, seen):
    """First-appearance order by an explicit recursive walk."""
    if isinstance(node, Var):
        if node.name not in seen:
            seen.append(node.name)
    elif isinstance(node, Not):
        reference_variables(node.child, seen)
    elif isinstance(node, (And, Or, Implies)):
        reference_variables(node.left, seen)
        reference_variables(node.right, seen)
    else:
        reference_variables(node.body, seen)
    return seen


@PROPERTY
@given(formulas())
def test_format_parse_round_trip(ast):
    assert mf.parse_formula(mf.format_formula(ast)) == ast


@PROPERTY
@given(formulas())
def test_formula_variables_first_appearance_order(ast):
    assert mf.formula_variables(ast) == reference_variables(ast, [])


def reference_normal_form(ast, ordering):
    """compile_formula's normal form as a fold builds it: each node from
    the forms of its children, bottom-up and left to right.  A quantifier
    raises once its body is done, an unbound variable after the whole
    fold, naming the leftmost."""
    index = {name: i for i, name in enumerate(ordering)}
    unbound = []

    def negated(form):
        return form[2] if form[0] == _NEG else [_NEG, form[1], form]

    def node(formula, kids):
        if isinstance(formula, Var):
            i = index.get(formula.name)
            if i is None:
                unbound.append(formula.name)
                return [_LEAF, 0, 0]
            return [_LEAF, 1 << i, i]
        if isinstance(formula, Not):
            return negated(kids[0])
        if isinstance(formula, (Exists, Forall)):
            raise UnexpandedQuantifier(
                "quantifiers must be expanded over their universes before compilation"
            )
        left, right = kids
        if isinstance(formula, Implies):
            left = negated(left)
        op = _ALL if isinstance(formula, And) else _ANY
        # A chain of one connective merges into the longer operand list.
        a = left[2] if left[0] == op else [left]
        b = right[2] if right[0] == op else [right]
        if len(a) < len(b):
            a, b = b, a
        a.extend(b)
        return [op, left[1] | right[1], a]

    tree = _fold(ast, node)
    if unbound:
        raise UnboundVariable(f"variable {unbound[0]!r} not bound by the ordering")
    return tree


def outcome(call):
    """What `call` returns, or the type and message of the compile error
    it raises."""
    try:
        return call()
    except (UnboundVariable, UnexpandedQuantifier) as exc:
        return type(exc), str(exc)


@PROPERTY
@given(formulas(), st.data())
def test_compile_formula_builds_the_reference_normal_form(ast, data):
    """Against an ordering of the formula's variables and an unused name,
    in any order and with one variable left out at times: the same normal
    form as the fold, or the same error with the same message."""
    names = mf.formula_variables(ast)
    ordering = data.draw(st.permutations(names + ["unused"]))
    if data.draw(st.booleans()):
        ordering.remove(data.draw(st.sampled_from(names)))
    expected = outcome(lambda: reference_normal_form(ast, ordering))
    assert outcome(lambda: mf.compile_formula(ast, ordering)._formula) == expected


@st.composite
def scoped_formulas(draw, depth=5, bound=()):
    """Trees whose quantifiers may rebind an enclosing variable and whose
    applications name any of three families at a bound variable or at the
    free w: formulas that break either scope rule, once or more.  A
    quantifier's body is binary, so that it can apply two families."""
    kinds = ["name", "application"]
    if depth > 0:
        kinds += ["not", *BINARY, "exists", "forall"]
    kind = draw(st.sampled_from(kinds))
    if kind == "name":
        return Var(draw(st.sampled_from(["A", "B"])))
    if kind == "application":
        var = draw(st.sampled_from([*bound, "w"]))
        return Var(f"{draw(st.sampled_from('PQR'))}({var})")
    if kind == "not":
        return Not(draw(scoped_formulas(depth - 1, bound)))
    if kind in BINARY:
        left = draw(scoped_formulas(depth - 1, bound))
        return BINARY[kind](left, draw(scoped_formulas(depth - 1, bound)))
    var = draw(st.sampled_from("xyz"))
    inner = scoped_formulas(depth - 1, bound + (var,))
    body = draw(st.sampled_from(list(BINARY.values())))(draw(inner), draw(inner))
    return (Exists if kind == "exists" else Forall)(var, "U", body)


APPLICATION_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\(([A-Za-z_][A-Za-z0-9_]*)\)$")


def walk(node):
    """Every node of the tree in pre-order, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for name in reversed(_child_fields(node)):
            stack.append(getattr(node, name))


def reference_check_quantified(node):
    """The scope rules as a walk over the parsed tree, the reference for
    the parser's own checks: each quantifier in pre-order, its whole body
    scanned for the families applied to its variable."""
    stack = [(node, ())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, (Exists, Forall)):
            if node.var in bound:
                raise DuplicateVariable(
                    f"quantified variable {node.var!r} shadows an enclosing binding"
                )
            families = set()
            for inner in walk(node.body):
                match = isinstance(inner, Var) and APPLICATION_RE.match(inner.name)
                if match and match.group(2) == node.var:
                    families.add(match.group(1))
            if len(families) > 1:
                raise ParseError(
                    f"variable {node.var!r} is applied to multiple belief "
                    f"families {sorted(families)}; one family per quantified "
                    f"variable is supported"
                )
            bound = bound + (node.var,)
        for name in reversed(_child_fields(node)):
            stack.append((getattr(node, name), bound))


def scope_faults(ast):
    """Each quantifier that breaks a scope rule, in pre-order: (var, None)
    for one that rebinds an enclosing variable, (var, families) for one
    whose variable is applied to more than one family, in text order."""
    faults = []
    stack = [(ast, ())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, (Exists, Forall)):
            if node.var in bound:
                faults.append((node.var, None))
            families = []
            for inner in walk(node.body):
                match = isinstance(inner, Var) and APPLICATION_RE.match(inner.name)
                if match and match.group(2) == node.var and match.group(1) not in families:
                    families.append(match.group(1))
            if len(families) > 1:
                faults.append((node.var, families))
            bound = bound + (node.var,)
        for name in reversed(_child_fields(node)):
            stack.append((getattr(node, name), bound))
    return faults


def scope_error(call):
    """The scope error `call` raises, or None."""
    try:
        call()
    except (DuplicateVariable, ParseError) as exc:
        return exc
    return None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(scoped_formulas())
@example(Exists("x", "U", And(Var("P(x)"), And(Var("Q(x)"), Var("R(x)")))))
@example(Exists("x", "U", And(Exists("x", "U", Var("R(x)")), And(Var("P(x)"), Var("Q(x)")))))
@example(Exists("x", "U", Exists("y", "U", And(Var("P(x)"), Var("Q(y)")))))
def test_parser_scope_checks_agree_with_the_tree_walk(ast):
    """parse_formula raises a scope error exactly when the reference walk
    does.  With one fault, the error is the walk's, but for a family
    error naming only the first two families in text order, and carrying
    the span of the application that names the second."""
    text = mf.format_formula(ast)
    expected = scope_error(lambda: reference_check_quantified(ast))
    error = scope_error(lambda: mf.parse_formula(text))
    assert (error is None) == (expected is None) == (not scope_faults(ast))
    if error is None:
        assert mf.parse_formula(text) == ast
        return
    faults = scope_faults(ast)
    if len(faults) > 1:
        return
    ((var, families),) = faults
    assert type(error) is type(expected)
    if families is None:
        assert str(error) == str(expected)
        return
    first, second = families[:2]
    assert str(error) == str(expected).replace(
        str(sorted(families)), str(sorted((first, second)))
    )
    assert text[error.span.start:error.span.end] == f"{second}({var})"


def reference_value(node, value):
    """The truth of a quantifier-free tree under {name: bool}, by an
    explicit recursive walk."""
    if isinstance(node, Var):
        return value[node.name]
    if isinstance(node, Not):
        return not reference_value(node.child, value)
    left = reference_value(node.left, value)
    right = reference_value(node.right, value)
    if isinstance(node, And):
        return left and right
    return (left or right) if isinstance(node, Or) else (not left or right)


@PROPERTY
@given(
    formulas(bound=tuple(FAMILIES)),
    st.lists(st.integers(0, 1), max_size=7),
    st.integers(0, 3),
)
@example(Var("A"), [], 0)  # n = 1 and 2: tables shorter than a byte
@example(Not(Var("A")), [1], 0)
@example(Implies(Var("A"), Or(Var("B"), Not(Var("A")))), [3, 12], 0)  # B at 16 of 17
def test_truth_bits_evaluate_the_formula(ast, gaps, tail):
    """Compiled against an ordering with `gaps[k]` unused names before
    its k-th variable and `tail` after the last, the formula's bits over
    the coordinates it reads equal the tree's value at every assignment,
    and its table equals them lifted to all n coordinates."""
    ordering = []
    for k, name in enumerate(mf.formula_variables(ast)):
        for _ in range(gaps[k] if k < len(gaps) else 0):
            ordering.append(f"unused{len(ordering)}")
        ordering.append(name)
    ordering += [f"unused{n}" for n in range(len(ordering), len(ordering) + tail)]
    f = mf.compile_formula(ast, ordering)
    coords = [i for i, name in enumerate(ordering) if not name.startswith("unused")]
    bits = _truth_bits(f._formula, coords)
    for a in range(1 << len(coords)):
        value = {ordering[i]: bool(a >> k & 1) for k, i in enumerate(coords)}
        assert (bits >> a & 1) == reference_value(ast, value)
    index = np.arange(1 << len(ordering))
    read = sum(((index >> i) & 1) << k for k, i in enumerate(coords))
    want = np.array([bits >> a & 1 for a in range(1 << len(coords))])[read]
    assert f.table.dtype == np.int64 and not f.table.flags.writeable
    assert f.table.tolist() == want.tolist()


BOTH_FALSE = mf.compile_formula(mf.parse_formula("!P1 & !P2"), ["P1", "P2"])
beliefs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def accepted_q(build):
    """The clamped q a builder stores, or None when it rejects q."""
    try:
        return build()
    except InfeasibleQ:
        return None


@PROPERTY
@given(
    beliefs,
    beliefs,
    st.sampled_from(["q_min", "q_max"]),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([0.0, 0.25, 0.5, 0.99, 1.0, 1.01, 2.0, 4.0, 1e3]),
)
def test_every_q_check_agrees_at_the_boundary(p1, p2, end, sign, k):
    """pair_from_pq, PartialJointSpec, BeliefTable and the CLI sweep
    accept the same q near an end of [q_min, q_max] and clamp it to the
    same value; and_q accepts it with them and evaluates at that value."""
    b = mf.q_bounds(p1, p2)
    q = getattr(b, end) + sign * k * mf.EPS_FEAS
    outside = max(b.q_min - q, q - b.q_max)

    def sweep():
        columns = cli._sweep_columns(p1, p2, np.array([q]), BOTH_FALSE)
        assert columns[1][0] == mf.and_q(p1, p2, q)
        return columns[4][0]

    clamped = {
        accepted_q(lambda: float(mf.pair_from_pq(p1, p2, q).probs[0])),
        accepted_q(
            lambda: mf.PartialJointSpec((p1, p2), {(1, 2): q}).pairwise[(1, 2)]
        ),
        accepted_q(
            lambda: mf.BeliefTable(("a", "b"), {"a": p1, "b": p2}, {("a", "b"): q})
            .q("a", "b")
        ),
        accepted_q(sweep),
    }
    assert len(clamped) == 1
    (q_clamped,) = clamped
    and_value = accepted_q(lambda: mf.and_q(p1, p2, q))
    assert (and_value is None) == (q_clamped is None)
    if q_clamped is not None:
        assert and_value == mf.and_q(p1, p2, q_clamped)
    if outside <= 0.5 * mf.EPS_FEAS:
        assert q_clamped is not None
    elif outside >= 1.5 * mf.EPS_FEAS:
        assert q_clamped is None


#: Sums of at most 2**5 probabilities agree to this under any association.
SUM_TOL = 1e-12


@st.composite
def joints(draw, max_arity=5):
    n = draw(st.integers(1, max_arity))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1 << n, max_size=1 << n))
    probs = np.array(weights)
    probs = probs / probs.sum() if probs.sum() > 0 else np.full(1 << n, 0.5**n)
    return mf.make_joint(n, probs)


@st.composite
def functions(draw, arity_in, max_arity_out=3):
    m = draw(st.integers(1, max_arity_out))
    table = draw(
        st.lists(
            st.integers(0, (1 << m) - 1), min_size=1 << arity_in, max_size=1 << arity_in
        )
    )
    return mf.BooleanFunction(arity_in, m, np.array(table))


@PROPERTY
@given(st.data())
def test_pushforward_is_functorial(data):
    d = data.draw(joints())
    f = data.draw(functions(d.arity))
    g = data.draw(functions(f.arity_out))
    direct = mf.pushforward(d, mf.compose(g, f))
    stepwise = mf.pushforward(mf.pushforward(d, f), g)
    assert direct.arity == stepwise.arity == g.arity_out
    np.testing.assert_allclose(direct.probs, stepwise.probs, rtol=0, atol=SUM_TOL)


@PROPERTY
@given(st.lists(beliefs, min_size=1, max_size=10))
def test_independent_product_marginals_are_its_factors(ps):
    joint = mf.independent_product(ps)
    for coord, p in enumerate(ps, start=1):
        single = mf.marginal(joint, [coord]).probs
        np.testing.assert_allclose(single, [1.0 - p, p], rtol=0, atol=SUM_TOL)


@st.composite
def feasible_triples(draw):
    """(p1, p2, q) with q at an end of [q_min, q_max] or anywhere inside."""
    p1, p2 = draw(beliefs), draw(beliefs)
    b = mf.q_bounds(p1, p2)
    t = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return p1, p2, min(b.q_min + t * (b.q_max - b.q_min), b.q_max)


@PROPERTY
@given(feasible_triples())
def test_de_morgan_for_or_q_and_and_q(triple):
    """not(A or B) = not A and not B: with the negated marginals and the
    both-false confidence of the negations (= both-true of the original),
    or_q and and_q are each other's complements."""
    p1, p2, q = triple
    n1, n2, q_dual = mf.de_morgan_dual(p1, p2, q)
    assert abs(mf.or_q(p1, p2, q) - (1.0 - mf.and_q(n1, n2, q_dual))) <= SUM_TOL
    assert abs(mf.and_q(p1, p2, q) - (1.0 - mf.or_q(n1, n2, q_dual))) <= SUM_TOL


@PROPERTY
@given(feasible_triples())
def test_pair_from_pq_is_marginally_consistent(triple):
    p1, p2, q = triple
    pair = mf.pair_from_pq(p1, p2, q)
    assert abs(pair.probs[0] - q) <= SUM_TOL
    for coord, p in ((1, p1), (2, p2)):
        single = mf.marginal(pair, [coord]).probs
        np.testing.assert_allclose(single, [1.0 - p, p], rtol=0, atol=SUM_TOL)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.data())
def test_exact_bounds_tighten_as_pairwise_entries_are_added(n, seed, data):
    """Pairwise entries read off one table, added one at a time: each
    interval lies inside the one before and contains the table's value."""
    rng = np.random.default_rng(seed)
    table = rng.dirichlet(np.ones(1 << n)) * (rng.random(1 << n) < 0.7)
    if table.sum() == 0:
        table[0] = 1.0
    table /= table.sum()
    f = mf.BooleanFunction(n, 1, rng.integers(0, 2, size=1 << n))
    value = float(table[f.table == 1].sum())
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    marginals = tuple(float(table[bits[:, i] == 1].sum()) for i in range(n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    order = data.draw(st.permutations(pairs))
    pairwise = {}
    previous = mf.exact_bounds(mf.PartialJointSpec(marginals), f)
    assert previous.contains(value, tol=FEASIBILITY_TOL)
    for i, j in order:
        both_false = (bits[:, i - 1] == 0) & (bits[:, j - 1] == 0)
        pairwise[(i, j)] = float(table[both_false].sum())
        ci = mf.exact_bounds(mf.PartialJointSpec(marginals, pairwise), f)
        assert ci.lo >= previous.lo - FEASIBILITY_TOL
        assert ci.hi <= previous.hi + FEASIBILITY_TOL
        assert ci.contains(value, tol=FEASIBILITY_TOL)
        previous = ci


@st.composite
def sample_runs(draw):
    """A belief table and the `quantify sample` options to run on it."""
    label = st.text("abcxyz", min_size=1, max_size=3)
    labels = draw(st.lists(label, min_size=1, max_size=6, unique=True))
    table = {"universe": labels, "p": {label: draw(beliefs) for label in labels}}
    options = [
        "--seed", str(draw(st.integers(0, 2**32 - 1))),
        "--samples", str(draw(st.integers(1, 3000))),
        "--format", draw(st.sampled_from(["json", "csv"])),
    ]
    if draw(st.booleans()):
        options += ["--tuple-length", str(draw(st.integers(1, 8)))]
    return table, options


FRESH_SAMPLE_RUNS = """
import contextlib, io, json, sys
from markov_fuzzy import cli

outputs = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
print(json.dumps(outputs))
"""


@settings(derandomize=True, deadline=None, max_examples=8)
@given(st.lists(sample_runs(), min_size=1, max_size=6))
def test_quantify_sample_is_byte_identical_for_a_seed(runs):
    """For a fixed --seed, stdout is the same bytes on a second run in the
    same process and in a fresh interpreter with another hash seed."""
    with tempfile.TemporaryDirectory() as directory:
        argvs = []
        for k, (table, options) in enumerate(runs):
            path = os.path.join(directory, f"table{k}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(table, handle)
            argvs.append(["quantify", "sample", "--input", path, *options])
        outputs = []
        for argv in argvs:
            first, second = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(first):
                code = cli.main(argv)
            with contextlib.redirect_stdout(second):
                assert cli.main(argv) == code == 0
            assert first.getvalue() == second.getvalue()
            outputs.append([code, first.getvalue()])
        src = os.path.dirname(os.path.dirname(mf.__file__))
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_SAMPLE_RUNS],
            input=json.dumps(argvs),
            capture_output=True,
            text=True,
            env=env,
        )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == outputs


@st.composite
def formulas_reading(draw, n):
    """A quantifier-free formula that reads each of P1..Pn."""
    order = draw(st.permutations(range(1, n + 1)))
    nodes = [Var(f"P{i}") for i in order]
    nodes = [Not(node) if draw(st.booleans()) else node for node in nodes]
    while len(nodes) > 1:
        k = draw(st.integers(0, len(nodes) - 2))
        node = draw(st.sampled_from(list(BINARY.values())))(*nodes[k : k + 2])
        nodes[k : k + 2] = [Not(node) if draw(st.booleans()) else node]
    return mf.format_formula(nodes[0])


@st.composite
def eval_calls(draw):
    """(joint document, formula) of an `eval` call over n = 1..8: a table
    of int 0/1 entries with all the mass on one cell, or a normalised
    one; scaled by up to 1 +- EPS_SIMPLEX, with a few empty cells set to
    0 or to a value in [-EPS_SIMPLEX, 0).  Up to 1.5 times the tolerance
    now and then makes a document faulty."""
    n = draw(st.integers(1, 8))
    size = 1 << n
    empty = draw(st.lists(st.integers(0, size - 1), max_size=3))
    if draw(st.booleans()):
        probs = [draw(st.sampled_from([0, 0.0, -0.0])) for _ in range(size)]
        full = draw(st.integers(0, size - 1))
        probs[full] = draw(st.sampled_from([1, 1.0]))
        empty = [k for k in empty if k != full]
    else:
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        for k in empty:
            weights[k] = 0.0
        total = math.fsum(weights) or 1.0
        probs = [w / total for w in weights]
    eps = mf.EPS_SIMPLEX * draw(st.sampled_from([1.0, 1.5]))
    scale = 1.0 + draw(st.floats(-eps, eps))
    probs = [p * scale if isinstance(p, float) else p for p in probs]
    negative = st.floats(-eps, 0.0, exclude_max=True)
    for k in empty:
        probs[k] = draw(st.one_of(negative, st.just(0)))
    return json.dumps({"arity": n, "probs": probs}), draw(formulas_reading(n))


def main_outcome(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def library_outcome(text, formula):
    """What `eval` prints when it runs the library's parse_joint and
    pushforward: (exit code, [p_false, p_true] as float.hex, stderr)."""
    try:
        dist = mf.parse_joint(text)
        cli._check_cap(dist.arity)
        out = mf.pushforward(dist, cli._compile(formula, dist.arity))
    except ValueError as exc:
        code = next(code for kind, code in cli._EXIT_CODES if isinstance(exc, kind))
        return code, None, f"error: {type(exc).__name__}: {exc}\n"
    return 0, [float.hex(p) for p in out.probs.tolist()], ""


HUGE = "1" + "0" * 400


@PROPERTY
@given(eval_calls())
@example(('{"arity": 1, "probs": [NaN, 1.0]}', "P1"))
@example(('{"arity": 1, "probs": [1e400, 0.0]}', "P1"))
@example(('{"arity": 1, "probs": [%s, 0]}' % HUGE, "P1"))
@example(('{"arity": 1, "probs": [-%s, 1]}' % HUGE, "P1"))
@example(('{"arity": 1, "probs": [1e308, 1e308]}', "P1"))
@example(('{"arity": 1, "probs": [1.5, -0.5]}', "P1"))
@example(('{"arity": 1, "probs": [0.25, 0.25]}', "P1"))
@example(('{"arity": 2, "probs": [0.5, 0.5]}', "P1 & P2"))
@example(('{"arity": 25, "probs": [1.0]}', "P1"))
@example(('{"arity": true, "probs": [1.0]}', "P1"))
@example(('{"arity": 1, "probs": [0.5, 0.5]}', "P1 & P2"))
@example(('{"arity": 2, "probs": [NaN, -1, 3]}', "P1 & P2"))
@example(('{"arity": 1, "probs": [NaN, -1]}', "P1"))
@example(('{"arity": 2, "probs": [-1, 0.5, 0.25, 7]}', "P1 & P2"))
def test_eval_is_pushforward_bit_for_bit(call):
    """`eval` checks the table and sums its cells in plain Python; its
    output equals pushforward(parse_joint(...)) bit for bit, and a faulty
    document exits with the library path's code and error line."""
    text, formula = call
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "joint.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, out, err = main_outcome(["eval", "--formula", formula, "--input", path])
    want_code, want_probs, want_err = library_outcome(text, formula)
    assert (code, err) == (want_code, want_err)
    if code == 0:
        doc = json.loads(out)
        assert doc["true"] == doc["distribution"]["true"]
        got = [doc["distribution"]["false"], doc["distribution"]["true"]]
        assert [float.hex(p) for p in got] == want_probs
