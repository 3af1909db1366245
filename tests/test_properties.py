"""Property-based checks: formula round trips, the one q-feasibility rule,
functoriality of pushforward, marginal consistency of products and of
pair tables, de Morgan duality of the q connectives and monotone
tightening of exact bounds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import markov_fuzzy as mf
from markov_fuzzy import And, Exists, Forall, Implies, Not, Or, Var, cli
from markov_fuzzy.bounds import FEASIBILITY_TOL
from markov_fuzzy.errors import InfeasibleQ

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
    """pair_from_pq, PartialJointSpec, BeliefTable and the vectorised sweep
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
