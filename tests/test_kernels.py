"""The dense B^n kernels against their earlier per-bit index versions.

Each reference below is the implementation the kernel replaced: a
`bincount` over packed indices for `marginal`, a `concatenate` loop for
`independent_product`, per-bit `(idx >> b) & 1` columns for
`compile_formula` and `math.fsum` over a list for `make_joint`.  The
kernels must agree with them bit for bit, so `np.array_equal` (and, for
signed zeros, the bytes) is the test, not a tolerance.

The last part pins how the kernels hold memory: `pushforward` sums in
index order without copying its inputs, kernels build each table once
and return it read-only, and the public constructors copy their input.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markov_fuzzy as mf
from markov_fuzzy import And, Implies, Not, Or, Var
from markov_fuzzy.errors import NotNormalized
from markov_fuzzy.joints import _SUM_BLOCK, _exact_sum, _float_array

ARITIES = range(1, 15)


def ks(n):
    return range(1, min(n, 6) + 1)


def random_table(rng, n):
    """A normalised table that is not a product: skewed entries, some
    exact zeros and some negative zeros."""
    probs = rng.random(1 << n) ** 3
    probs[rng.random(1 << n) < 0.1] = 0.0
    probs /= probs.sum()
    zeros = probs == 0.0
    probs[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    # The constructor would set -0.0 to +0.0; the kernels must take both.
    return mf.JointBooleanDist._adopt(n, probs)


def same_bits(a, b):
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def marginal_reference(dist, coords):
    bits = [c - 1 for c in coords]
    idx = np.arange(1 << dist.arity, dtype=np.int64)
    packed = np.zeros_like(idx)
    for new_bit, old_bit in enumerate(bits):
        packed |= ((idx >> old_bit) & 1) << new_bit
    return np.bincount(packed, weights=dist.probs, minlength=1 << len(bits))


def independent_product_reference(ps):
    table = np.ones(1, dtype=np.float64)
    for p in ps:
        table = np.concatenate([table * (1.0 - p), table * p])
    return table


def compile_reference(ast, names):
    idx = np.arange(1 << len(names), dtype=np.int64)
    columns = {name: ((idx >> bit) & 1).astype(bool) for bit, name in enumerate(names)}

    def value(node):
        if isinstance(node, Var):
            return columns[node.name]
        if isinstance(node, Not):
            return np.logical_not(value(node.child))
        left, right = value(node.left), value(node.right)
        if isinstance(node, And):
            return np.logical_and(left, right)
        if isinstance(node, Or):
            return np.logical_or(left, right)
        return np.logical_or(np.logical_not(left), right)

    return value(ast).astype(np.int64)


def make_joint_reference(probs):
    arr = np.maximum(np.asarray(probs, dtype=np.float64), 0.0)
    total = math.fsum(arr.tolist())
    return arr / total if total != 1.0 else arr


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def coordinate_choices(rng, n, k):
    yield (rng.choice(n, size=k, replace=False) + 1).tolist()
    yield sorted((rng.choice(n, size=k, replace=False) + 1).tolist())
    yield list(range(1, k + 1))
    yield list(range(n, n - k, -1))


@pytest.mark.parametrize("n", ARITIES)
def test_marginal_matches_bincount(n):
    rng = np.random.default_rng(1000 + n)
    dist = random_table(rng, n)
    cases = [[n], list(range(1, n + 1)), (rng.permutation(n) + 1).tolist()]
    for k in ks(n):
        cases.extend(coordinate_choices(rng, n, k))
    for coords in cases:
        got = mf.marginal(dist, coords).probs
        assert same_bits(got, marginal_reference(dist, coords)), coords


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 16])
def test_marginal_sums_in_index_order_from_zero(n):
    """Onto the highest coordinate, the lowest, and a mixed selection, each
    entry is the sum from 0.0 in ascending index order that an unbuffered
    `np.add.at` makes; a half of the table that holds only -0.0 sums to
    +0.0."""
    rng = np.random.default_rng(3000 + n)
    dist = random_table(rng, n)
    zeroed = dist.probs.copy()
    zeroed[: 1 << (n - 1)] = -0.0
    mixed = sorted({1, n, (n + 1) // 2}, reverse=True)
    for table in (dist, mf.JointBooleanDist._adopt(n, zeroed)):
        for coords in ([n], [1], mixed):
            bits = [c - 1 for c in coords]
            idx = np.arange(1 << n)
            packed = sum(((idx >> b) & 1) << k for k, b in enumerate(bits))
            want = np.zeros(1 << len(bits))
            np.add.at(want, packed, table.probs)
            assert same_bits(mf.marginal(table, coords).probs, want), (n, coords)


@pytest.mark.parametrize("n", ARITIES)
def test_independent_product_matches_concatenate(n):
    rng = np.random.default_rng(2000 + n)
    for trial in range(4):
        ps = rng.random(n)
        ps[rng.random(n) < 0.2 * trial] = rng.choice([0.0, 1.0])
        ps = ps.tolist()
        got = mf.independent_product(ps).probs
        assert same_bits(got, independent_product_reference(ps)), ps


def random_tree(rng, names, depth):
    if depth == 0 or rng.random() < 0.2:
        return Var(str(rng.choice(names)))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return Not(random_tree(rng, names, depth - 1))
    node = (And, Or, Implies)[kind - 1]
    return node(random_tree(rng, names, depth - 1), random_tree(rng, names, depth - 1))


@pytest.mark.parametrize("n", ARITIES)
def test_compile_formula_matches_bit_columns(n):
    rng = np.random.default_rng(3000 + n)
    ordering = [f"v{i}" for i in rng.permutation(n).tolist()]
    for k in ks(n):
        used = [str(v) for v in rng.choice(ordering, size=k, replace=False)]
        for _ in range(3):
            ast = random_tree(rng, used, depth=4)
            got = mf.compile_formula(ast, ordering).table
            assert same_bits(got, compile_reference(ast, ordering))
    # One variable alone still fills the whole table.
    got = mf.compile_formula(Var(ordering[-1]), ordering).table
    assert same_bits(got, compile_reference(Var(ordering[-1]), ordering))


def spread_values(rng, size):
    """Nonnegative doubles with exponents spread over [-1074, 0]: zeros,
    subnormals and normal numbers."""
    values = np.ldexp(rng.random(size), rng.integers(-1074, 1, size))
    values[rng.random(size) < 0.1] = 0.0
    return values


@pytest.mark.parametrize(
    "values",
    [
        [0.0],
        [-0.0, 0.0],
        [5e-324],
        [5e-324] * 7,
        [2.0**-1022, 2.0**-1074, 1.0],
        [1.0, 2.0**-53],
        [1.0, 2.0**-53, 2.0**-1074],
        [1.0, 3 * 2.0**-53],
        [0.1] * 10,
        [1.0, -1.0, 1e-300],
        [0.5, -0.25, 2.0**-60, -(2.0**-61)],
        [1e308, -1e308, 1.0],
    ],
)
def test_exact_sum_fixed_cases(values):
    arr = np.array(values, dtype=np.float64)
    assert same_bits(np.float64(_exact_sum(arr)), np.float64(math.fsum(values)))


@pytest.mark.parametrize("seed", range(6))
def test_exact_sum_matches_fsum(seed):
    rng = np.random.default_rng(4000 + seed)
    for size in (1, 2, 3, 17, 1000):
        values = spread_values(rng, size)
        assert _exact_sum(values) == math.fsum(values.tolist())


def test_exact_sum_longer_than_a_block():
    rng = np.random.default_rng(4100)
    values = spread_values(rng, 2 * _SUM_BLOCK + 5)
    values[: _SUM_BLOCK // 2] = rng.random(_SUM_BLOCK // 2)
    assert _exact_sum(values) == math.fsum(values.tolist())
    ones = np.full(_SUM_BLOCK + 3, 1.0 - 2.0**-53)
    assert _exact_sum(ones) == math.fsum(ones.tolist())


def test_exact_sum_overflow_is_inf():
    assert _exact_sum(np.array([1e308, 1e308])) == math.inf
    with pytest.raises(NotNormalized):
        mf.make_joint(1, [1e308, 1e308])


@pytest.mark.parametrize("n", ARITIES)
def test_make_joint_matches_fsum_normalisation(n):
    rng = np.random.default_rng(5000 + n)
    probs = random_table(rng, n).probs.copy()
    for scale in (1.0, 1.0 + 3e-10, 1.0 - 7e-10):
        skewed = probs * scale
        skewed[0] -= 1e-12  # one tiny negative excursion when probs[0] is 0
        got = mf.make_joint(n, skewed).probs
        assert same_bits(got, make_joint_reference(skewed))


# ---------------------------------------------------------------------------
# Pushforward order, ownership and memory
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

#: Table entries with many exact (and signed) zeros.
entries = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 1.0))


@st.composite
def tables(draw, max_arity=6):
    n = draw(st.integers(0, max_arity))
    weights = draw(st.lists(entries, min_size=1 << n, max_size=1 << n))
    total = math.fsum(weights)
    probs = np.array(weights) / total if total > 0 else np.full(1 << n, 0.5**n)
    return mf.JointBooleanDist._adopt(n, probs)  # signed zeros kept


def sequential_sums(codes, probs, size):
    """Each output entry summed from 0.0 in ascending index order, in
    Python floats."""
    sums = [0.0] * size
    for code, p in zip(codes, probs.tolist()):
        sums[code] += p
    return np.array(sums)


@PROPERTY
@given(tables(), st.integers(1, 4), st.data())
def test_pushforward_sums_in_index_order(dist, m, data):
    codes = data.draw(
        st.lists(
            st.integers(0, (1 << m) - 1),
            min_size=1 << dist.arity,
            max_size=1 << dist.arity,
        )
    )
    got = mf.pushforward(dist, mf.BooleanFunction(dist.arity, m, codes)).probs
    assert same_bits(got, sequential_sums(codes, dist.probs, 1 << m))


@PROPERTY
@given(tables(), st.data())
def test_pushforward_finite_sums_in_index_order(dist, data):
    labels = data.draw(
        st.lists(
            st.sampled_from(["a", "b", "c", 0, None]),
            min_size=1 << dist.arity,
            max_size=1 << dist.arity,
        )
    )
    alphabet = tuple(dict.fromkeys(labels))
    codes = [alphabet.index(label) for label in labels]
    got = mf.pushforward_finite(dist, labels)
    assert got.alphabet == alphabet
    assert same_bits(got.probs, sequential_sums(codes, dist.probs, len(alphabet)))


def caller_buffer(kind, values, dtype):
    array = np.array(values, dtype=dtype)
    return {"list": values, "ndarray": array, "memoryview": memoryview(array)}[kind]


@pytest.mark.parametrize("kind", ["list", "ndarray", "memoryview"])
def test_joint_constructors_copy_the_callers_buffer(kind):
    probs = [0.125, 0.25, 0.25, 0.375]
    source = caller_buffer(kind, list(probs), np.float64)
    built = [mf.make_joint(2, source), mf.JointBooleanDist(2, source)]
    source[0], source[3] = 0.375, 0.125
    for dist in built:
        assert dist.probs.tolist() == probs


@pytest.mark.parametrize("kind", ["list", "ndarray", "memoryview"])
def test_function_constructor_copies_the_callers_buffer(kind):
    source = caller_buffer(kind, [0, 1, 1, 0], np.int64)
    f = mf.BooleanFunction(2, 1, source)
    source[0] = 1
    assert f.table.tolist() == [0, 1, 1, 0]


def _kernel_results():
    joint = mf.make_joint(2, [0.125, 0.25, 0.25, 0.375])
    f = mf.compile_formula(mf.parse_formula("A & !B"), ["A", "B"])
    return {
        "make_joint": joint.probs,
        "JointBooleanDist": mf.JointBooleanDist(1, [0.5, 0.5]).probs,
        "independent_product": mf.independent_product([0.2, 0.7]).probs,
        "marginal": mf.marginal(joint, [2]).probs,
        "pair_from_pq": mf.pair_from_pq(0.7, 0.6, 0.2).probs,
        "pushforward": mf.pushforward(joint, f).probs,
        "pushforward_finite": mf.pushforward_finite(joint, "abba").probs,
        "compile_formula": f.table,
        "compile_formula of a variable": mf.compile_formula(Var("B"), ["A", "B"]).table,
        "BooleanFunction": mf.BooleanFunction(1, 1, [1, 0]).table,
        "identity_function": mf.identity_function(2).table,
        "and_function": mf.and_function(3).table,
        "or_function": mf.or_function(3).table,
        "compose": mf.compose(mf.not_function(), f).table,
        "product": mf.product(f, mf.xor_function()).table,
        "from_minterms": mf.from_minterms(2, {(True, False)}).table,
    }


@pytest.mark.parametrize("kernel", sorted(_kernel_results()))
def test_kernel_results_are_read_only(kernel):
    result = _kernel_results()[kernel]
    assert not result.flags.writeable
    with pytest.raises(ValueError):
        result[0] = result[0]


#: Arity of the memory guards: a 2 MiB table dwarfs numpy's small buffers.
GUARD_ARITY = 18
TABLE_BYTES = 8 << GUARD_ARITY
GUARD_NAMES = [f"v{i}" for i in range(1, GUARD_ARITY + 1)]


def traced_peak(call):
    """Peak memory traced while call() runs (numpy reports its buffers to
    tracemalloc), above the memory traced before it, in tables."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return (peak - before) / TABLE_BYTES


def balanced_formula(names, depth=0):
    """A read-once tree over all names, cycling through the connectives."""
    if len(names) == 1:
        return Var(names[0]) if depth % 2 else Not(Var(names[0]))
    half = len(names) // 2
    node = (And, Or, Implies)[depth % 3]
    return node(
        balanced_formula(names[:half], depth + 1),
        balanced_formula(names[half:], depth + 2),
    )


def chain_formula(names):
    ast = Var(names[0])
    for name in names[1:]:
        ast = And(ast, Var(name))
    return ast


def test_pushforward_copies_no_table():
    ps = np.linspace(0.05, 0.95, GUARD_ARITY).tolist()
    joint = mf.independent_product(ps)
    f = mf.compile_formula(balanced_formula(GUARD_NAMES), GUARD_NAMES)
    f.table  # built on first read, which is not pushforward's allocation
    assert traced_peak(lambda: mf.pushforward(joint, f)) < 0.01


def test_independent_product_builds_one_table():
    ps = np.linspace(0.05, 0.95, GUARD_ARITY).tolist()
    assert traced_peak(lambda: mf.independent_product(ps)) < 1.1


@pytest.mark.parametrize(
    "ast",
    [balanced_formula(GUARD_NAMES), chain_formula(GUARD_NAMES), Var("v7")],
    ids=["balanced", "chain", "variable"],
)
def test_compile_formula_builds_one_table(ast):
    """The first read of `table` evaluates the normal form as one int
    bitset and unpacks it into the table a block at a time: the peak is
    the table and two copies of the bits (the int and its bytes), each
    1/64 of a table."""
    assert traced_peak(lambda: mf.compile_formula(ast, GUARD_NAMES).table) < 1.1


def test_make_joint_holds_little_beyond_its_table():
    """make_joint's one owned copy plus `_exact_sum`'s reused block buffers:
    at n = 16 the buffers are under one table."""
    n = 16
    probs = random_table(np.random.default_rng(16), n).probs
    peak = traced_peak(lambda: mf.make_joint(n, probs))
    assert peak * TABLE_BYTES / probs.nbytes <= 2.5


@pytest.mark.parametrize("form", ["array", "list"])
def test_a_float_table_is_copied_once(form):
    """A float64 array or a list of floats is read into one new table,
    which shares no memory with the caller's array."""
    probs = np.linspace(0.0, 1.0, 1 << GUARD_ARITY)
    values = probs if form == "array" else probs.tolist()
    read = []
    assert traced_peak(lambda: read.append(_float_array(values))) < 1.1
    assert not np.shares_memory(read[0], probs)
    assert np.array_equal(read[0], probs)
