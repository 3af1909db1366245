"""The dense B^n kernels against their earlier per-bit index versions.

Each reference below is the implementation the kernel replaced: a
`bincount` over packed indices for `marginal`, a `concatenate` loop for
`independent_product`, per-bit `(idx >> b) & 1` columns for
`compile_formula` and `math.fsum` over a list for `make_joint`.  The
kernels must agree with them bit for bit, so `np.array_equal` (and, for
signed zeros, the bytes) is the test, not a tolerance.
"""

import math

import numpy as np
import pytest

import markov_fuzzy as mf
from markov_fuzzy import And, Implies, Not, Or, Var
from markov_fuzzy.errors import NotNormalized
from markov_fuzzy.joints import _SUM_BLOCK, _exact_sum

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
    return mf.JointBooleanDist(n, probs)


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
