"""Existential/universal bounds, truncation streams and the sampler."""

import itertools
import math

import numpy as np
import pytest

import markov_fuzzy as mf
from markov_fuzzy import And, Or, Var
from markov_fuzzy.bounds import FEASIBILITY_TOL
from markov_fuzzy.errors import (
    BadCoordinate,
    EmptyUniverse,
    InfeasibleQ,
    MarginalMismatch,
    SchemaError,
    UnboundVariable,
    UnsupportedLiftPolicy,
)


def table_from_joint(joint, labels, with_pairs):
    """Expose a joint's marginals (and optionally pairwise q) as a table."""
    p = {
        label: float(mf.marginal(joint, [i + 1]).probs[1])
        for i, label in enumerate(labels)
    }
    q_pair = {}
    if with_pairs:
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                pair_marginal = mf.marginal(joint, [i + 1, j + 1])
                q_pair[(labels[i], labels[j])] = float(pair_marginal.probs[0])
    return mf.BeliefTable(universe=tuple(labels), p=p, q_pair=q_pair)


class TestBeliefTable:
    def test_validation(self):
        with pytest.raises(SchemaError):
            mf.BeliefTable(universe=("a", "a"), p={"a": 0.5})
        with pytest.raises(SchemaError):
            mf.BeliefTable(universe=("a", "b"), p={"a": 0.5})
        with pytest.raises(InfeasibleQ):
            mf.BeliefTable(
                universe=("a", "b"),
                p={"a": 0.5, "b": 0.5},
                q_pair={("a", "b"): 0.9},
            )

    def test_symmetric_lookup(self):
        table = mf.BeliefTable(
            universe=("a", "b"),
            p={"a": 0.3, "b": 0.4},
            q_pair={("b", "a"): 0.42},
        )
        assert table.q("a", "b") == pytest.approx(0.42)
        assert table.q("b", "a") == pytest.approx(0.42)

    @pytest.mark.parametrize("gap, conflicts", [(0.5, False), (2.0, True)])
    def test_conflicting_q_tolerance_is_eps_feas(self, gap, conflicts):
        """Both orders of a pair may repeat a q value up to EPS_FEAS apart,
        the same tolerance PartialJointSpec applies to its pairwise keys."""
        q_pair = {("a", "b"): 0.42, ("b", "a"): 0.42 + gap * mf.EPS_FEAS}
        pairwise = {(1, 2): 0.42, (2, 1): 0.42 + gap * mf.EPS_FEAS}
        builders = (
            lambda: mf.BeliefTable(
                universe=("a", "b"), p={"a": 0.3, "b": 0.4}, q_pair=q_pair
            ),
            lambda: mf.PartialJointSpec((0.3, 0.4), pairwise=pairwise),
        )
        for build in builders:
            if conflicts:
                with pytest.raises(InfeasibleQ, match="conflicting"):
                    build()
            else:
                build()


class TestExistsExact:
    def test_independent_pair(self):
        assert mf.exists_exact(mf.independent_product([0.3, 0.4])) == pytest.approx(
            0.58, abs=1e-12
        )

    def test_three_halves(self):
        assert mf.exists_exact(mf.independent_product([0.5] * 3)) == pytest.approx(
            0.875, abs=1e-15
        )

    def test_no_all_false_mass(self):
        dist = mf.make_joint(2, [0.0, 0.3, 0.3, 0.4])
        assert mf.exists_exact(dist) == 1.0

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            dist = mf.make_joint(3, rng.dirichlet(np.ones(8)))
            small = mf.exists_exact(mf.marginal(dist, [1]))
            mid = mf.exists_exact(mf.marginal(dist, [1, 2]))
            full = mf.exists_exact(dist)
            assert small <= mid + 1e-12
            assert mid <= full + 1e-12


class TestExistsBounds:
    def test_marginals_only(self):
        table = mf.BeliefTable(universe=("a", "b"), p={"a": 0.3, "b": 0.4})
        ci = mf.exists_bounds(table)
        assert (ci.lo, ci.hi) == (pytest.approx(0.4), pytest.approx(0.7))

    def test_independent_pair_degenerate(self):
        table = mf.BeliefTable(
            universe=("a", "b"),
            p={"a": 0.3, "b": 0.4},
            q_pair={("a", "b"): 0.42},
        )
        ci = mf.exists_bounds(table)
        assert ci.lo == pytest.approx(0.58, abs=1e-12)
        assert ci.hi == pytest.approx(0.58, abs=1e-12)

    def test_certainty_dominates(self):
        table = mf.BeliefTable(universe=("a", "b"), p={"a": 1.0, "b": 0.2})
        ci = mf.exists_bounds(table)
        assert (ci.lo, ci.hi) == (1.0, 1.0)

    def test_empty_universe(self):
        table = mf.BeliefTable(universe=(), p={})
        with pytest.raises(EmptyUniverse):
            mf.exists_bounds(table)

    def test_partition_bound_with_odd_leftover(self):
        table = mf.BeliefTable(
            universe=("a", "b", "c"),
            p={"a": 0.3, "b": 0.4, "c": 0.2},
            q_pair={("a", "b"): 0.42},
        )
        ci = mf.exists_bounds(table)
        # Pairing (a, b) and the leftover singleton c beats plain summation.
        assert ci.hi == pytest.approx(0.58 + 0.2, abs=1e-12)
        assert ci.lo == pytest.approx(0.58, abs=1e-12)

    def test_sandwich_on_random_joints(self):
        rng = np.random.default_rng(37)
        labels = ("x1", "x2", "x3")
        for k in range(40):
            n = int(rng.integers(1, 4))
            joint = mf.make_joint(n, rng.dirichlet(np.ones(1 << n)))
            table = table_from_joint(joint, labels[:n], with_pairs=k % 2 == 0)
            ci = mf.exists_bounds(table)
            value = mf.exists_exact(joint)
            assert ci.lo - 1e-12 <= value <= ci.hi + 1e-12

    def test_outer_bound_of_exact_bounds(self):
        """The interval contains the LP bounds of the n-ary "or"; without
        q_pair it is exact (the Frechet pair), with q_pair only outer."""
        rng = np.random.default_rng(53)
        for k in range(45):
            n = int(rng.integers(2, 7))
            labels = tuple(f"x{i}" for i in range(n))
            joint = mf.make_joint(n, rng.dirichlet(np.ones(1 << n)))
            full = table_from_joint(joint, labels, with_pairs=k % 3 != 0)
            kept = {
                pair: q
                for pair, q in full.q_pair.items()
                if k % 3 == 1 or rng.random() < 0.5
            }
            table = mf.BeliefTable(labels, full.p, kept)
            spec = mf.PartialJointSpec(
                tuple(table.p[x] for x in labels),
                pairwise={
                    (labels.index(a) + 1, labels.index(b) + 1): q
                    for (a, b), q in kept.items()
                },
            )
            exact = mf.exact_bounds(spec, mf.or_function(n))
            ci = mf.exists_bounds(table)
            assert ci.lo - FEASIBILITY_TOL <= exact.lo
            assert exact.hi <= ci.hi + FEASIBILITY_TOL
            if not kept:
                assert ci.lo == pytest.approx(exact.lo, abs=FEASIBILITY_TOL)
                assert ci.hi == pytest.approx(exact.hi, abs=FEASIBILITY_TOL)

    def test_pairwise_lower_bound_is_loose(self):
        """Three points at p = 0.4 with pairwise q = 0.3: the LP (and
        Bonferroni S1 - S2) gives 0.9, exists_bounds only 0.7."""
        labels = ("a", "b", "c")
        pairs = list(itertools.combinations(labels, 2))
        table = mf.BeliefTable(
            labels, {x: 0.4 for x in labels}, {pair: 0.3 for pair in pairs}
        )
        spec = mf.PartialJointSpec(
            (0.4, 0.4, 0.4), pairwise={(1, 2): 0.3, (1, 3): 0.3, (2, 3): 0.3}
        )
        ci = mf.exists_bounds(table)
        exact = mf.exact_bounds(spec, mf.or_function(3))
        assert ci.lo == pytest.approx(0.7, abs=1e-12)
        assert exact.lo == pytest.approx(0.9, abs=FEASIBILITY_TOL)
        assert ci.hi == exact.hi == pytest.approx(1.0, abs=FEASIBILITY_TOL)


class TestForallBounds:
    def test_marginals_only(self):
        table = mf.BeliefTable(universe=("a", "b"), p={"a": 0.3, "b": 0.4})
        ci = mf.forall_bounds(table)
        assert ci.lo == pytest.approx(0.0, abs=1e-12)
        assert ci.hi == pytest.approx(0.3, abs=1e-12)

    def test_all_certain(self):
        table = mf.BeliefTable(universe=("a", "b"), p={"a": 1.0, "b": 1.0})
        assert mf.forall_bounds(table) == mf.ConfidenceInterval(1.0, 1.0)

    def test_singleton(self):
        table = mf.BeliefTable(universe=("a",), p={"a": 0.6})
        ci = mf.forall_bounds(table)
        assert ci.lo == pytest.approx(0.6, abs=1e-12)
        assert ci.hi == pytest.approx(0.6, abs=1e-12)

    def test_sandwich_via_de_morgan(self):
        rng = np.random.default_rng(43)
        labels = ("x1", "x2", "x3")
        for k in range(20):
            n = int(rng.integers(1, 4))
            joint = mf.make_joint(n, rng.dirichlet(np.ones(1 << n)))
            table = table_from_joint(joint, labels[:n], with_pairs=True)
            ci = mf.forall_bounds(table)
            value = float(joint.probs[-1])  # all predicates true
            assert ci.lo - 1e-12 <= value <= ci.hi + 1e-12


class TestExistsTruncated:
    def test_halving_beliefs(self):
        ps = [2.0 ** -(i + 1) for i in range(3)]
        joints = [mf.independent_product(ps[: m + 1]) for m in range(3)]
        values = list(mf.exists_truncated(joints))
        assert values == [
            pytest.approx(0.5, abs=1e-12),
            pytest.approx(0.625, abs=1e-12),
            pytest.approx(0.671875, abs=1e-12),
        ]

    def test_all_zero(self):
        joints = [mf.independent_product([0.0] * (m + 1)) for m in range(4)]
        assert list(mf.exists_truncated(joints)) == [0.0] * 4

    def test_certain_first_level(self):
        joints = [mf.independent_product([1.0] + [0.3] * m) for m in range(3)]
        assert list(mf.exists_truncated(joints)) == [1.0] * 3

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(47)
        ps = rng.random(6).tolist()
        joints = [mf.independent_product(ps[: m + 1]) for m in range(6)]
        values = list(mf.exists_truncated(joints))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_marginal_mismatch_detected(self):
        joints = [
            mf.independent_product([0.5]),
            mf.independent_product([0.9, 0.5]),
        ]
        with pytest.raises(MarginalMismatch):
            list(mf.exists_truncated(joints))

    def test_non_growing_arity_rejected(self):
        joints = [mf.independent_product([0.5, 0.5]), mf.independent_product([0.5])]
        with pytest.raises(MarginalMismatch):
            list(mf.exists_truncated(joints))


class TestSampleExists:
    UNIVERSE = ("a", "b", "c")
    P = {"a": 0.2, "b": 0.5, "c": 0.8}

    def table(self):
        return mf.BeliefTable(universe=self.UNIVERSE, p=self.P)

    def exact_expectation(self, length):
        total = 0.0
        for combo in itertools.product(self.UNIVERSE, repeat=length):
            miss = 1.0
            for x in combo:
                miss *= 1.0 - self.P[x]
            total += (1.0 - miss) / (len(self.UNIVERSE) ** length)
        return total

    def test_zero_beliefs_give_zero(self):
        table = mf.BeliefTable(universe=("a", "b"), p={"a": 0.0, "b": 0.0})
        strategy = mf.SamplingStrategy(tuple_length=2, seed=1)
        assert mf.sample_exists(table, strategy, 500).mean == 0.0

    def test_length_one_expectation(self):
        table = mf.BeliefTable(universe=("a", "b"), p={"a": 0.2, "b": 0.4})
        strategy = mf.SamplingStrategy(tuple_length=1, seed=5)
        estimate = mf.sample_exists(table, strategy, 20000)
        assert abs(estimate.mean - 0.3) <= estimate.hoeffding_radius(0.01)

    def test_matches_enumerated_expectation(self):
        strategy = mf.SamplingStrategy(tuple_length=3, seed=42)
        estimate = mf.sample_exists(self.table(), strategy, 10000)
        assert abs(estimate.mean - self.exact_expectation(3)) <= 0.02

    def test_deterministic_given_seed(self):
        strategy = mf.SamplingStrategy(tuple_length=3, seed=7)
        first = mf.sample_exists(self.table(), strategy, 2000)
        second = mf.sample_exists(self.table(), strategy, 2000)
        assert first.mean == second.mean

    def test_estimate_below_best_tuple(self):
        strategy = mf.SamplingStrategy(tuple_length=2, seed=11)
        estimate = mf.sample_exists(self.table(), strategy, 5000)
        best = max(
            1.0 - (1.0 - self.P[x]) * (1.0 - self.P[y])
            for x in self.UNIVERSE
            for y in self.UNIVERSE
        )
        assert estimate.mean <= best + estimate.hoeffding_radius(0.01)

    def test_weighted_strategy(self):
        table = mf.BeliefTable(universe=("a", "b"), p={"a": 0.2, "b": 0.4})
        strategy = mf.SamplingStrategy(
            tuple_length=1, seed=3, weights={"a": 1.0, "b": 0.0}
        )
        estimate = mf.sample_exists(table, strategy, 200)
        assert estimate.mean == pytest.approx(0.2, abs=1e-12)

    def test_explicit_tuple_stream(self):
        table = self.table()
        strategy = mf.SamplingStrategy(
            tuple_length=2, tuples=[("a", "b"), ("c", "c")]
        )
        estimate = mf.sample_exists(table, strategy, 2)
        expected = ((1 - 0.8 * 0.5) + (1 - 0.2 * 0.2)) / 2.0
        assert estimate.mean == pytest.approx(expected, abs=1e-12)

    def test_tuple_stream_label_outside_universe(self):
        strategy = mf.SamplingStrategy(tuple_length=2, tuples=[("a", "b"), ("a", "z")])
        with pytest.raises(BadCoordinate, match="'z'"):
            mf.sample_exists(self.table(), strategy, 2)

    def test_pairwise_lift(self):
        table = mf.BeliefTable(
            universe=("a", "b"),
            p={"a": 0.3, "b": 0.4},
            q_pair={("a", "b"): 0.42},
        )
        strategy = mf.SamplingStrategy(
            tuple_length=2, tuples=[("a", "b"), ("a", "a"), ("b", "a")]
        )
        estimate = mf.sample_exists(table, strategy, 3, lift="pairwise")
        assert estimate.mean == pytest.approx((0.58 + 0.3 + 0.58) / 3.0, abs=1e-12)

    def test_pairwise_lift_needs_length_two(self):
        strategy = mf.SamplingStrategy(tuple_length=3, seed=0)
        with pytest.raises(UnsupportedLiftPolicy):
            mf.sample_exists(self.table(), strategy, 10, lift="pairwise")

    def test_callable_lift(self):
        table = mf.BeliefTable(universe=("a", "b"), p={"a": 0.3, "b": 0.4})

        def lift(points):
            return mf.independent_product([table.p[x] for x in points])

        strategy = mf.SamplingStrategy(tuple_length=2, seed=13)
        via_callable = mf.sample_exists(table, strategy, 300, lift=lift)
        via_default = mf.sample_exists(table, strategy, 300)
        assert via_callable.mean == pytest.approx(via_default.mean, abs=1e-12)

    def test_unknown_policy(self):
        strategy = mf.SamplingStrategy(tuple_length=2, seed=0)
        with pytest.raises(UnsupportedLiftPolicy):
            mf.sample_exists(self.table(), strategy, 10, lift="chained")

    def test_empty_universe(self):
        table = mf.BeliefTable(universe=(), p={})
        strategy = mf.SamplingStrategy(tuple_length=1, seed=0)
        with pytest.raises(EmptyUniverse):
            mf.sample_exists(table, strategy, 10)

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            mf.SamplingStrategy(tuple_length=0)
        with pytest.raises(ValueError):
            mf.SamplingStrategy(tuple_length=1, weights={"a": 0.4})
        with pytest.raises(ValueError):
            mf.SamplingStrategy(tuple_length=1, weights={"a": -0.2, "b": 1.2})

    def test_hoeffding_radius(self):
        estimate = mf.SampleEstimate(mean=0.5, n_samples=200, seed=0)
        assert estimate.hoeffding_radius(0.05) == pytest.approx(
            math.sqrt(math.log(40.0) / 400.0)
        )
        with pytest.raises(ValueError):
            estimate.hoeffding_radius(1.5)


class TestExpandQuantifiers:
    def test_exists_expansion(self):
        ast = mf.Exists("x", "U", Var("P(x)"))
        expanded = mf.expand_quantifiers(ast, {"U": ["a", "b"]})
        assert expanded == Or(Var("P(a)"), Var("P(b)"))

    def test_forall_expansion(self):
        ast = mf.Forall("x", "U", Var("P(x)"))
        expanded = mf.expand_quantifiers(ast, {"U": ["a", "b", "c"]})
        assert expanded == And(And(Var("P(a)"), Var("P(b)")), Var("P(c)"))

    def test_expansion_matches_exists_exact(self):
        table = {"a": 0.3, "b": 0.4, "c": 0.1}
        ast = mf.Exists("x", "U", Var("P(x)"))
        expanded = mf.expand_quantifiers(ast, {"U": list(table)})
        names = mf.formula_variables(expanded)
        f = mf.compile_formula(expanded, names)
        joint = mf.independent_product([table[n[2:-1]] for n in names])
        pushed = float(mf.pushforward(joint, f).probs[1])
        assert pushed == pytest.approx(
            mf.exists_exact(joint), abs=1e-12
        )

    def test_unknown_universe(self):
        ast = mf.Exists("x", "U", Var("P(x)"))
        with pytest.raises(UnboundVariable):
            mf.expand_quantifiers(ast, {})

    def test_empty_universe(self):
        ast = mf.Exists("x", "U", Var("P(x)"))
        with pytest.raises(EmptyUniverse):
            mf.expand_quantifiers(ast, {"U": []})

    def test_large_universe_is_not_bounded_by_recursion(self):
        """Each expansion is a chain as deep as its universe."""
        members = [f"m{i}" for i in range(3000)]
        ast = mf.parse_formula("exists x in U : forall y in V : P(x) | Q(y)")
        expanded = mf.expand_quantifiers(ast, {"U": ["a", "b"], "V": members})
        names = mf.formula_variables(expanded)
        assert names[:3] == ["P(a)", "Q(m0)", "Q(m1)"]
        assert len(names) == 3002
