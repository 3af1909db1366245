"""Existential/universal bounds, truncation streams and the sampler."""

import itertools
import json
import math

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import markov_fuzzy as mf
from markov_fuzzy import And, Or, Var
from markov_fuzzy import bounds, quantifiers
from markov_fuzzy.boolfuncs import _ANY, _LEAF
from markov_fuzzy.bounds import FEASIBILITY_TOL
from markov_fuzzy import cli
from markov_fuzzy._common import clip01
from markov_fuzzy.errors import (
    BadCoordinate,
    EmptyUniverse,
    InfeasibleQ,
    InfeasibleSpec,
    InvalidParameter,
    MarginalMismatch,
    MarkovFuzzyError,
    NegativeMass,
    NotNormalized,
    SchemaError,
    UnboundVariable,
    UnsupportedLiftPolicy,
)
from markov_fuzzy.quantifiers import _SAMPLE_BLOCK, _IndexedSearch


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

    def test_pairwise_lower_bound_is_exact(self):
        """Three points at p = 0.4 with pairwise q = 0.3: exists_bounds
        gives the LP's 0.9 (Bonferroni S1 - S2), not the best pair's 0.7."""
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
        assert ci.lo == pytest.approx(0.9, abs=FEASIBILITY_TOL)
        assert exact.lo == pytest.approx(0.9, abs=FEASIBILITY_TOL)
        assert ci.hi == exact.hi == pytest.approx(1.0, abs=FEASIBILITY_TOL)


def random_partial_table(seed, n, kept_pairs):
    """A consistent table from a random joint over n points, with the pairs
    whose bit is set in `kept_pairs`; also its spec for `exact_bounds`."""
    rng = np.random.default_rng(seed)
    labels = tuple(f"x{i}" for i in range(n))
    joint = mf.make_joint(n, rng.dirichlet(np.full(1 << n, 0.5)))
    full = table_from_joint(joint, labels, with_pairs=True)
    kept = {
        pair: q
        for k, (pair, q) in enumerate(sorted(full.q_pair.items()))
        if kept_pairs >> k & 1
    }
    table = mf.BeliefTable(labels, full.p, kept)
    spec = mf.PartialJointSpec(
        tuple(table.p[x] for x in labels),
        pairwise={
            (labels.index(a) + 1, labels.index(b) + 1): q for (a, b), q in kept.items()
        },
    )
    return table, spec


def greedy_pair_partition(table):
    """The upper bound exists_bounds used before it was exact: a greedy
    partition of the universe into pairs with known q (by P(both true),
    largest first) plus leftover singletons."""
    candidates = sorted(
        (-(table.p[a] + table.p[b] - (1.0 - q)), a, b, q)
        for (a, b), q in table.q_pair.items()
    )
    matched, total = set(), 0.0
    for _, a, b, q in candidates:
        if a not in matched and b not in matched:
            matched |= {a, b}
            total += 1.0 - q
    return total + sum(table.p[x] for x in table.universe if x not in matched)


class TestExistsBoundsExact:
    """exists_bounds is the "or" of the bounds engine: exact per component
    of the q_pair graph up to LP_MAX_ARITY points, an outer bound above."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        kept_pairs=st.integers(0, 2**21 - 1),
    )
    def test_equals_exact_bounds_of_or_and_and(self, seed, n, kept_pairs):
        """Within the tolerance TestSolverEquivalence holds the LP to."""
        table, spec = random_partial_table(seed, n, kept_pairs)
        for ci, exact in (
            (mf.exists_bounds(table), mf.exact_bounds(spec, mf.or_function(n))),
            (mf.forall_bounds(table), mf.exact_bounds(spec, mf.and_function(n))),
        ):
            assert ci.lo == pytest.approx(exact.lo, abs=1e-9)
            assert ci.hi == pytest.approx(exact.hi, abs=1e-9)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        kept=st.lists(st.integers(0, 44), max_size=14),
    )
    def test_equals_the_formula_walk_bit_for_bit(self, seed, n, kept):
        """The quantifiers bound each component of the q_pair graph on their
        own; the walk of the compiled P1 | ... | Pn and P1 & ... & Pn groups
        the same points into the same parts.  Any set of pairs: none, trees,
        cycles, one component or several."""
        table, spec = random_partial_table(seed, n, sum(1 << k for k in set(kept)))
        names = [f"P{i}" for i in range(1, n + 1)]
        for quantify, op in ((mf.exists_bounds, " | "), (mf.forall_bounds, " & ")):
            f = mf.compile_formula(mf.parse_formula(op.join(names)), names)
            assert quantify(table) == mf.exact_bounds(spec, f)

    def test_marginals_only_is_the_frechet_pair_bit_for_bit(self):
        rng = np.random.default_rng(71)
        for n in range(1, 30):
            p = rng.random(n) ** 3
            labels = tuple(range(n))
            ci = mf.exists_bounds(mf.BeliefTable(labels, dict(zip(labels, p))))
            assert (ci.lo, ci.hi) == (max(p), min(1.0, math.fsum(p)))

    def test_above_the_cap_contains_the_lp_and_beats_the_greedy_partition(
        self, monkeypatch
    ):
        """With the cap lowered to 2, every component of 3 or more points
        takes the outer bound: [best point or pair, Hunter's bound]."""
        cases = []
        for seed in range(120):
            n = seed % 6 + 3
            table, spec = random_partial_table(seed, n, seed * 2654435761 % 2**21)
            cases.append((table, mf.exact_bounds(spec, mf.or_function(n))))
        monkeypatch.setattr(bounds, "LP_MAX_ARITY", 2)
        looser = 0
        for table, exact in cases:
            ci = mf.exists_bounds(table)
            assert ci.lo - FEASIBILITY_TOL <= exact.lo
            assert exact.hi <= ci.hi + FEASIBILITY_TOL
            assert ci.hi <= min(1.0, greedy_pair_partition(table)) + 1e-12
            looser += ci.width > exact.width + 1e-9
        assert looser > 0  # the outer path did run

    def test_above_the_cap_a_cycle_takes_the_heaviest_forest(self, monkeypatch):
        """Hunter's bound over a spanning forest of a triangle whose pairs
        have P(both true) 0.05, 0.1 and 0.15: the heaviest forest gives
        0.9 - 0.25 = 0.65, the exact upper end, where the lightest one
        gives 0.9 - 0.15 = 0.75."""
        labels = ("a", "b", "c")
        q_pair = {("a", "b"): 0.45, ("b", "c"): 0.5, ("a", "c"): 0.55}
        table = mf.BeliefTable(labels, {x: 0.3 for x in labels}, q_pair)
        exact = mf.exists_bounds(table)
        monkeypatch.setattr(bounds, "LP_MAX_ARITY", 2)
        ci = mf.exists_bounds(table)
        assert ci.hi == pytest.approx(0.65, abs=1e-12)
        assert ci.hi == pytest.approx(exact.hi, abs=1e-12)
        assert ci.lo == pytest.approx(0.55, abs=1e-12)  # the exact end is 0.6
        assert exact.lo == pytest.approx(0.6, abs=1e-9)

    def test_above_the_cap_a_pair_sets_the_lower_end(self, monkeypatch):
        """Three points at p = 0.5 whose pairs each give P(either) = 1 - 0.2:
        the lower end is 0.8, above every marginal."""
        monkeypatch.setattr(bounds, "LP_MAX_ARITY", 2)
        labels = ("a", "b", "c")
        q_pair = dict.fromkeys(itertools.combinations(labels, 2), 0.2)
        table = mf.BeliefTable(labels, {x: 0.5 for x in labels}, q_pair)
        assert mf.exists_bounds(table) == mf.ConfidenceInterval(0.8, 1.0)

    def test_inconsistent_cycle_raises(self, tmp_path, capsys):
        """Each pair fits its beliefs, but a = b, b = c and a = not c admit
        no joint table: InfeasibleSpec, and exit 2 from the CLI as from
        `bounds` on the same spec."""
        labels = ("a", "b", "c")
        q_pair = {("a", "b"): 0.5, ("b", "c"): 0.5, ("a", "c"): 0.0}
        table = mf.BeliefTable(labels, {x: 0.5 for x in labels}, q_pair)
        for quantify in (mf.exists_bounds, mf.forall_bounds):
            with pytest.raises(InfeasibleSpec):
                quantify(table)
        path = tmp_path / "table.json"
        path.write_text(
            '{"universe": ["a", "b", "c"], "p": {"a": 0.5, "b": 0.5, "c": 0.5}, '
            '"q_pair": {"a,b": 0.5, "b,c": 0.5, "a,c": 0.0}}',
            encoding="utf-8",
        )
        assert cli.main(["quantify", "bounds", "--input", str(path)]) == 2
        assert "InfeasibleSpec" in capsys.readouterr().err

    @staticmethod
    def odd_ring(tmp_path, size):
        """A ring of `size` points at p = 0.5 with q = 0 on each edge, which
        forces neighbours to differ: an odd ring admits no joint table.  The
        table, and its model file."""
        labels = [f"x{i}" for i in range(size)]
        edges = {(labels[i], labels[(i + 1) % size]): 0.0 for i in range(size)}
        path = tmp_path / "ring.json"
        path.write_text(
            json.dumps(
                {
                    "universe": labels,
                    "p": dict.fromkeys(labels, 0.5),
                    "q_pair": {f"{a},{b}": q for (a, b), q in edges.items()},
                }
            ),
            encoding="utf-8",
        )
        return mf.BeliefTable(labels, dict.fromkeys(labels, 0.5), edges), str(path)

    def test_infeasible_odd_ring_at_the_cap_raises(self, tmp_path, capsys):
        """11 points, under `LP_MAX_ARITY` = 12: the ring's LP finds no
        joint, so InfeasibleSpec, and exit 2 from the CLI."""
        table, path = self.odd_ring(tmp_path, 11)
        for quantify in (mf.exists_bounds, mf.forall_bounds):
            with pytest.raises(InfeasibleSpec):
                quantify(table)
        assert cli.main(["quantify", "bounds", "--input", path]) == 2
        assert "InfeasibleSpec" in capsys.readouterr().err

    def test_infeasible_odd_ring_above_the_cap_takes_its_outer_bound(
        self, tmp_path, capsys
    ):
        """13 points, over `LP_MAX_ARITY` = 12: the outer bound checks no
        joint, so the infeasible ring gives an interval, as the docstrings
        state: every pair has P(either) = 1, so "some" is [1, 1] and "all"
        [0, 0] (ROADMAP item 7 makes this raise)."""
        table, path = self.odd_ring(tmp_path, 13)
        assert mf.exists_bounds(table) == mf.ConfidenceInterval(1.0, 1.0)
        assert mf.forall_bounds(table) == mf.ConfidenceInterval(0.0, 0.0)
        assert cli.main(["quantify", "bounds", "--input", path]) == 0
        assert capsys.readouterr().out == '{"lo": 1.0, "hi": 1.0}\n'

    def test_two_point_component_is_or_q_bit_for_bit(self):
        """A joined pair takes 1 - q of the table's clamped q, which is
        `or_q` on the raw input, q just outside its range included."""
        rng = np.random.default_rng(29)
        p = rng.random(4000) ** rng.choice([1.0, 4.0, 0.25], 4000)
        p[rng.random(4000) < 0.05] = 0.0
        p[rng.random(4000) < 0.05] = 1.0
        labels = tuple(range(4000))
        q_pair = {}
        for a in range(0, 4000, 2):
            b = mf.q_bounds(p[a], p[a + 1])
            q = b.q_min + rng.random() * (b.q_max - b.q_min)
            q_pair[a, a + 1] = rng.choice([q, b.q_min - 9e-13, b.q_max + 9e-13])
        table = mf.BeliefTable(labels, dict(zip(labels, p)), q_pair)
        either = [_ANY, 0b11, [[_LEAF, 0b01, 0], [_LEAF, 0b10, 1]]]
        for (a, b), q in q_pair.items():
            value = mf.or_q(p[a], p[b], q)
            pair = [((1, 2), table.q(a, b))]
            ps = (table.p[a], table.p[b])
            assert bounds._part_bounds(ps, pair, either, [0, 1], None) == (value, value)
            single = mf.BeliefTable((a, b), {a: p[a], b: p[b]}, {(a, b): q})
            ci = mf.exists_bounds(single)
            assert (ci.lo, ci.hi) == (value, value)

    def test_one_lp_per_component_of_three_or_more(self, monkeypatch):
        """No LP for a point no pair touches, for two joined points or for
        a component whose pairs form a tree."""
        arities = []
        solve = bounds._lp_bounds

        def counted(marginals, pairs, cost, cancel):
            arities.append(len(marginals))
            return solve(marginals, pairs, cost, cancel)

        monkeypatch.setattr(bounds, "_lp_bounds", counted)
        labels = tuple("abcdefghijk")
        q_pair = {
            ("a", "b"): 0.4,  # a pair
            ("c", "d"): 0.4,  # a chain of three
            ("d", "e"): 0.4,
            ("f", "g"): 0.4,  # a triangle and a tail: four points
            ("g", "h"): 0.4,
            ("f", "h"): 0.4,
            ("h", "i"): 0.4,
        }  # j and k are touched by no pair
        table = mf.BeliefTable(labels, {x: 0.5 for x in labels}, q_pair)
        mf.exists_bounds(table)
        assert sorted(arities) == [4]


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

    def test_drop_beyond_tolerance_detected(self):
        """The second level marginalizes onto the first within
        TRUNCATION_TOL, yet its existential confidence is 5e-10 lower."""
        joints = [
            mf.make_joint(1, [0.5, 0.5]),
            mf.make_joint(2, [0.5 + 5e-10, 0.5 - 5e-10, 0.0, 0.0]),
        ]
        with pytest.raises(MarginalMismatch, match="existential confidence dropped"):
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


PAIR = mf.BeliefTable(universe=("a", "b"), p={"a": 0.2, "b": 0.4})

#: Every argument check of this module: the call and the error it raises.
RAISE_SITES = {
    "exists_exact of arity 0": (
        EmptyUniverse,
        lambda: mf.exists_exact(mf.JointBooleanDist(0, [1.0])),
    ),
    "tuple_length below 1": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(tuple_length=0),
    ),
    "weights and a tuple stream": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(
            tuple_length=1, weights={"a": 1.0}, tuples=[("a",)]
        ),
    ),
    "negative weight": (
        NegativeMass,
        lambda: mf.SamplingStrategy(tuple_length=1, weights={"a": -0.2, "b": 1.2}),
    ),
    "weights not summing to 1": (
        NotNormalized,
        lambda: mf.SamplingStrategy(tuple_length=1, weights={"a": 0.4}),
    ),
    "delta outside (0, 1)": (
        InvalidParameter,
        lambda: mf.SampleEstimate(mean=0.5, n_samples=10, seed=0).hoeffding_radius(1.5),
    ),
    "weights naming a label outside the universe": (
        BadCoordinate,
        lambda: mf.sample_exists(
            PAIR, mf.SamplingStrategy(tuple_length=1, weights={"z": 1.0}), 5
        ),
    ),
    "n_samples below 1": (
        InvalidParameter,
        lambda: mf.sample_exists(PAIR, mf.SamplingStrategy(tuple_length=1), 0),
    ),
    "tuple stream too short": (
        InvalidParameter,
        lambda: mf.sample_exists(
            PAIR, mf.SamplingStrategy(tuple_length=1, tuples=[("a",)]), 2
        ),
    ),
    "tuple of the wrong length": (
        InvalidParameter,
        lambda: mf.sample_exists(
            PAIR, mf.SamplingStrategy(tuple_length=2, tuples=[("a",)]), 1
        ),
    ),
    "seed below 0": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(tuple_length=1, seed=-1),
    ),
    "seed of 2**128 or more": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(tuple_length=1, seed=1 << 128),
    ),
    "seed that is not an integer": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(tuple_length=1, seed=1.5),
    ),
    "n_samples too large to allocate": (
        InvalidParameter,
        lambda: mf.sample_exists(PAIR, mf.SamplingStrategy(tuple_length=1), 10**15),
    ),
}


class TestErrorTypes:
    @pytest.mark.parametrize("site", sorted(RAISE_SITES))
    def test_raise_site(self, site):
        """Each check raises a MarkovFuzzyError that is still a ValueError."""
        error, call = RAISE_SITES[site]
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, MarkovFuzzyError)
        assert isinstance(info.value, ValueError)

    def test_cli_maps_them_to_input_errors(self):
        """None of them is a semantic error, so the CLI exits 2 on each."""
        for error, _ in RAISE_SITES.values():
            assert not issubclass(error, cli._SEMANTIC_ERRORS)


# ---------------------------------------------------------------------------
# The block sampler against the whole-array one it replaced
# ---------------------------------------------------------------------------


def sampler_table(k):
    labels = tuple(f"x{i}" for i in range(k))
    return mf.BeliefTable(labels, {x: (i * 7 % 11) / 11 for i, x in enumerate(labels)})


def full_pair_table(k):
    """Every pair at its independent q = (1 - p_a)(1 - p_b)."""
    labels = tuple(f"x{i}" for i in range(k))
    p = {x: 0.1 + 0.8 * i / k for i, x in enumerate(labels)}
    q = {
        (a, b): (1.0 - p[a]) * (1.0 - p[b])
        for i, a in enumerate(labels)
        for b in labels[i + 1 :]
    }
    return mf.BeliefTable(labels, p, q)


#: Weights whose cumsum overshoots 1.0 (1.0000000000000002) before the
#: trailing zeros, and the last entry of the cdf is set to 1.0.
OVERSHOOT = (9 / 28, 18 / 28, 1 / 28, 0.0, 0.0)


def clustered_weights(k):
    """Five heavy labels, k - 10 of weight 1e-6, five heavy: the tiny ones
    share a few slots, so the search runs several bisection passes."""
    heavy = (1.0 - 1e-6 * (k - 10)) / 10
    return [heavy] * 5 + [1e-6] * (k - 10) + [heavy] * 5


def sampler_cases():
    """name -> (table, strategy, n_samples, lift)."""
    cases = {}
    for n in (_SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1):
        cases[f"uniform k=5 L=3 N={n}"] = (
            sampler_table(5), mf.SamplingStrategy(3, seed=17), n, "independent"
        )
    for length in range(1, 7):
        cases[f"uniform k=4 L={length}"] = (
            sampler_table(4),
            mf.SamplingStrategy(length, seed=100 + length),
            3000,
            "independent",
        )
    t7 = sampler_table(7)
    w7 = {x: (i + 1) / 28 for i, x in enumerate(t7.universe)}
    cases["weighted k=7 L=2"] = (
        t7, mf.SamplingStrategy(2, seed=5, weights=w7), 10000, "independent"
    )
    t5 = sampler_table(5)
    cases["overshooting cumsum, trailing zeros"] = (
        t5,
        mf.SamplingStrategy(3, seed=9, weights=dict(zip(t5.universe, OVERSHOOT))),
        _SAMPLE_BLOCK + 1,
        "independent",
    )
    t1 = mf.BeliefTable(("only",), {"only": 0.375})
    for length in (1, 3):
        cases[f"k=1 L={length}"] = (
            t1, mf.SamplingStrategy(length, seed=4), _SAMPLE_BLOCK + 1, "independent"
        )
    labels = tuple(f"x{i}" for i in range(1000))
    t1000 = mf.BeliefTable(labels, {x: (i % 97) / 97 for i, x in enumerate(labels)})
    cw = dict(zip(labels, clustered_weights(1000)))
    cases["k=1000 clustered tiny weights"] = (
        t1000, mf.SamplingStrategy(2, seed=21, weights=cw), 20000, "independent"
    )
    cases["large seed"] = (
        sampler_table(6),
        mf.SamplingStrategy(4, seed=(1 << 128) - 1),
        _SAMPLE_BLOCK,
        "independent",
    )
    pairs = full_pair_table(6)
    for n in (_SAMPLE_BLOCK - 1, _SAMPLE_BLOCK + 1):
        cases[f"pairwise k=6 N={n}"] = (
            pairs, mf.SamplingStrategy(2, seed=31), n, "pairwise"
        )
    w6 = {x: (i + 1) / 21 for i, x in enumerate(pairs.universe)}
    cases["pairwise weighted"] = (
        pairs, mf.SamplingStrategy(2, seed=32, weights=w6), 9000, "pairwise"
    )

    def lift(points):
        return mf.independent_product([t7.p[x] for x in points])

    cases["callable k=7 L=3"] = (
        t7, mf.SamplingStrategy(3, seed=41), _SAMPLE_BLOCK + 1, lift
    )
    letters = tuple("abcde")
    stream = [
        (letters[i % 5], letters[(i * i) % 5]) for i in range(_SAMPLE_BLOCK + 1)
    ]
    t5l = mf.BeliefTable(letters, {x: (i + 1) / 7 for i, x in enumerate(letters)})
    cases["tuple stream independent"] = (
        t5l,
        mf.SamplingStrategy(2, tuples=stream),
        _SAMPLE_BLOCK + 1,
        "independent",
    )
    # Beliefs below 0.1 keep each product of up to six misses above 0.5,
    # so 1 - product is exact and a mean of one to three samples shows
    # every last bit of the product: these cases pin its order.
    ragged_labels = tuple(f"r{i}" for i in range(9))
    ragged = mf.BeliefTable(
        ragged_labels,
        {x: (i * 0.6180339887498949) % 1 * 0.1 for i, x in enumerate(ragged_labels)},
    )
    for length in range(2, 7):
        for n in (1, 3):
            cases[f"ragged k=9 L={length} N={n}"] = (
                ragged, mf.SamplingStrategy(length, seed=50 + length), n, "independent"
            )
    return cases


#: `mean.hex()` of each case, recorded from the whole-array sampler
#: (one `rng.random((N, L))`, `np.searchsorted`, `np.prod(axis=1)` and a
#: Python loop for the pairwise lift) before the block sampler replaced it.
SAMPLER_GOLDEN = {
    "uniform k=5 L=3 N=8191": "0x1.b4f972b5d9c52p-1",
    "uniform k=5 L=3 N=8192": "0x1.b4fbbb87366e6p-1",
    "uniform k=5 L=3 N=8193": "0x1.b4faffdfaf758p-1",
    "uniform k=4 L=1": "0x1.cf3869c05368dp-2",
    "uniform k=4 L=2": "0x1.6554b391cd8cep-1",
    "uniform k=4 L=3": "0x1.a9d0d646bb4d9p-1",
    "uniform k=4 L=4": "0x1.d52b3f8567269p-1",
    "uniform k=4 L=5": "0x1.e5ab3d22ab666p-1",
    "uniform k=4 L=6": "0x1.f1649f3a7a36fp-1",
    "weighted k=7 L=2": "0x1.9428031d43af8p-1",
    "overshooting cumsum, trailing zeros": "0x1.9987283c73de9p-1",
    "k=1 L=1": "0x1.8000000000000p-2",
    "k=1 L=3": "0x1.8300000000000p-1",
    "k=1000 clustered tiny weights": "0x1.1af1c1c9d6365p-2",
    "large seed": "0x1.c7b2788ae6e8ap-1",
    "pairwise k=6 N=8191": "0x1.48e7f79ac2867p-1",
    "pairwise k=6 N=8193": "0x1.48e43606224c1p-1",
    "pairwise weighted": "0x1.8047e115b5f88p-1",
    "callable k=7 L=3": "0x1.b9ed8fc8663bcp-1",
    "tuple stream independent": "0x1.4e5829fac50fcp-1",
    "ragged k=9 L=2 N=1": "0x1.b646669792ae8p-4",
    "ragged k=9 L=2 N=3": "0x1.651daa1f77ad5p-4",
    "ragged k=9 L=3 N=1": "0x1.c55d45144ee00p-4",
    "ragged k=9 L=3 N=3": "0x1.a856fe0d17e08p-4",
    "ragged k=9 L=4 N=1": "0x1.09e0c5711e458p-2",
    "ragged k=9 L=4 N=3": "0x1.65f80bd2f2113p-3",
    "ragged k=9 L=5 N=1": "0x1.e4410c0e4b5e4p-3",
    "ragged k=9 L=5 N=3": "0x1.d76920b525cc8p-3",
    "ragged k=9 L=6 N=1": "0x1.34cb0c30b10bcp-2",
    "ragged k=9 L=6 N=3": "0x1.0100e2f63406ep-2",
}


def whole_array_mean(table, strategy, n, lift="independent"):
    """The sampler before blocks: every uniform at once, `searchsorted`,
    then `np.prod` over the tuple axis or a Python loop over the pairs."""
    labels = table.universe
    weights = strategy.weights or dict.fromkeys(labels, 1.0 / len(labels))
    cdf = sampler_cdf([weights.get(x, 0.0) for x in labels])
    rng = np.random.Generator(np.random.Philox(key=strategy.seed))
    index = np.searchsorted(cdf, rng.random((n, strategy.tuple_length)), side="right")
    if lift == "independent":
        miss = 1.0 - np.array([table.p[x] for x in labels])
        values = 1.0 - np.prod(miss[index], axis=1)
    else:
        values = np.empty(n)
        for k, (i, j) in enumerate(index):
            a, b = labels[i], labels[j]
            if a == b:
                values[k] = table.p[a]
                continue
            q = table.q(a, b)
            if q is None:
                raise UnsupportedLiftPolicy(f"no q_pair entry for pair ({a}, {b})")
            values[k] = 1.0 - q
    return float(np.add.reduce(values) / n)


def outcome(call):
    """A mean's bits, or the error it raised."""
    try:
        return call().hex()
    except UnsupportedLiftPolicy as exc:
        return str(exc)


def sampler_cdf(weights):
    """The cdf `sample_exists` searches: a cumsum with its last entry 1.0."""
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf[-1] = 1.0
    return cdf


def hard_keys(search, cdf):
    """Every slot edge and every cdf entry below 1, with their neighbours."""
    points = np.concatenate([np.arange(search.slots) / search.slots, cdf])
    keys = np.concatenate(
        [points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)]
    )
    return keys[(keys >= 0.0) & (keys < 1.0)]


class TestBlockSampler:
    def test_block_size_matches_the_recorded_cases(self):
        # The golden cases straddle a block boundary at this size.
        assert _SAMPLE_BLOCK == 8192

    @pytest.mark.parametrize("name", sorted(SAMPLER_GOLDEN))
    def test_bit_identical_to_the_whole_array_sampler(self, name):
        table, strategy, n, lift = sampler_cases()[name]
        mean = mf.sample_exists(table, strategy, n, lift=lift).mean
        assert mean.hex() == SAMPLER_GOLDEN[name]

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 40),
        length=st.integers(1, 7),
        n=st.one_of(
            st.integers(1, 4), st.integers(_SAMPLE_BLOCK - 2, 2 * _SAMPLE_BLOCK + 2)
        ),
        seed=st.integers(0, (1 << 128) - 1),
        weighted=st.booleans(),
    )
    def test_matches_the_whole_array_reference(self, k, length, n, seed, weighted):
        labels = tuple(f"y{i}" for i in range(k))
        rng = np.random.default_rng(seed % 1000)
        # Small beliefs on odd seeds: 1 - product is then exact (see above).
        beliefs = rng.random(k) * (0.1 if seed % 2 else 1.0)
        table = mf.BeliefTable(labels, dict(zip(labels, beliefs.tolist())))
        weights = None
        if weighted:
            w = rng.random(k) ** 4
            weights = dict(zip(labels, (w / w.sum()).tolist()))
        strategy = mf.SamplingStrategy(length, seed=seed, weights=weights)
        got = mf.sample_exists(table, strategy, n).mean
        assert got.hex() == clip01(whole_array_mean(table, strategy, n)).hex()

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 12),
        n=st.integers(1, 2 * _SAMPLE_BLOCK + 2),
        seed=st.integers(0, 2**64),
        missing=st.sampled_from([0.0, 0.01, 0.3]),
    )
    def test_pairwise_matches_the_loop_reference(self, k, n, seed, missing):
        labels = tuple(f"y{i}" for i in range(k))
        rng = np.random.default_rng(seed % 1000)
        p = dict(zip(labels, rng.random(k).tolist()))
        q = {
            (a, b): (1.0 - p[a]) * (1.0 - p[b])
            for i, a in enumerate(labels)
            for b in labels[i + 1 :]
            if rng.random() >= missing
        }
        table = mf.BeliefTable(labels, p, q)
        strategy = mf.SamplingStrategy(2, seed=seed)
        got = outcome(lambda: mf.sample_exists(table, strategy, n, lift="pairwise").mean)
        want = outcome(lambda: whole_array_mean(table, strategy, n, lift="pairwise"))
        assert got == want

    def test_clustered_weights_take_several_passes(self):
        search = _IndexedSearch(sampler_cdf(clustered_weights(1000)))
        assert search.passes >= 4

    @settings(max_examples=150, deadline=None)
    @given(
        raw=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(1e-12, 1e-4),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=80,
        ),
        uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
    )
    @example(raw=list(OVERSHOOT), uniforms=[0.9999999999999999])
    @example(raw=[0.0, 0.0, 1.0, 0.0], uniforms=[0.0])
    def test_search_equals_searchsorted(self, raw, uniforms):
        total = math.fsum(raw)
        weights = [x / total for x in raw] if total > 0.0 else [1.0] * len(raw)
        cdf = sampler_cdf(weights)
        search = _IndexedSearch(cdf)
        u = np.concatenate([np.array(uniforms, dtype=np.float64), hard_keys(search, cdf)])
        for shape in ((u.size,), (u.size // 2, 2)):
            keys = u[: math.prod(shape)].reshape(shape)
            want = np.searchsorted(cdf, keys, side="right")
            assert np.array_equal(search(keys), want)

    def test_values_are_the_only_array_of_n(self):
        """N = 10**6 tuples of length 3 peak at 8 bytes per sample plus a
        block's worth of buffers, where whole-array sampling held 9x that."""
        n = 10**6
        strategy = mf.SamplingStrategy(3, seed=2)
        table = sampler_table(22)
        tracemalloc.start()
        try:
            mf.sample_exists(table, strategy, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n

    def test_pairwise_lookup_is_not_quadratic_in_the_universe(self):
        """A sparse q_pair over 4000 labels: a k-by-k lookup table would
        take 128 MB."""
        labels = tuple(f"x{i}" for i in range(4000))
        table = mf.BeliefTable(
            labels, dict.fromkeys(labels, 0.5), {("x1", "x2"): 0.25}
        )
        stream = [("x1", "x2"), ("x2", "x1"), ("x3", "x3")] * 1000
        strategy = mf.SamplingStrategy(2, tuples=stream)
        tracemalloc.start()
        try:
            estimate = mf.sample_exists(table, strategy, 3000, lift="pairwise")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate.mean == pytest.approx((0.75 + 0.75 + 0.5) / 3.0, abs=1e-12)
        assert peak < 8 << 20

    def test_pairwise_reports_the_first_missing_pair_in_sample_order(self):
        table = mf.BeliefTable(
            ("a", "b", "c"), {"a": 0.2, "b": 0.4, "c": 0.6}, {("a", "b"): 0.48}
        )
        # Two missing pairs, both past the first block; (c, a) comes first.
        stream = [("a", "b")] * (_SAMPLE_BLOCK + 3) + [("c", "a"), ("b", "c")]
        strategy = mf.SamplingStrategy(2, tuples=stream)
        with pytest.raises(UnsupportedLiftPolicy) as info:
            mf.sample_exists(table, strategy, len(stream), lift="pairwise")
        assert str(info.value) == "no q_pair entry for pair (c, a)"

    def test_pairwise_length_is_checked_before_pairs(self):
        table = mf.BeliefTable(("a", "b"), {"a": 0.2, "b": 0.4})
        strategy = mf.SamplingStrategy(3, tuples=[("a", "b", "a")])
        with pytest.raises(UnsupportedLiftPolicy, match="length 2 only"):
            mf.sample_exists(table, strategy, 1, lift="pairwise")

    def test_huge_sample_count_is_named(self):
        strategy = mf.SamplingStrategy(2, seed=0)
        with pytest.raises(InvalidParameter, match=r"n_samples = 1000000000000000 "):
            mf.sample_exists(PAIR, strategy, 10**15)

    @pytest.mark.parametrize("seed", [0, 1, (1 << 128) - 1, np.uint64(7), None])
    def test_accepted_seeds(self, seed):
        strategy = mf.SamplingStrategy(1, seed=seed)
        assert strategy.seed == (None if seed is None else int(seed))
        assert type(strategy.seed) in (int, type(None))

    @pytest.mark.parametrize(
        "seed", [-1, 1 << 128, 1.5, 2.0, True, False, "3", np.float64(2.0)]
    )
    def test_rejected_seeds(self, seed):
        with pytest.raises(InvalidParameter, match="seed must be None or an integer"):
            mf.SamplingStrategy(1, seed=seed)


class TestTupleStream:
    """A caller's tuple stream is read and scored in blocks.  An unknown or
    unusable lift policy raises before any tuple is read; then each block is
    checked as it is read, and its first fault raises at once: a bad length,
    then a label outside the universe, then a stream that ran out, and an
    error raised while scoring the block stops reading there."""

    TABLE = mf.BeliefTable(("a", "b", "c"), {"a": 0.2, "b": 0.4, "c": 0.6})

    def sample(self, stream, n, length=2, lift="independent"):
        strategy = mf.SamplingStrategy(length, tuples=stream)
        return mf.sample_exists(self.TABLE, strategy, n, lift=lift)

    def test_values_are_the_only_array_of_n(self):
        """N = 10**5 tuples of length 3 peak at 8 bytes per sample plus a
        block's worth of buffers, where reading the stream whole held about
        20x that.  The stream is built before tracing: the caller's tuples
        are the caller's memory."""
        n = 10**5
        labels = tuple(f"x{i}" for i in range(50))
        table = mf.BeliefTable(labels, {x: (i + 1) / 60 for i, x in enumerate(labels)})
        rows = np.random.default_rng(0).integers(0, 50, (n, 3)).tolist()
        stream = [tuple(labels[i] for i in row) for row in rows]
        tracemalloc.start()
        try:
            estimate = mf.sample_exists(table, mf.SamplingStrategy(3, tuples=stream), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n
        miss = np.array([1.0 - table.p[x] for x in labels])[np.array(rows)]
        want = np.add.reduce(1.0 - miss[:, 0] * miss[:, 1] * miss[:, 2]) / n
        assert estimate.mean == float(want)

    def test_reads_no_more_than_n(self):
        taken = []

        def endless():
            while True:
                taken.append(None)
                yield ("a", "b")

        estimate = self.sample(endless(), _SAMPLE_BLOCK + 5)
        assert len(taken) == _SAMPLE_BLOCK + 5
        assert estimate.mean == pytest.approx(1.0 - 0.8 * 0.6, abs=1e-12)

    def test_bad_length_is_reported_before_a_short_stream(self):
        stream = [("a", "b")] * 3 + [("a",)] + [("a", "z")] * _SAMPLE_BLOCK
        with pytest.raises(InvalidParameter, match=r"^tuple \('a',\) does not have length 2$"):
            self.sample(stream, 9000)

    def test_lift_error_is_reported_before_a_short_stream(self):
        """A missing q_pair entry stops reading at the first block; an
        unknown policy raises before the stream is read at all."""
        stream = [("a", "b")] * (_SAMPLE_BLOCK + 1)
        with pytest.raises(UnsupportedLiftPolicy, match=r"no q_pair entry for pair \(a, b\)"):
            self.sample(stream, 2 * _SAMPLE_BLOCK, lift="pairwise")
        tuples = iter(stream)
        with pytest.raises(UnsupportedLiftPolicy, match="unknown lift policy 'bogus'"):
            self.sample(tuples, 2 * _SAMPLE_BLOCK, length=2, lift="bogus")
        assert len(list(tuples)) == len(stream)

    def test_unknown_label_is_reported_before_a_later_bad_length(self):
        """The unknown label comes in the first block, the bad length only
        in the second, which is never read."""
        stream = [("a", "z")] + [("a", "b")] * _SAMPLE_BLOCK + [("a", "b", "c")]
        with pytest.raises(BadCoordinate, match="names 'z'"):
            self.sample(stream, len(stream))

    def test_first_unknown_label_is_named(self):
        stream = [("a", "b")] * (_SAMPLE_BLOCK + 2) + [("c", "y"), ("z", "a")]
        with pytest.raises(BadCoordinate, match="'y'"):
            self.sample(stream, len(stream))

    def test_lift_error_is_reported_before_a_later_unknown_label(self):
        """A missing q_pair entry in the first block, an unknown label in
        the second: scoring the first block raises before the second is
        read."""
        stream = [("a", "b")] * _SAMPLE_BLOCK + [("c", "y")]
        with pytest.raises(UnsupportedLiftPolicy, match=r"no q_pair entry for pair \(a, b\)"):
            self.sample(stream, len(stream), lift="pairwise")

    def test_element_without_length_is_a_bad_length(self):
        with pytest.raises(InvalidParameter, match=r"^tuple 1 does not have length 2$"):
            self.sample([1, 2], 2)
        # Before a short stream, and before an unknown label.
        with pytest.raises(InvalidParameter, match=r"^tuple 1 does not have length 2$"):
            self.sample([1, 2], 3)
        with pytest.raises(InvalidParameter, match="tuple 7 does not"):
            self.sample([("a", "z"), 7], 2)
        with pytest.raises(InvalidParameter, match=r"^tuple None does not have length 2$"):
            self.sample([("a", "b"), None], 2)

    def test_unhashable_label_is_outside_the_universe(self):
        with pytest.raises(BadCoordinate, match=r"names \['b'\], which is not"):
            self.sample([("a", ["b"])], 1)
        # The first label outside the universe is named, hashable or not.
        with pytest.raises(BadCoordinate, match="names 'z'"):
            self.sample([("a", "b"), ("z", ["b"])], 2)
        with pytest.raises(InvalidParameter, match="does not have length"):
            self.sample([("a", ["b"]), ("a",)], 2)

    @pytest.mark.parametrize(
        "stream, line",
        [
            ([1, 2], "InvalidParameter: tuple 1 does not have length 2"),
            (
                [("a", ["b"])] * 2,
                "BadCoordinate: tuple stream names ['b'], which is not in the universe",
            ),
        ],
    )
    def test_malformed_stream_exits_2_on_the_command_line(
        self, tmp_path, capsys, monkeypatch, stream, line
    ):
        """`quantify sample` reads no stream itself; one is put into its
        strategy here, to show that the error maps to an input exit."""
        real = cli.SamplingStrategy
        monkeypatch.setattr(
            cli,
            "SamplingStrategy",
            lambda tuple_length, seed: real(tuple_length, seed, tuples=stream),
        )
        path = tmp_path / "table.json"
        path.write_text('{"universe": ["a", "b"], "p": {"a": 0.25, "b": 0.5}}')
        code = cli.main(["quantify", "sample", "--input", str(path), "--samples", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {line}\n")

    def test_callable_lift_error_stops_reading(self):
        calls = []

        def lift(labels):
            calls.append(labels)
            raise UnsupportedLiftPolicy("lift failed")

        stream = [("a", "b")] * (_SAMPLE_BLOCK + 1)
        # The first call raises; the short stream is never reached.
        with pytest.raises(UnsupportedLiftPolicy, match="lift failed"):
            self.sample(stream, len(stream) + 1, lift=lift)
        assert len(calls) == 1
        with pytest.raises(UnsupportedLiftPolicy, match="lift failed"):
            self.sample(stream, len(stream), lift=lift)
        assert len(calls) == 2

    #: Universe a-d with a q_pair entry for each pair of a, b and c only.
    PAIRED = mf.BeliefTable(
        ("a", "b", "c", "d"),
        {"a": 0.2, "b": 0.4, "c": 0.6, "d": 0.5},
        {("a", "b"): 0.5, ("a", "c"): 0.3, ("b", "c"): 0.3},
    )
    #: One fault each: the stream element, and the error and message it
    #: raises as a stream's only fault, the same as when every fault was
    #: held until the stream had been read.
    FAULTS = {
        "bad length": (("a",), InvalidParameter, "tuple ('a',) does not have length 2"),
        "no length": (7, InvalidParameter, "tuple 7 does not have length 2"),
        "unknown label": (
            ("a", "z"),
            BadCoordinate,
            "tuple stream names 'z', which is not in the universe",
        ),
        "unhashable label": (
            ("a", ["b"]),
            BadCoordinate,
            "tuple stream names ['b'], which is not in the universe",
        ),
        "no q_pair entry": (
            ("a", "d"),
            UnsupportedLiftPolicy,
            "no q_pair entry for pair (a, d)",
        ),
    }

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 3 * _SAMPLE_BLOCK),
        fault=st.sampled_from([None, "short stream", *sorted(FAULTS)]),
        where=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_fault_raises_in_its_own_block(self, n, fault, where, seed):
        """A stream of up to three blocks with at most one fault, at index
        `at`: the fault raises with its type and message, and the stream is
        pulled no further than the end of the fault's block; a stream with
        none gives the mean of its scores, summed as one array."""
        labels = ("a", "b", "c")
        rows = np.random.default_rng(seed).integers(0, 3, (n, 2)).tolist()
        tuples = [(labels[i], labels[j]) for i, j in rows]
        at = int(where * n)
        if fault == "short stream":
            del tuples[at:]
        elif fault is not None:
            tuples[at] = self.FAULTS[fault][0]
        pulled = []

        def counting():
            for item in tuples:
                pulled.append(None)
                yield item

        strategy = mf.SamplingStrategy(2, tuples=counting())
        if fault is None:
            estimate = mf.sample_exists(self.PAIRED, strategy, n, lift="pairwise")
            p, q = self.PAIRED.p, self.PAIRED.q
            scores = np.array([p[a] if a == b else 1.0 - q(a, b) for a, b in tuples])
            assert estimate.mean == clip01(float(np.add.reduce(scores) / n))
            assert len(pulled) == n
            return
        if fault == "short stream":
            error, message = InvalidParameter, f"tuple stream yielded {at} tuples, need {n}"
        else:
            error, message = self.FAULTS[fault][1:]
        with pytest.raises(error) as info:
            mf.sample_exists(self.PAIRED, strategy, n, lift="pairwise")
        assert str(info.value) == message
        assert len(pulled) <= min((at // _SAMPLE_BLOCK + 1) * _SAMPLE_BLOCK, n)
