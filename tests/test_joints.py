"""Joint-table construction, marginalization, products and pushforward."""

import math

import numpy as np
import pytest

import markov_fuzzy as mf
from markov_fuzzy.errors import (
    ArityMismatch,
    ArityTooLarge,
    BadCoordinate,
    InfeasibleQ,
    NegativeMass,
    NotNormalized,
)


def entry_by_loops(ps, index):
    """Independent-product entry via an explicit per-bit product."""
    value = 1.0
    for bit, p in enumerate(ps):
        value *= p if (index >> bit) & 1 else 1.0 - p
    return value


def marginal_by_loops(dist, coords):
    """Marginal via plain nested Python loops (oracle for the fast path)."""
    out = [0.0] * (1 << len(coords))
    for index in range(1 << dist.arity):
        packed = 0
        for new_bit, coord in enumerate(coords):
            if (index >> (coord - 1)) & 1:
                packed |= 1 << new_bit
        out[packed] += float(dist.probs[index])
    return out


class TestMakeJoint:
    def test_single_predicate(self):
        dist = mf.make_joint(1, [0.25, 0.75])
        assert dist.probs.tolist() == [0.25, 0.75]
        assert dist.prob_true(1) == 0.75

    def test_simplex_point(self):
        dist = mf.make_joint(2, [0.1, 0.2, 0.3, 0.4])
        assert dist.arity == 2
        np.testing.assert_allclose(dist.probs, [0.1, 0.2, 0.3, 0.4], rtol=0, atol=0)

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            mf.make_joint(2, [0.5, 0.6, 0.2, -0.3])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            mf.make_joint(1, [0.4, 0.4])

    def test_renormalizes_rounding_noise(self):
        dist = mf.make_joint(1, [0.25, 0.75 + 1e-10])
        assert math.fsum(dist.probs.tolist()) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(NotNormalized):
            mf.make_joint(1, [0.25, 0.75 + 1e-8])

    def test_tiny_negative_entry_clamped(self):
        dist = mf.make_joint(1, [-1e-12, 1.0])
        assert dist.probs[0] == 0.0

    def test_arity_cap(self):
        with pytest.raises(ArityTooLarge):
            mf.make_joint(mf.N_MAX + 1, [0.5, 0.5])

    def test_wrong_length(self):
        with pytest.raises(ArityMismatch):
            mf.make_joint(2, [0.5, 0.5])

    def test_immutable(self):
        dist = mf.make_joint(1, [0.5, 0.5])
        with pytest.raises(ValueError):
            dist.probs[0] = 1.0


NAN, INF = math.nan, math.inf


class TestConstructorsRejectNonFinite:
    """The constructors' sign and sum checks fail on NaN and +-inf, not
    only on finite violations; an integer too large for a float reads as
    the infinity it rounds to, as in make_joint."""

    CONSTRUCTORS = {
        "joint": lambda entries: mf.JointBooleanDist(1, entries),
        "finite": lambda entries: mf.FiniteDist(("a", "b"), entries),
    }

    @pytest.mark.parametrize("construct", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize(
        "entries, error",
        [
            ([NAN, NAN], NegativeMass),
            ([NAN, 1.0], NegativeMass),
            ([1.0, NAN], NegativeMass),
            ([INF, -INF], NegativeMass),
            ([INF, 0.0], NotNormalized),
            ([0.0, INF], NotNormalized),
            ([10**400, 0], NotNormalized),
            ([-(10**400), 1], NegativeMass),
        ],
    )
    def test_rejected(self, construct, entries, error):
        with pytest.raises(error):
            self.CONSTRUCTORS[construct](entries)

    def test_valid_tables_still_accepted(self):
        for construct in self.CONSTRUCTORS.values():
            assert construct([0.25, 0.75]).probs.tolist() == [0.25, 0.75]


class TestIndependentProduct:
    def test_symmetric(self):
        dist = mf.independent_product([0.5, 0.5])
        assert dist.probs.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_certainty_collapses_axis(self):
        dist = mf.independent_product([1.0, 0.3])
        assert dist.prob((True, True)) == pytest.approx(0.3, abs=1e-15)
        assert dist.prob((True, False)) == pytest.approx(0.7, abs=1e-15)
        assert dist.prob((False, True)) == 0.0
        assert dist.prob((False, False)) == 0.0

    def test_cross_check_by_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ps = rng.random(int(rng.integers(1, 6))).tolist()
            dist = mf.independent_product(ps)
            for index in range(1 << len(ps)):
                assert float(dist.probs[index]) == pytest.approx(
                    entry_by_loops(ps, index), abs=1e-15
                )
        assert mf.independent_product([0.7, 0.6]).prob((True, True)) == pytest.approx(
            0.42, abs=1e-15
        )

    def test_marginal_round_trip_dyadic_exact(self):
        ps = [0.5, 0.25, 0.75, 0.125]
        dist = mf.independent_product(ps)
        for i, p in enumerate(ps, start=1):
            assert mf.marginal(dist, [i]).probs[1] == p

    def test_marginal_round_trip_general(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ps = rng.random(4).tolist()
            dist = mf.independent_product(ps)
            for i, p in enumerate(ps, start=1):
                assert float(mf.marginal(dist, [i]).probs[1]) == pytest.approx(
                    p, abs=2e-15
                )

    def test_arity_cap(self):
        with pytest.raises(ArityTooLarge):
            mf.independent_product([0.5] * (mf.N_MAX + 1))

    def test_empty(self):
        with pytest.raises(BadCoordinate):
            mf.independent_product([])


class TestMarginal:
    def test_product_marginal(self):
        dist = mf.independent_product([0.7, 0.6])
        assert float(mf.marginal(dist, [1]).probs[1]) == pytest.approx(0.7, abs=1e-15)

    def test_pair_second_coordinate(self):
        dist = mf.pair_from_pq(0.7, 0.6, 0.1)
        assert float(mf.marginal(dist, [2]).probs[1]) == pytest.approx(0.6, abs=1e-12)

    def test_identity_selection(self):
        dist = mf.make_joint(2, [0.1, 0.2, 0.3, 0.4])
        again = mf.marginal(dist, [1, 2])
        np.testing.assert_array_equal(again.probs, dist.probs)

    def test_order_preserved(self):
        dist = mf.make_joint(2, [0.1, 0.2, 0.3, 0.4])
        swapped = mf.marginal(dist, [2, 1])
        # (a2, a1) table: entry (x, y) of the swap equals entry (y, x).
        assert swapped.prob((False, True)) == dist.prob((True, False))
        assert swapped.prob((True, False)) == dist.prob((False, True))

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            table = rng.dirichlet(np.ones(16))
            dist = mf.make_joint(4, table)
            coords = [int(c) + 1 for c in rng.permutation(4)[: rng.integers(1, 5)]]
            got = mf.marginal(dist, coords)
            np.testing.assert_allclose(
                got.probs, marginal_by_loops(dist, coords), atol=1e-12, rtol=0
            )

    @pytest.mark.parametrize("coords", [[], [0], [3], [1, 1]])
    def test_bad_coordinates(self, coords):
        dist = mf.make_joint(2, [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(BadCoordinate):
            mf.marginal(dist, coords)


class TestPairFromPQ:
    def test_reference_table(self):
        dist = mf.pair_from_pq(0.7, 0.6, 0.1)
        assert dist.prob((False, False)) == pytest.approx(0.1, abs=1e-15)
        assert dist.prob((False, True)) == pytest.approx(0.2, abs=1e-15)
        assert dist.prob((True, False)) == pytest.approx(0.3, abs=1e-15)
        assert dist.prob((True, True)) == pytest.approx(0.4, abs=1e-15)

    def test_certainty_forces_q(self):
        dist = mf.pair_from_pq(1.0, 0.3, 0.0)
        assert dist.prob((True, True)) == pytest.approx(0.3, abs=1e-15)
        assert dist.prob((False, False)) == 0.0
        assert dist.prob((False, True)) == 0.0

    def test_infeasible_q(self):
        with pytest.raises(InfeasibleQ):
            mf.pair_from_pq(0.5, 0.5, 0.9)

    def test_q_within_tolerance_clamped(self):
        dist = mf.pair_from_pq(0.5, 0.5, 0.5 + 1e-13)
        assert dist.prob((False, False)) == 0.5

    def test_marginal_consistency_grid(self):
        # 21 x 21 marginal grid, 11 q points across each feasible interval.
        grid = np.linspace(0.0, 1.0, 21)
        for p1 in grid:
            for p2 in grid:
                b = mf.q_bounds(p1, p2)
                for q in np.linspace(b.q_min, b.q_max, 11):
                    dist = mf.pair_from_pq(p1, p2, q)
                    m1 = float(mf.marginal(dist, [1]).probs[1])
                    m2 = float(mf.marginal(dist, [2]).probs[1])
                    assert abs(m1 - p1) <= 1e-12
                    assert abs(m2 - p2) <= 1e-12


class TestPushforward:
    def test_identity(self):
        dist = mf.make_joint(2, [0.1, 0.2, 0.3, 0.4])
        out = mf.pushforward(dist, mf.identity_function(2))
        np.testing.assert_array_equal(out.probs, dist.probs)

    def test_and_gate(self):
        dist = mf.pair_from_pq(0.7, 0.6, 0.1)
        out = mf.pushforward(dist, mf.and_function())
        assert float(out.probs[1]) == pytest.approx(0.4, abs=1e-12)

    def test_double_negation_permutes_table(self):
        both_not = mf.product(mf.not_function(), mf.not_function())
        for p1, p2, q in [(0.7, 0.6, 0.1), (0.5, 0.9, 0.05), (0.3, 0.3, 0.4)]:
            dist = mf.pair_from_pq(p1, p2, q)
            out = mf.pushforward(dist, both_not)
            assert float(out.prob((False, False))) == pytest.approx(
                p1 + p2 + q - 1.0, abs=1e-12
            )
            np.testing.assert_array_equal(out.probs, dist.probs[::-1])

    def test_arity_mismatch(self):
        dist = mf.make_joint(1, [0.5, 0.5])
        with pytest.raises(ArityMismatch):
            mf.pushforward(dist, mf.and_function(2))

    def test_mass_conserved_and_deterministic(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            dist = mf.make_joint(n, rng.dirichlet(np.ones(1 << n)))
            f = mf.BooleanFunction(n, m, rng.integers(0, 1 << m, size=1 << n))
            out = mf.pushforward(dist, f)
            assert abs(float(out.probs.sum()) - float(dist.probs.sum())) <= 1e-12
            again = mf.pushforward(dist, f)
            np.testing.assert_array_equal(out.probs, again.probs)

    def test_functoriality_sample(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n, k, m = (int(x) for x in rng.integers(1, 5, size=3))
            dist = mf.make_joint(n, rng.dirichlet(np.ones(1 << n)))
            f = mf.BooleanFunction(n, k, rng.integers(0, 1 << k, size=1 << n))
            g = mf.BooleanFunction(k, m, rng.integers(0, 1 << m, size=1 << k))
            two_step = mf.pushforward(mf.pushforward(dist, f), g)
            one_step = mf.pushforward(dist, mf.compose(g, f))
            np.testing.assert_allclose(
                two_step.probs, one_step.probs, atol=1e-12, rtol=0
            )


class TestPushforwardFinite:
    # The two-party coin game: predicates are "coin i came up heads",
    # party 1 wins on heads of coin 1, party 2 on tails of coin 2.
    ADD_VALUES = {
        (False, False): 0,
        (True, False): 2,
        (False, True): -2,
        (True, True): 0,
    }

    @staticmethod
    def coin_pair(p, q_both_heads):
        # Both coins have heads probability p; q_both_heads = P(hh).
        return mf.make_joint(
            2,
            [
                1.0 - 2.0 * p + q_both_heads,  # tt
                p - q_both_heads,  # ht
                p - q_both_heads,  # th
                q_both_heads,  # hh
            ],
        )

    def test_sum_distribution(self):
        dist = self.coin_pair(0.5, 0.3)
        out = mf.pushforward_finite(dist, self.ADD_VALUES)
        assert out.alphabet == (0, 2, -2)
        assert out.prob(2) == pytest.approx(0.2, abs=1e-12)
        assert out.prob(0) == pytest.approx(0.6, abs=1e-12)
        assert out.prob(-2) == pytest.approx(0.2, abs=1e-12)

    def test_constant_value_table(self):
        dist = mf.make_joint(2, [0.1, 0.2, 0.3, 0.4])
        out = mf.pushforward_finite(dist, {key: "only" for key in self.ADD_VALUES})
        assert out.alphabet == ("only",)
        assert out.prob("only") == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_coins(self):
        out = mf.pushforward_finite(self.coin_pair(0.5, 0.5), self.ADD_VALUES)
        assert out.prob(0) == pytest.approx(1.0, abs=1e-12)

    def test_sequence_form_and_label_order(self):
        dist = mf.make_joint(2, [0.1, 0.2, 0.3, 0.4])
        out = mf.pushforward_finite(dist, ["b", "a", "b", "c"])
        assert out.alphabet == ("b", "a", "c")
        np.testing.assert_allclose(out.probs, [0.4, 0.2, 0.4], atol=1e-15)

    def test_partial_table_rejected(self):
        dist = mf.make_joint(1, [0.5, 0.5])
        with pytest.raises(ArityMismatch):
            mf.pushforward_finite(dist, {(False,): 1})


class TestSimplexClosure:
    def test_operation_outputs_stay_on_simplex(self):
        rng = np.random.default_rng(17)
        outputs = []
        for _ in range(20):
            ps = rng.random(3).tolist()
            outputs.append(mf.independent_product(ps))
            b = mf.q_bounds(ps[0], ps[1])
            q = float(rng.uniform(b.q_min, b.q_max))
            pair = mf.pair_from_pq(ps[0], ps[1], q)
            outputs.append(pair)
            outputs.append(mf.marginal(outputs[-2], [2, 3]))
            outputs.append(mf.pushforward(pair, mf.or_function()))
        for dist in outputs:
            assert float(dist.probs.min()) >= -4e-9
            assert abs(float(dist.probs.sum()) - 1.0) <= 4e-9
