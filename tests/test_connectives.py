"""Scalar connective families, q feasibility and the de Morgan transform."""

import numpy as np
import pytest

import markov_fuzzy as mf
from markov_fuzzy.errors import InfeasibleQ, InvalidBelief, InvalidParameter

GRID = np.linspace(0.0, 1.0, 21)


class TestFuzzyNot:
    def test_values(self):
        assert mf.fuzzy_not(0.25) == 0.75
        assert mf.fuzzy_not(1.0) == 0.0

    def test_involution(self):
        assert mf.fuzzy_not(mf.fuzzy_not(0.3)) == pytest.approx(0.3, abs=1e-15)


class TestQBounds:
    def test_symmetric_half(self):
        b = mf.q_bounds(0.5, 0.5)
        assert (b.q_min, b.q_indep, b.q_max) == (0.0, 0.25, 0.5)

    def test_certainty_pins_q(self):
        b = mf.q_bounds(1.0, 0.3)
        assert (b.q_min, b.q_indep, b.q_max) == (0.0, 0.0, 0.0)

    def test_reference_pair(self):
        b = mf.q_bounds(0.7, 0.6)
        assert b.q_min == 0.0
        assert b.q_indep == pytest.approx(0.12, abs=1e-15)
        assert b.q_max == pytest.approx(0.3, abs=1e-15)

    def test_ordering_everywhere(self):
        for p1 in GRID:
            for p2 in GRID:
                b = mf.q_bounds(p1, p2)
                assert 0.0 <= b.q_min <= b.q_indep <= b.q_max <= 1.0

    def test_feasible_set_matches_table_enumeration(self):
        # Feasible q's are exactly those leaving all four cells nonnegative.
        p1, p2 = 0.7, 0.6
        b = mf.q_bounds(p1, p2)
        for q in np.arange(0.0, 1.0001, 1e-3):
            cells = [q, (1 - p1) - q, (1 - p2) - q, p1 + p2 - 1 + q]
            feasible = min(cells) >= -1e-12
            assert feasible == b.contains(q, tol=1e-12)


class TestQConnectives:
    def test_reference_values(self):
        assert mf.and_q(0.7, 0.6, 0.1) == pytest.approx(0.4, abs=1e-15)
        assert mf.or_q(0.7, 0.6, 0.1) == pytest.approx(0.9, abs=1e-15)
        assert mf.implies_q(0.7, 0.6, 0.1) == pytest.approx(0.7, abs=1e-15)

    def test_contradiction_and_excluded_middle(self):
        p = 0.35
        assert mf.and_q(p, 1.0 - p, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert mf.or_q(p, 1.0 - p, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_self_implication_at_comonotone_q(self):
        p = 0.4
        assert mf.implies_q(p, p, 1.0 - p) == pytest.approx(1.0, abs=1e-15)

    def test_independence_specialization(self):
        b = mf.q_bounds(0.7, 0.6)
        assert mf.and_q(0.7, 0.6, b.q_indep) == pytest.approx(0.42, abs=1e-15)
        assert mf.or_q(0.7, 0.6, b.q_indep) == pytest.approx(0.88, abs=1e-15)
        assert mf.implies_q(0.7, 0.6, b.q_indep) == pytest.approx(0.72, abs=1e-15)

    def test_infeasible_q(self):
        for fn in (mf.and_q, mf.or_q, mf.implies_q):
            with pytest.raises(InfeasibleQ):
                fn(0.5, 0.5, 0.9)

    def test_numpy_bool_is_refused(self):
        """A numpy bool reads as neither a belief nor a q."""
        with pytest.raises(InvalidBelief, match="p1 must be a number"):
            mf.and_q(np.True_, 0.5, 0.0)
        with pytest.raises(InvalidParameter, match="q must be a number"):
            mf.and_q(0.5, 0.5, np.False_)

    def test_matches_pushforward_kernels(self):
        gates = {
            mf.and_q: mf.and_function(),
            mf.or_q: mf.or_function(),
            mf.implies_q: mf.implies_function(),
        }
        for p1 in GRID:
            for p2 in GRID:
                b = mf.q_bounds(p1, p2)
                for q in (b.q_min, 0.5 * (b.q_min + b.q_max), b.q_indep, b.q_max):
                    dist = mf.pair_from_pq(p1, p2, q)
                    for fn, gate in gates.items():
                        direct = fn(p1, p2, q)
                        pushed = float(mf.pushforward(dist, gate).probs[1])
                        assert abs(direct - pushed) <= 1e-12

    def test_bounded_by_classic_extremes_and_sharp(self):
        for p1 in GRID:
            for p2 in GRID:
                b = mf.q_bounds(p1, p2)
                for q in np.linspace(b.q_min, b.q_max, 7):
                    assert (
                        mf.classic(p1, p2, "and", "min") - 1e-12
                        <= mf.and_q(p1, p2, q)
                        <= mf.classic(p1, p2, "and", "max") + 1e-12
                    )
                    assert (
                        mf.classic(p1, p2, "or", "min") - 1e-12
                        <= mf.or_q(p1, p2, q)
                        <= mf.classic(p1, p2, "or", "max") + 1e-12
                    )
                    assert (
                        mf.classic(p1, p2, "implies", "min") - 1e-12
                        <= mf.implies_q(p1, p2, q)
                        <= mf.classic(p1, p2, "implies", "max") + 1e-12
                    )
                # Sharpness at the interval endpoints.
                assert mf.and_q(p1, p2, b.q_min) == pytest.approx(
                    mf.classic(p1, p2, "and", "min"), abs=1e-15
                )
                assert mf.and_q(p1, p2, b.q_max) == pytest.approx(
                    mf.classic(p1, p2, "and", "max"), abs=1e-15
                )
                assert mf.or_q(p1, p2, b.q_max) == pytest.approx(
                    mf.classic(p1, p2, "or", "min"), abs=1e-15
                )
                assert mf.or_q(p1, p2, b.q_min) == pytest.approx(
                    mf.classic(p1, p2, "or", "max"), abs=1e-15
                )

    def test_boolean_reduction(self):
        truth = {
            "and": lambda a, b: a and b,
            "or": lambda a, b: a or b,
            "implies": lambda a, b: (not a) or b,
        }
        fns = {"and": mf.and_q, "or": mf.or_q, "implies": mf.implies_q}
        for a in (0.0, 1.0):
            for b in (0.0, 1.0):
                bounds = mf.q_bounds(a, b)
                assert bounds.q_min == bounds.q_max
                q = bounds.q_min
                for kind, fn in fns.items():
                    expected = float(truth[kind](bool(a), bool(b)))
                    assert fn(a, b, q) == expected
                    for flavor in ("min", "indep", "max"):
                        assert mf.classic(a, b, kind, flavor) == expected


class TestClassic:
    def test_reference_values(self):
        assert mf.classic(0.7, 0.6, "and", "min") == pytest.approx(0.3, abs=1e-15)
        assert mf.classic(0.7, 0.6, "or", "max") == 1.0
        assert mf.classic(0.7, 0.6, "implies", "min") == pytest.approx(0.6, abs=1e-15)

    def test_unknown_kind_or_flavor(self):
        with pytest.raises(ValueError):
            mf.classic(0.5, 0.5, "xor", "min")
        with pytest.raises(ValueError):
            mf.classic(0.5, 0.5, "and", "median")

    def test_flavor_equals_q_endpoint(self):
        for p1 in GRID:
            for p2 in GRID:
                b = mf.q_bounds(p1, p2)
                cases = [
                    ("and", mf.and_q, {"min": b.q_min, "indep": b.q_indep, "max": b.q_max}),
                    ("or", mf.or_q, {"min": b.q_max, "indep": b.q_indep, "max": b.q_min}),
                    (
                        "implies",
                        mf.implies_q,
                        {"min": b.q_min, "indep": b.q_indep, "max": b.q_max},
                    ),
                ]
                for kind, fn, mapping in cases:
                    for flavor, q in mapping.items():
                        assert mf.classic(p1, p2, kind, flavor) == pytest.approx(
                            fn(p1, p2, q), abs=1e-12
                        )


class TestClampQ:
    def test_projects_onto_interval(self):
        assert mf.clamp_q(0.5, 0.5, 0.9) == 0.5
        assert mf.clamp_q(0.2, 0.2, 0.0) == pytest.approx(0.6, abs=1e-15)
        assert mf.clamp_q(0.5, 0.5, 0.3) == 0.3

    def test_huge_integer_projects_to_an_end(self):
        assert mf.clamp_q(0.5, 0.5, 10**400) == 0.5
        assert mf.clamp_q(0.5, 0.5, -(10**400)) == 0.0


class TestDeMorganDual:
    def test_reference_triple(self):
        n1, n2, q_dual = mf.de_morgan_dual(0.7, 0.6, 0.1)
        assert (n1, n2) == (pytest.approx(0.3), pytest.approx(0.4))
        assert q_dual == pytest.approx(0.4, abs=1e-15)
        assert mf.or_q(0.7, 0.6, 0.1) == pytest.approx(
            1.0 - mf.and_q(n1, n2, q_dual), abs=1e-12
        )

    def test_both_certain(self):
        assert mf.de_morgan_dual(1.0, 1.0, 0.0) == (0.0, 0.0, 1.0)

    def test_independence_preserved(self):
        n1, n2, q_dual = mf.de_morgan_dual(0.5, 0.5, 0.25)
        assert (n1, n2, q_dual) == (0.5, 0.5, 0.25)

    def test_identity_on_grid(self):
        for p1 in GRID:
            for p2 in GRID:
                b = mf.q_bounds(p1, p2)
                for q in np.linspace(b.q_min, b.q_max, 5):
                    n1, n2, q_dual = mf.de_morgan_dual(p1, p2, q)
                    lhs = mf.or_q(p1, p2, q)
                    rhs = 1.0 - mf.and_q(n1, n2, q_dual)
                    assert abs(lhs - rhs) <= 1e-12
                    # The dual q must itself be feasible.
                    nb = mf.q_bounds(n1, n2)
                    assert nb.q_min - 1e-12 <= q_dual <= nb.q_max + 1e-12
