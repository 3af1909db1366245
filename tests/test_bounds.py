"""Polytope confidence bounds: LP solver vs the grid-enumeration oracle."""

import numpy as np
import pytest

import markov_fuzzy as mf
from markov_fuzzy._common import clip01
from markov_fuzzy.bounds import ORACLE_MAX_ARITY
from markov_fuzzy.errors import (
    ArityMismatch,
    ArityTooLarge,
    BadCoordinate,
    Cancelled,
    InfeasibleQ,
    InfeasibleSpec,
    MultiOutput,
    SchemaError,
)


def random_consistent_spec(rng, n, pair_prob=0.5):
    """Draw a joint table and expose (some of) its statistics as a spec."""
    table = rng.dirichlet(np.ones(1 << n))
    idx = np.arange(1 << n)
    marginals = tuple(float(table[(idx >> i) & 1 == 1].sum()) for i in range(n))
    pairwise = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < pair_prob:
                mask = ((idx >> i) & 1 == 0) & ((idx >> j) & 1 == 0)
                pairwise[(i + 1, j + 1)] = float(table[mask].sum())
    return table, mf.PartialJointSpec(marginals=marginals, pairwise=pairwise)


def random_single_output(rng, n):
    table = rng.integers(0, 2, size=1 << n)
    if table.sum() == 0:
        table[int(rng.integers(0, 1 << n))] = 1
    return mf.BooleanFunction(n, 1, table)


def enumerated_independent_point(marginals, f):
    """Reference confidence under independence: each true assignment's
    product weight, summed term by term in ascending index order."""
    total = 0.0
    for a in np.flatnonzero(f.table):
        a = int(a)
        w = 1.0
        for bit, p in enumerate(marginals):
            w *= p if (a >> bit) & 1 else 1.0 - p
        total += w
    return clip01(total)


class TestConfidenceInterval:
    def test_validation(self):
        ci = mf.ConfidenceInterval(0.2, 0.8)
        assert (ci.lo, ci.hi) == (0.2, 0.8)
        assert ci.width == pytest.approx(0.6)
        assert ci.contains(0.5) and not ci.contains(0.9)
        with pytest.raises(ValueError):
            mf.ConfidenceInterval(0.8, 0.2)

    def test_rounding_excursion_clamped(self):
        ci = mf.ConfidenceInterval(0.5 + 1e-12, 0.5)
        assert ci.lo == ci.hi == 0.5


class TestPartialJointSpec:
    def test_pairwise_normalized_symmetric(self):
        spec = mf.PartialJointSpec(marginals=(0.7, 0.6), pairwise={(2, 1): 0.12})
        assert spec.pairwise == {(1, 2): pytest.approx(0.12)}

    def test_conflicting_symmetric_values(self):
        with pytest.raises(InfeasibleQ):
            mf.PartialJointSpec(
                marginals=(0.7, 0.6), pairwise={(1, 2): 0.1, (2, 1): 0.2}
            )

    def test_infeasible_pair_value(self):
        with pytest.raises(InfeasibleQ):
            mf.PartialJointSpec(marginals=(0.7, 0.6), pairwise={(1, 2): 0.9})

    def test_bad_pair_coordinates(self):
        with pytest.raises(BadCoordinate):
            mf.PartialJointSpec(marginals=(0.7, 0.6), pairwise={(1, 3): 0.1})
        with pytest.raises(BadCoordinate):
            mf.PartialJointSpec(marginals=(0.7, 0.6), pairwise={(1, 1): 0.1})

    def test_independent_excludes_pairwise(self):
        with pytest.raises(SchemaError):
            mf.PartialJointSpec(
                marginals=(0.7, 0.6), pairwise={(1, 2): 0.12}, independent=True
            )

    def test_needs_marginals(self):
        with pytest.raises(BadCoordinate):
            mf.PartialJointSpec(marginals=())


class TestClassicBinaryBounds:
    def test_and(self):
        ci = mf.classic_binary_bounds(0.7, 0.6, "and")
        assert (ci.lo, ci.hi) == (pytest.approx(0.3), pytest.approx(0.6))

    def test_implies(self):
        ci = mf.classic_binary_bounds(0.7, 0.6, "implies")
        assert (ci.lo, ci.hi) == (pytest.approx(0.6), pytest.approx(0.9))

    def test_certain_or(self):
        ci = mf.classic_binary_bounds(0.0, 1.0, "or")
        assert (ci.lo, ci.hi) == (1.0, 1.0)


class TestExactBounds:
    def test_and_marginals_only(self):
        spec = mf.PartialJointSpec(marginals=(0.7, 0.6))
        ci = mf.exact_bounds(spec, mf.and_function())
        assert ci.lo == pytest.approx(0.3, abs=1e-9)
        assert ci.hi == pytest.approx(0.6, abs=1e-9)

    def test_or_marginals_only(self):
        spec = mf.PartialJointSpec(marginals=(0.7, 0.6))
        ci = mf.exact_bounds(spec, mf.or_function())
        assert ci.lo == pytest.approx(0.7, abs=1e-9)
        assert ci.hi == pytest.approx(1.0, abs=1e-9)

    def test_pairwise_pins_the_table(self):
        spec = mf.PartialJointSpec(marginals=(0.7, 0.6), pairwise={(1, 2): 0.12})
        ci = mf.exact_bounds(spec, mf.and_function())
        assert ci.lo == pytest.approx(0.42, abs=1e-9)
        assert ci.hi == pytest.approx(0.42, abs=1e-9)

    def test_independent_degenerate(self):
        spec = mf.PartialJointSpec(marginals=(0.7, 0.6), independent=True)
        ci = mf.exact_bounds(spec, mf.or_function())
        assert ci.lo == ci.hi == pytest.approx(0.88, abs=1e-12)

    def test_independent_point_is_bit_identical_to_enumeration(self):
        rng = np.random.default_rng(71)
        for k in range(240):
            n = k % 12 + 1
            certain = rng.integers(0, 2, n).astype(float)
            ps = np.where(rng.random(n) < 0.2, certain, rng.random(n))
            spec = mf.PartialJointSpec(marginals=tuple(ps), independent=True)
            f = random_single_output(rng, n)
            want = enumerated_independent_point(spec.marginals, f)
            ci = mf.exact_bounds(spec, f)
            assert ci.lo == ci.hi == want
            if n <= ORACLE_MAX_ARITY:
                ci = mf.brute_force_bounds(spec, f, 0.1)
                assert ci.lo == ci.hi == want

    def test_infeasible_pair_combination(self):
        spec = mf.PartialJointSpec(
            marginals=(0.5, 0.5, 0.5),
            pairwise={(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0},
        )
        with pytest.raises(InfeasibleSpec):
            mf.exact_bounds(spec, mf.and_function(3))

    def test_arity_cap(self):
        spec = mf.PartialJointSpec(marginals=(0.5,) * 13)
        with pytest.raises(ArityTooLarge):
            mf.exact_bounds(spec, mf.and_function(13))

    def test_shape_checks(self):
        spec = mf.PartialJointSpec(marginals=(0.5, 0.5))
        with pytest.raises(MultiOutput):
            mf.exact_bounds(spec, mf.identity_function(2))
        with pytest.raises(ArityMismatch):
            mf.exact_bounds(spec, mf.and_function(3))

    def test_closed_form_recovery_sample(self):
        rng = np.random.default_rng(2)
        kinds = {"and": mf.and_function(), "or": mf.or_function(), "implies": mf.implies_function()}
        for _ in range(25):
            p1, p2 = rng.random(2)
            spec = mf.PartialJointSpec(marginals=(p1, p2))
            for kind, gate in kinds.items():
                ci = mf.exact_bounds(spec, gate)
                ref = mf.classic_binary_bounds(p1, p2, kind)
                assert ci.lo == pytest.approx(ref.lo, abs=1e-9)
                assert ci.hi == pytest.approx(ref.hi, abs=1e-9)


class TestBruteForceBounds:
    def test_single_predicate_identity(self):
        spec = mf.PartialJointSpec(marginals=(0.37,))
        ci = mf.brute_force_bounds(spec, mf.identity_function(1), 1e-3)
        assert ci.lo == pytest.approx(0.37, abs=1e-12)
        assert ci.hi == pytest.approx(0.37, abs=1e-12)

    def test_matches_reference_interval(self):
        spec = mf.PartialJointSpec(marginals=(0.7, 0.6))
        ci = mf.brute_force_bounds(spec, mf.and_function(), 1e-3)
        assert ci.lo == pytest.approx(0.3, abs=2e-3)
        assert ci.hi == pytest.approx(0.6, abs=2e-3)

    def test_infeasible_spec(self):
        spec = mf.PartialJointSpec(
            marginals=(0.5, 0.5, 0.5),
            pairwise={(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0},
        )
        with pytest.raises(InfeasibleSpec):
            mf.brute_force_bounds(spec, mf.and_function(3), 1e-2)

    def test_grid_step_validated(self):
        spec = mf.PartialJointSpec(marginals=(0.5, 0.5))
        for bad in (0.0, -0.01, 0.2):
            with pytest.raises(ValueError):
                mf.brute_force_bounds(spec, mf.and_function(), bad)

    def test_arity_cap(self):
        spec = mf.PartialJointSpec(marginals=(0.5,) * 5)
        with pytest.raises(ArityTooLarge):
            mf.brute_force_bounds(spec, mf.and_function(5), 0.1)

    def test_agrees_with_lp_on_random_specs(self):
        rng = np.random.default_rng(13)
        step = 0.02
        for _ in range(30):
            n = int(rng.integers(1, 4))
            _, spec = random_consistent_spec(rng, n)
            f = random_single_output(rng, n)
            exact = mf.exact_bounds(spec, f)
            oracle = mf.brute_force_bounds(spec, f, step)
            assert abs(exact.lo - oracle.lo) <= 2 * n * step
            assert abs(exact.hi - oracle.hi) <= 2 * n * step


class TestPolytopeProperties:
    def test_added_pairwise_never_widens(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = 3
            table, spec_all = random_consistent_spec(rng, n, pair_prob=1.0)
            spec_plain = mf.PartialJointSpec(marginals=spec_all.marginals)
            f = random_single_output(rng, n)
            wide = mf.exact_bounds(spec_plain, f)
            for count in range(1, 4):
                some = dict(list(sorted(spec_all.pairwise.items()))[:count])
                narrow = mf.exact_bounds(
                    mf.PartialJointSpec(marginals=spec_all.marginals, pairwise=some), f
                )
                assert narrow.lo >= wide.lo - 1e-9
                assert narrow.hi <= wide.hi + 1e-9
                wide = narrow

    def test_consistent_joints_land_inside(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            table, spec = random_consistent_spec(rng, n)
            f = random_single_output(rng, n)
            ci = mf.exact_bounds(spec, f)
            value = float(table[f.table == 1].sum())
            assert ci.contains(value, tol=1e-9)


class TestCancellation:
    def test_exact_bounds_cancelled(self):
        spec = mf.PartialJointSpec(marginals=(0.7, 0.6))
        with pytest.raises(Cancelled):
            mf.exact_bounds(spec, mf.and_function(), cancel=lambda: True)

    def test_oracle_cancelled_and_polled(self):
        spec = mf.PartialJointSpec(marginals=(0.5, 0.5, 0.5))
        calls = []

        def cancel():
            calls.append(None)
            return len(calls) > 1

        with pytest.raises(Cancelled):
            mf.brute_force_bounds(spec, mf.and_function(3), 0.01, cancel=cancel)
        assert len(calls) >= 2
