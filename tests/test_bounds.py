"""Polytope confidence bounds: LP solver vs the grid-enumeration oracle."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markov_fuzzy as mf
from markov_fuzzy import _simplex, bounds
from markov_fuzzy._common import clip01
from markov_fuzzy.bounds import ORACLE_MAX_ARITY
from markov_fuzzy.errors import (
    ArityMismatch,
    ArityTooLarge,
    BadCoordinate,
    Cancelled,
    InfeasibleQ,
    InfeasibleSpec,
    MarkovFuzzyError,
    MultiOutput,
    SchemaError,
    SolverError,
)

# scipy ignores an option that linprog does not know, with only this warning.
# Set here rather than in the pytest configuration, so that only this
# module, the one that calls linprog, loads scipy.
pytestmark = pytest.mark.filterwarnings("error::scipy.optimize.OptimizeWarning")


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


class TestSolverFailure:
    def test_maps_to_solver_error(self, monkeypatch):
        monkeypatch.setattr(_simplex, "MAX_PIVOTS", 0)
        spec = mf.PartialJointSpec(marginals=(0.7, 0.6))
        with pytest.raises(
            SolverError, match=r"LP solve failed: pivot limit \(0\) reached"
        ) as info:
            mf.exact_bounds(spec, mf.and_function())
        assert isinstance(info.value, MarkovFuzzyError)
        assert isinstance(info.value, RuntimeError)


def edge_spec(rng, n):
    """Marginals at 0, 1 or random; each pair's q (if given) at q_min, q_max
    or inside its range.  Several end-point q's together are often jointly
    infeasible."""
    marginals = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        marginals.append(float(kind) if kind < 2 else float(rng.random()))
    pairwise = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                b = mf.q_bounds(marginals[i], marginals[j])
                where = rng.integers(0, 3)
                q = (b.q_min, b.q_max, b.q_min + rng.random() * (b.q_max - b.q_min))
                pairwise[(i + 1, j + 1)] = q[where]
    return mf.PartialJointSpec(marginals=tuple(marginals), pairwise=pairwise)


def reference_bounds(spec, f):
    """Both LPs under scipy's default HiGHS settings (presolve on) with
    0 <= x <= 1; None when HiGHS proves the spec infeasible."""
    from scipy.optimize import linprog

    n = spec.arity
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    rows = [np.ones(1 << n), *bits.T]
    rows += [(bits[:, i - 1] == 0) & (bits[:, j - 1] == 0) for i, j in spec.pairwise]
    a_eq = np.array(rows, dtype=np.float64)
    b_eq = [1.0, *spec.marginals, *spec.pairwise.values()]
    values = []
    for sign in (1.0, -1.0):
        res = linprog(
            sign * f.table, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0), method="highs"
        )
        if res.status == 2:
            return None
        assert res.status == 0, res.message
        values.append(sign * res.fun)
    return values


class TestSolverEquivalence:
    def test_matches_default_highs_settings(self):
        """exact_bounds (presolve off, x >= 0 only) agrees with the default
        HiGHS solve on feasibility and on both ends, and scipy accepts its
        options without an OptimizeWarning."""
        from scipy.optimize import OptimizeWarning

        rng = np.random.default_rng(97)
        outcomes = {"feasible": 0, "infeasible": 0}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for k in range(300):
                n = k % 8 + 1
                spec = edge_spec(rng, n)
                f = mf.BooleanFunction(n, 1, rng.integers(0, 2, size=1 << n))
                want = reference_bounds(spec, f)
                if want is None:
                    with pytest.raises(InfeasibleSpec):
                        mf.exact_bounds(spec, f)
                    outcomes["infeasible"] += 1
                    continue
                ci = mf.exact_bounds(spec, f)
                assert ci.lo == pytest.approx(want[0], abs=1e-9)
                assert ci.hi == pytest.approx(want[1], abs=1e-9)
                outcomes["feasible"] += 1
        assert not [
            str(w.message) for w in caught if issubclass(w.category, OptimizeWarning)
        ]
        assert outcomes["infeasible"] >= 20 and outcomes["feasible"] >= 200

    def test_matches_highs_at_high_arity(self):
        """n = 9..12 edge specs (marginals at 0/1, q at q_min/q_max) agree
        with HiGHS on feasibility and on both ends."""
        rng = np.random.default_rng(9)
        outcomes = {"feasible": 0, "infeasible": 0}
        for k in range(32):
            n = k % 4 + 9
            spec = edge_spec(rng, n)
            f = mf.BooleanFunction(n, 1, rng.integers(0, 2, size=1 << n))
            want = reference_bounds(spec, f)
            if want is None:
                with pytest.raises(InfeasibleSpec):
                    mf.exact_bounds(spec, f)
                outcomes["infeasible"] += 1
                continue
            ci = mf.exact_bounds(spec, f)
            assert ci.lo == pytest.approx(want[0], abs=1e-9)
            assert ci.hi == pytest.approx(want[1], abs=1e-9)
            outcomes["feasible"] += 1
        assert outcomes["infeasible"] >= 4 and outcomes["feasible"] >= 16

    @pytest.mark.parametrize("n", range(1, 13))
    def test_frechet_bounds_from_marginals(self, n):
        """The n-ary and/or from marginals alone: [max(0, S - (n-1)), min p]
        and [max p, min(1, S)] with S the marginal sum."""
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            ps = np.where(rng.random(n) < 0.2, rng.integers(0, 2, n), rng.random(n))
            spec = mf.PartialJointSpec(marginals=tuple(float(p) for p in ps))
            total = float(np.sum(ps))
            ci = mf.exact_bounds(spec, mf.and_function(n))
            assert ci.lo == pytest.approx(max(0.0, total - (n - 1)), abs=1e-9)
            assert ci.hi == pytest.approx(float(ps.min()), abs=1e-9)
            ci = mf.exact_bounds(spec, mf.or_function(n))
            assert ci.lo == pytest.approx(float(ps.max()), abs=1e-9)
            assert ci.hi == pytest.approx(min(1.0, total), abs=1e-9)

    @pytest.mark.parametrize("colors", ["000000000000", "011010011101"])
    def test_fully_degenerate_spec(self, colors):
        """All marginals 1/2 and every pair at q_max = 1/2 (same color) or
        q_min = 0 (different colors): the only compatible table puts 1/2 on
        the coloring and 1/2 on its complement."""
        n = len(colors)
        pairwise = {
            (i + 1, j + 1): 0.5 if colors[i] == colors[j] else 0.0
            for i in range(n)
            for j in range(i + 1, n)
        }
        spec = mf.PartialJointSpec(marginals=(0.5,) * n, pairwise=pairwise)
        f = mf.BooleanFunction(
            n, 1, np.random.default_rng(int(colors, 2)).integers(0, 2, size=1 << n)
        )
        coloring = int(colors[::-1], 2)
        want = 0.5 * (f.table[coloring] + f.table[(1 << n) - 1 - coloring])
        ci = mf.exact_bounds(spec, f)
        assert ci.lo == pytest.approx(want, abs=1e-9)
        assert ci.hi == pytest.approx(want, abs=1e-9)

    def test_fully_degenerate_infeasible_spec(self):
        """Marginals 1/2 with every pair at q_min = 0: no two predicates are
        ever false together, so at most one is false at a time, yet the
        marginals need 6 false on average."""
        n = 12
        pairwise = {(i + 1, j + 1): 0.0 for i in range(n) for j in range(i + 1, n)}
        spec = mf.PartialJointSpec(marginals=(0.5,) * n, pairwise=pairwise)
        with pytest.raises(InfeasibleSpec):
            mf.exact_bounds(spec, mf.or_function(n))

    def test_blands_rule_alone_reaches_the_same_optimum(self, monkeypatch):
        """The anti-cycling rule, forced on every pivot, agrees with HiGHS."""
        entering = _simplex.Simplex._entering
        leaving = _simplex.Simplex._leaving_row
        monkeypatch.setattr(
            _simplex.Simplex,
            "_entering",
            staticmethod(lambda reduced, bland: entering(reduced, True)),
        )
        monkeypatch.setattr(
            _simplex.Simplex,
            "_leaving_row",
            lambda self, u, bland: leaving(self, u, True),
        )
        rng = np.random.default_rng(5)
        for k in range(40):
            n = k % 5 + 1
            spec = edge_spec(rng, n)
            f = mf.BooleanFunction(n, 1, rng.integers(0, 2, size=1 << n))
            want = reference_bounds(spec, f)
            if want is None:
                with pytest.raises(InfeasibleSpec):
                    mf.exact_bounds(spec, f)
                continue
            ci = mf.exact_bounds(spec, f)
            assert ci.lo == pytest.approx(want[0], abs=1e-9)
            assert ci.hi == pytest.approx(want[1], abs=1e-9)

    def test_simplex_on_a_fully_degenerate_vertex(self):
        """The solver itself, given every column of the coloring spec above
        (a vertex with 2 of 37 basic entries nonzero), stays under its
        pivot cap and finds the one compatible table."""
        n, coloring = 8, 0b01101001
        idx = np.arange(1 << n)
        bits = (idx[None, :] >> np.arange(n)[:, None]) & 1
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rows = [np.ones(1 << n), *bits]
        rows += [(bits[i] == 0) & (bits[j] == 0) for i, j in pairs]
        color = (coloring >> np.arange(n)) & 1
        rhs = [1.0] + [0.5] * n + [0.5 * (color[i] == color[j]) for i, j in pairs]
        lp = _simplex.Simplex(np.array(rows, dtype=np.float64), np.array(rhs))
        assert lp.feasible
        for a in (coloring, (1 << n) - 1 - coloring):
            cost = np.zeros(1 << n)
            cost[a] = 1.0
            assert lp.minimize(cost) == pytest.approx(0.5, abs=1e-12)
            assert -lp.minimize(-cost) == pytest.approx(0.5, abs=1e-12)


def count_pivots(monkeypatch):
    """Counts the pivots of `Simplex`: "all" of them, and "phase_one", the
    ones made before the first `minimize` (phase I and the drive-out of
    artificials).  Reset both before each solve."""
    counts = {"all": 0, "phase_one": None}
    pivot, minimize = _simplex.Simplex._pivot, _simplex.Simplex.minimize

    def counting_pivot(self, *args):
        counts["all"] += 1
        return pivot(self, *args)

    def first_minimize(self, cost):
        if counts["phase_one"] is None:
            counts["phase_one"] = counts["all"]
        return minimize(self, cost)

    monkeypatch.setattr(_simplex.Simplex, "_pivot", counting_pivot)
    monkeypatch.setattr(_simplex.Simplex, "minimize", first_minimize)
    return counts


def sparse_table_spec(rng, n):
    """Marginals and about 80% of the pairwise q read off a table with 5-24
    nonzero entries: zeros that only several constraints together imply."""
    table = np.zeros(1 << n)
    support = int(rng.integers(5, 25))
    table[rng.choice(1 << n, size=support, replace=False)] = rng.dirichlet(
        np.ones(support)
    )
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    marginals = tuple(float(table[bits[:, i] == 1].sum()) for i in range(n))
    pairwise = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.8:
                both_false = (bits[:, i] == 0) & (bits[:, j] == 0)
                pairwise[(i + 1, j + 1)] = float(table[both_false].sum())
    return mf.PartialJointSpec(marginals=marginals, pairwise=pairwise)


class TestChainStart:
    """exact_bounds starts phase I from the comonotone chain table."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_marginals_only_needs_no_phase_one_pivot(self, n, monkeypatch):
        """Distinct, tied and 0/1 marginals alike: the chain table is
        already a vertex, so phase I has nothing to do."""
        rng = np.random.default_rng(300 + n)
        cases = [
            rng.random(n),
            np.full(n, 0.5),
            rng.choice([0.0, 0.25, 0.25, 1.0], size=n),
            np.where(rng.random(n) < 0.4, rng.integers(0, 2, n), rng.random(n)),
            np.ones(n),
            np.zeros(n),
        ]
        counts = count_pivots(monkeypatch)
        for ps in cases:
            spec = mf.PartialJointSpec(marginals=tuple(float(p) for p in ps))
            f = random_single_output(rng, n)
            counts.update(all=0, phase_one=None)
            ci = mf.exact_bounds(spec, f)
            assert counts["phase_one"] == 0
            want = reference_bounds(spec, f)
            assert ci.lo == pytest.approx(want[0], abs=1e-9)
            assert ci.hi == pytest.approx(want[1], abs=1e-9)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_chain_basis_on_edge_specs(self, n, seed):
        """On edge specs, infeasible ones included, the start basis is
        nonsingular with every level >= -TOL, and the bounds still agree
        with HiGHS."""
        rng = np.random.default_rng(seed)
        spec = edge_spec(rng, n)
        f = mf.BooleanFunction(n, 1, rng.integers(0, 2, size=1 << n))
        starts = []

        class Recording(_simplex.Simplex):
            def __init__(self, a, b, basis=None):
                starts.append((a, b.copy(), np.array(basis)))
                super().__init__(a, b, basis)

        with mock.patch.object(bounds, "Simplex", Recording):
            try:
                ci = mf.exact_bounds(spec, f)
            except InfeasibleSpec:
                ci = None
        for a, b, basis in starts:
            m = len(b)
            matrix = np.hstack((a, np.eye(m)))[:, basis]
            assert np.linalg.matrix_rank(matrix) == m
            assert np.linalg.solve(matrix, b).min() >= -_simplex.TOL
        want = reference_bounds(spec, f)
        if want is None:
            assert ci is None
        else:
            assert ci.lo == pytest.approx(want[0], abs=1e-9)
            assert ci.hi == pytest.approx(want[1], abs=1e-9)

    def test_sparse_table_specs(self):
        """Specs whose zeros no single constraint explains stall Dantzig
        pricing on degenerate vertices; they still solve, and agree with
        HiGHS."""
        rng = np.random.default_rng(2)
        for k in range(9):
            n = 10 + k % 3
            spec = sparse_table_spec(rng, n)
            f = mf.BooleanFunction(n, 1, rng.integers(0, 2, size=1 << n))
            ci = mf.exact_bounds(spec, f)
            want = reference_bounds(spec, f)
            assert ci.lo == pytest.approx(want[0], abs=1e-9)
            assert ci.hi == pytest.approx(want[1], abs=1e-9)


class TestFinalCheck:
    def test_false_optimum_on_an_updated_inverse_pivots_on(self, monkeypatch):
        """Pricing that finds no improving column right after each pivot,
        before the inverse is recomputed, is checked rather than trusted:
        the check refactors and pivots on, to the same optimum."""
        pivot, refactor = _simplex.Simplex._pivot, _simplex.Simplex._refactor
        entering = _simplex.Simplex._entering
        stale = []

        def marking_pivot(self, *args):
            stale.append(True)
            return pivot(self, *args)

        def clearing_refactor(self):
            stale.clear()
            refactor(self)

        def false_entering(reduced, bland):
            return -1 if stale else entering(reduced, bland)

        monkeypatch.setattr(_simplex.Simplex, "_pivot", marking_pivot)
        monkeypatch.setattr(_simplex.Simplex, "_refactor", clearing_refactor)
        monkeypatch.setattr(
            _simplex.Simplex, "_entering", staticmethod(false_entering)
        )
        rng = np.random.default_rng(11)
        for k in range(40):
            n = k % 6 + 2
            spec = edge_spec(rng, n)
            f = mf.BooleanFunction(n, 1, rng.integers(0, 2, size=1 << n))
            want = reference_bounds(spec, f)
            if want is None:
                with pytest.raises(InfeasibleSpec):
                    mf.exact_bounds(spec, f)
                continue
            ci = mf.exact_bounds(spec, f)
            assert ci.lo == pytest.approx(want[0], abs=1e-9)
            assert ci.hi == pytest.approx(want[1], abs=1e-9)
