"""Polytope confidence bounds: LP solver vs the grid-enumeration oracle."""

import contextlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
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
    InvalidBelief,
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
    def test_belief_noise_clamped(self):
        """A marginal within EPS_SIMPLEX of [0, 1] is clamped to its end."""
        spec = mf.PartialJointSpec((-mf.EPS_SIMPLEX, -1e-10, 1.0 + mf.EPS_SIMPLEX))
        assert spec.marginals == (0.0, 0.0, 1.0)
        with pytest.raises(InvalidBelief):
            mf.PartialJointSpec((-2 * mf.EPS_SIMPLEX, 0.5))

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

    def test_numpy_integer_coordinates(self):
        """Any integer type names a coordinate; a float or a bool does not
        (see `tests/test_errors.py`)."""
        key = (np.int64(2), np.uint8(1))
        spec = mf.PartialJointSpec(marginals=(0.7, 0.6), pairwise={key: 0.12})
        assert spec.pairwise == {(1, 2): pytest.approx(0.12)}
        assert all(type(c) is int for c in next(iter(spec.pairwise)))

    def test_numpy_bool_marginal_is_refused(self):
        """A numpy bool is a bool, not the number 1.0 or 0.0, as Python's
        is (see `tests/test_errors.py`)."""
        for flag in (np.True_, np.False_):
            with pytest.raises(InvalidBelief, match="marginal 1 must be a number"):
                mf.PartialJointSpec((flag, 0.5))

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

    def test_zero_maximum_is_positive_zero(self):
        """The max end is the negated min of the negated cost; a zero
        there comes back as +0.0, not -0.0."""
        p1, p2, q = 0.7020217104975492, 1e-13, 0.2979782895024276
        spec = mf.PartialJointSpec(marginals=(p1, p2), pairwise={(1, 2): q})
        # A formula that rereads P1 reaches an LP over three variables.
        wider = mf.PartialJointSpec(marginals=(p1, p2, 0.5), pairwise={(1, 2): q})
        rereading = compiled("P1 & P2 & (P1 | P3)")
        for given, f in ((spec, mf.and_function()), (wider, rereading)):
            ci = mf.exact_bounds(given, f)
            assert (ci.lo, ci.hi) == (0.0, 0.0)
            assert math.copysign(1.0, ci.hi) == 1.0
        # The compiled two-variable and reaches no LP: it is the both-true
        # cell at the spec's own q, which the LP's snapping of 1e-13 to 0
        # does not see.
        cell = p1 + p2 - 1.0 + q
        ci = mf.exact_bounds(spec, compiled("P1 & P2"))
        assert (ci.lo, ci.hi) == (cell, cell)

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


@st.composite
def oracle_specs(draw):
    """A function and a spec read off a joint table over 1-4 variables.
    Dense tables weigh every cell 1-9, sparse ones 0-2, so that some cells
    are empty and some q sit at an end of their range.  Each pair is given
    or not; or the spec gives only pair (1, 2), at one end of its range."""
    n = draw(st.integers(1, ORACLE_MAX_ARITY))
    low, high = draw(st.sampled_from(((1, 9), (0, 2))))
    weights = draw(st.lists(st.integers(low, high), min_size=1 << n, max_size=1 << n))
    table = np.array(weights, dtype=float) + (sum(weights) == 0)
    table /= table.sum()
    idx = np.arange(1 << n)
    marginals = tuple(float(table[(idx >> i) & 1 == 1].sum()) for i in range(n))
    end = draw(st.sampled_from(("q_min", "q_max", None))) if n >= 2 else None
    if end is not None:
        pairwise = {(1, 2): getattr(mf.q_bounds(*marginals[:2]), end)}
    else:
        pairwise = {
            (i + 1, j + 1): float(table[((idx >> i) | (idx >> j)) & 1 == 0].sum())
            for i, j in itertools.combinations(range(n), 2)
            if draw(st.booleans())
        }
    spec = mf.PartialJointSpec(marginals=marginals, pairwise=pairwise)
    truth = draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    return spec, mf.BooleanFunction(n, 1, truth)


class TestVertexOracle:
    """The oracle enumerates the vertices of the spec's polytope, so with a
    tiny slack it is exact, and with any slack it contains the exact
    interval."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(oracle_specs())
    def test_tiny_slack_is_exact(self, case):
        spec, f = case
        exact = mf.exact_bounds(spec, f)
        oracle = mf.brute_force_bounds(spec, f, 1e-9)
        assert oracle.lo == pytest.approx(exact.lo, abs=1e-9)
        assert oracle.hi == pytest.approx(exact.hi, abs=1e-9)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(oracle_specs(), st.sampled_from((0.1, 0.02)))
    def test_contains_the_exact_interval(self, case, step):
        spec, f = case
        exact = mf.exact_bounds(spec, f)
        oracle = mf.brute_force_bounds(spec, f, step)
        assert oracle.lo <= exact.lo + 1e-12
        assert oracle.hi >= exact.hi - 1e-12

    @pytest.mark.parametrize(
        "marginals, pairwise",
        [
            ((1 / 3, 1 / 3), {(1, 2): 1 / 3}),
            ((2 / 3, 1 / 3), {(1, 2): 0.0}),
            ((4 / 7, 2 / 7, 2 / 7), {(1, 2): 3 / 7, (1, 3): 1 / 7}),
            ((3 / 7, 2 / 7, 0.7142857142857142), {(1, 3): 1 / 7}),
        ],
    )
    def test_round_off_on_empty_cells_is_forgiven(self, marginals, pairwise):
        """These specs leave cells empty, which round-off computes as about
        -1e-17; the slack's floor of FEASIBILITY_TOL keeps those tables
        even at a step of 1e-300."""
        spec = mf.PartialJointSpec(marginals=marginals, pairwise=pairwise)
        f = mf.and_function(len(marginals))
        exact = mf.exact_bounds(spec, f)
        oracle = mf.brute_force_bounds(spec, f, 1e-300)
        assert oracle.lo == pytest.approx(exact.lo, abs=1e-12)
        assert oracle.hi == pytest.approx(exact.hi, abs=1e-12)

    def test_cancel_is_polled_once_per_chunk(self):
        """At n = 4 with marginals only, 11 parameters are free: C(16, 11)
        square systems in several chunks, after the poll on entry."""
        spec = mf.PartialJointSpec(marginals=(0.5, 0.4, 0.3, 0.2))
        calls = []

        def cancel():
            calls.append(None)
            return False

        mf.brute_force_bounds(spec, mf.and_function(4), 0.01, cancel=cancel)
        chunks = math.ceil(math.comb(16, 11) / bounds._CHUNK)
        assert chunks > 1
        assert len(calls) == 1 + chunks

    def test_reaches_no_lp_machinery(self):
        """The oracle is an independent check: it runs with the simplex and
        every helper of the LP path made to raise."""

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle reached the LP machinery")

        rng = np.random.default_rng(24)
        cases = []
        for n in range(1, ORACLE_MAX_ARITY + 1):
            _, spec = random_consistent_spec(rng, n)
            cases.append((spec, random_single_output(rng, n)))
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(_simplex, "Simplex", refuse))
            for name in ("_lp_bounds", "_glued_basis", "_bit_table", "_snapped"):
                stack.enter_context(mock.patch.object(bounds, name, refuse))
            oracles = [mf.brute_force_bounds(spec, f, 1e-9) for spec, f in cases]
        for (spec, f), oracle in zip(cases, oracles):
            exact = mf.exact_bounds(spec, f)
            assert oracle.lo == pytest.approx(exact.lo, abs=1e-9)
            assert oracle.hi == pytest.approx(exact.hi, abs=1e-9)


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

    def test_blands_rule_ends_chvatals_cycle(self, monkeypatch):
        """Chvatal's (1983) LP: max 10x1 - 57x2 - 9x3 - 24x4 subject to
        0.5x1 - 5.5x2 - 2.5x3 + 9x4 <= 0, 0.5x1 - 1.5x2 - 0.5x3 + x4 <= 0
        and x1 <= 1, from the slack basis.  Dantzig's rule with this ratio
        test revisits a basis there; the switch to Bland's rule reaches
        the maximum 1 in 13 pivots, and without it the solve cycles to
        the pivot cap, here lowered so that it fails at once."""
        entering = _simplex.Simplex._entering
        bland_pricings = []

        def counting_entering(reduced, bland):
            bland_pricings.append(bland)
            return entering(reduced, bland)

        monkeypatch.setattr(
            _simplex.Simplex, "_entering", staticmethod(counting_entering)
        )
        monkeypatch.setattr(_simplex, "MAX_PIVOTS", 100)
        a = np.array(
            [
                [0.5, -5.5, -2.5, 9.0, 1.0, 0.0, 0.0],
                [0.5, -1.5, -0.5, 1.0, 0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        lp = _simplex.Simplex(
            np.hstack((a, np.eye(3))), np.array([0.0, 0.0, 1.0]), np.array([4, 5, 6])
        )
        assert lp.feasible
        cost = np.array([-10.0, 57.0, 9.0, 24.0, 0.0, 0.0, 0.0])
        assert lp.minimize(cost) == pytest.approx(-1.0, abs=1e-12)
        assert any(bland_pricings)

    def test_ratio_test_with_one_candidate_row(self, monkeypatch):
        """A pivot whose entering column is positive in one row alone takes
        that row.  Over the probability simplex (one row of ones), min c.x
        is min(c) and max c.x is max(c)."""
        leaving = _simplex.Simplex._leaving_row
        candidates = []

        def counting_leaving(self, u, bland):
            candidates.append(int((u > _simplex.TOL).sum()))
            return leaving(self, u, bland)

        monkeypatch.setattr(_simplex.Simplex, "_leaving_row", counting_leaving)
        cost = np.array([3.0, 1.0, 2.0, 0.5, 4.0])
        a = np.hstack((np.ones((1, cost.size)), np.eye(1)))
        lp = _simplex.Simplex(a, np.array([1.0]), np.array([0]))
        assert lp.feasible
        assert lp.minimize(cost) == cost.min()
        assert -lp.minimize(-cost) == cost.max()
        assert candidates == [1, 1]

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
        lp = _simplex.Simplex(
            np.hstack((np.array(rows, dtype=np.float64), np.eye(len(rows)))),
            np.array(rhs),
            np.arange(1 << n, (1 << n) + len(rows)),  # one artificial per row
        )
        assert lp.feasible
        for a in (coloring, (1 << n) - 1 - coloring):
            cost = np.zeros(1 << n)
            cost[a] = 1.0
            assert lp.minimize(cost) == pytest.approx(0.5, abs=1e-12)
            assert -lp.minimize(-cost) == pytest.approx(0.5, abs=1e-12)


    # The n = 2 bounds LP: rows sum, P1, P2 and the both-false pair cell
    # over the table entries FF, TF, FT, TT (bit 0 is P1).
    PAIR_ROWS = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 0, 0, 0]]

    def test_artificial_below_zero_starts_on_its_negated_column(self):
        """From the chain table of p = (0.6, 0.5), FF holds 0.4, so the
        artificial of the pair row at q = 0.2 starts at -0.2: its column is
        negated in place, e_3 becomes -e_3, and phase I starts it at 0.2.
        b and the structural block are only read.  The one table left has
        TT = and_q(0.6, 0.5, 0.2)."""
        a = np.hstack((np.array(self.PAIR_ROWS, dtype=np.float64), np.eye(4)))
        b = np.array([1.0, 0.6, 0.5, 0.2])
        lp = _simplex.Simplex(a, b, np.array([0, 1, 3, 4 + 3]))
        assert b.tolist() == [1.0, 0.6, 0.5, 0.2]
        assert a[:, :4].tolist() == self.PAIR_ROWS
        assert a[3, 7] == -1.0
        assert (a[:, 4:] == np.diag([1.0, 1.0, 1.0, -1.0])).all()
        assert lp.feasible
        cost = np.array([0.0, 0.0, 0.0, 1.0])
        want = mf.and_q(0.6, 0.5, 0.2)
        assert lp.minimize(cost) == pytest.approx(want, abs=1e-15)
        assert -lp.minimize(-cost) == pytest.approx(want, abs=1e-15)

    def test_structural_below_tol_is_an_infeasible_start(self):
        """FF, TF and FT basic for p = (0.6, 0.5) put FF at 1 - 1.1."""
        a = np.hstack((np.array(self.PAIR_ROWS[:3], dtype=np.float64), np.eye(3)))
        with pytest.raises(SolverError, match=r"start basis infeasible by 0\.1"):
            _simplex.Simplex(a, np.array([1.0, 0.6, 0.5]), np.array([0, 1, 2]))

    def test_start_basis_with_two_equal_columns_is_singular(self):
        a = np.hstack((np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 3.0]]), np.eye(2)))
        with pytest.raises(SolverError, match=r"^LP solve failed: singular basis$"):
            _simplex.Simplex(a, np.array([1.0, 1.0]), np.array([0, 1]))

    def test_unbounded_direction_is_an_error(self):
        """min -x0 subject to x0 - x1 = 0: x0 = x1 = t is feasible for every
        t >= 0, and x1 entering has no row to leave."""
        a = np.hstack((np.array([[1.0, -1.0]]), np.eye(1)))
        lp = _simplex.Simplex(a, np.array([0.0]), np.array([0]))
        assert lp.feasible
        with pytest.raises(
            SolverError, match=r"^LP solve failed: unbounded direction$"
        ):
            lp.minimize(np.array([-1.0, 0.0]))

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


def count_phase_one(monkeypatch):
    """Records each phase I run of `Simplex`: an `_iterate` whose cost
    charges the artificial columns, which phase II's costs never do."""
    runs = []
    iterate = _simplex.Simplex._iterate

    def recording_iterate(self, cost):
        if cost[self._n :].any():
            runs.append(None)
        return iterate(self, cost)

    monkeypatch.setattr(_simplex.Simplex, "_iterate", recording_iterate)
    return runs


def recorded_starts(spec, f):
    """exact_bounds(spec, f), or None for an infeasible spec, and each LP's
    start as `Simplex` solves it: A once the columns of the artificials
    below zero are negated in place, b, the start basis, and the rows
    whose artificial flipped."""
    starts = []

    class Recording(_simplex.Simplex):
        def __init__(self, a, b, basis):
            given_a = a.copy()
            super().__init__(a, b, basis)
            flipped = np.flatnonzero((a != given_a).any(axis=1))
            starts.append((a.copy(), b.copy(), np.array(basis), flipped))

    with mock.patch.object(_simplex, "Simplex", Recording):
        try:
            ci = mf.exact_bounds(spec, f)
        except InfeasibleSpec:
            ci = None
    return ci, starts


def start_levels(a, b, basis):
    """The levels of `basis` in a x = b, checked: the basis is nonsingular,
    and in the system `Simplex` oriented every level is >= -TOL."""
    matrix = a[:, basis]
    assert np.linalg.matrix_rank(matrix) == len(b)
    levels = np.linalg.solve(matrix, b)
    assert levels.min() >= -_simplex.TOL
    return levels


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

    def test_chain_basis_on_edge_specs(self):
        """On edge specs, infeasible ones included, the start basis is
        nonsingular with every level >= -TOL once `Simplex` has flipped
        the columns of its artificials below zero, which some starts do, and
        the bounds still agree with HiGHS."""
        flipped = []

        @settings(derandomize=True, deadline=None, max_examples=100)
        @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
        def check(n, seed):
            rng = np.random.default_rng(seed)
            spec = edge_spec(rng, n)
            f = mf.BooleanFunction(n, 1, rng.integers(0, 2, size=1 << n))
            ci, starts = recorded_starts(spec, f)
            for a, b, basis, rows in starts:
                start_levels(a, b, basis)
                flipped.extend(rows)
            want = reference_bounds(spec, f)
            if want is None:
                assert ci is None
            else:
                assert ci.lo == pytest.approx(want[0], abs=1e-9)
                assert ci.hi == pytest.approx(want[1], abs=1e-9)

        check()
        assert flipped

    @pytest.mark.parametrize("n", range(2, 13))
    def test_comonotone_end_makes_no_pivot(self, n, monkeypatch):
        """Both ends start at the chain table, the comonotone vertex: the
        max of an and chain and the min of an or chain are already there.
        A marginals-only spec without a 0/1 marginal has no artificial in
        its start basis, so phase I does not even price."""
        per_end = []
        pivot, minimize = _simplex.Simplex._pivot, _simplex.Simplex.minimize

        def counting_pivot(self, *args):
            per_end[-1] += 1
            return pivot(self, *args)

        def counting_minimize(self, cost):
            per_end.append(0)
            return minimize(self, cost)

        monkeypatch.setattr(_simplex.Simplex, "_pivot", counting_pivot)
        monkeypatch.setattr(_simplex.Simplex, "minimize", counting_minimize)
        phase_one = count_phase_one(monkeypatch)
        rng = np.random.default_rng(400 + n)
        for _ in range(3):
            ps = rng.uniform(0.05, 0.95, n)
            spec = mf.PartialJointSpec(marginals=tuple(float(p) for p in ps))
            for f, comonotone_end, want in (
                (mf.and_function(n), 1, float(ps.min())),
                (mf.or_function(n), 0, float(ps.max())),
            ):
                per_end.clear()
                ci = mf.exact_bounds(spec, f)
                assert len(per_end) == 2
                assert per_end[comonotone_end] == 0
                assert (ci.lo, ci.hi)[comonotone_end] == pytest.approx(want, abs=1e-12)
        assert not phase_one

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


def pair_graph_spec(rng, n, cyclic):
    """Marginals of a random table with pairs along a random forest; with
    `cyclic`, more pairs that close cycles, their q read off the table or
    (then often jointly infeasible) drawn anywhere in its range."""
    table = rng.dirichlet(np.ones(1 << n))
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    marginals = [float(table[bits[:, i] == 1].sum()) for i in range(n)]
    chosen = {(int(rng.integers(0, v)), v) for v in range(1, n) if rng.random() < 0.8}
    if cyclic and n > 2:
        for _ in range(int(rng.integers(1, n + 1))):
            i, j = sorted(int(c) for c in rng.choice(n, size=2, replace=False))
            chosen.add((i, j))
    pairwise = {}
    for i, j in sorted(chosen):
        q = float(table[(bits[:, i] == 0) & (bits[:, j] == 0)].sum())
        if cyclic and rng.random() < 0.3:
            b = mf.q_bounds(marginals[i], marginals[j])
            q = b.q_min + rng.random() * (b.q_max - b.q_min)
        pairwise[(i + 1, j + 1)] = q
    return mf.PartialJointSpec(marginals=tuple(marginals), pairwise=pairwise)


def spanning_forest(n, pairs):
    """Indices of the sorted pairs that join two trees of the pairs before
    them; the others close a cycle."""
    tree = list(range(n))

    def root(i):
        while tree[i] != i:
            i = tree[i]
        return i

    forest = []
    for k, ((i, j), _) in enumerate(pairs):
        a, b = root(i - 1), root(j - 1)
        if a != b:
            tree[a] = b
            forest.append(k)
    return forest


def has_empty_cell(spec, pair):
    (i, j), q = pair
    cells = [q, (1 - spec.marginals[j - 1]) - q, (1 - spec.marginals[i - 1]) - q]
    cells.append(spec.marginals[i - 1] + spec.marginals[j - 1] - 1 + q)
    return min(cells) <= 1e-12


class TestGluedStart:
    """Each LP starts at a table glued from the pair tables along a
    spanning forest of the pair graph."""

    def test_start_basis(self):
        """The start basis is nonsingular with every level >= -TOL once
        `Simplex` has flipped the columns of its artificials below zero, which
        some starts do, and the start table meets every forest pair's row,
        unless a pair that closes a cycle has an empty cell (then the start
        may be the chain table); the bounds agree with HiGHS."""
        flipped = []

        @settings(derandomize=True, deadline=None, max_examples=150)
        @given(
            st.integers(1, 8),
            st.sampled_from(("forest", "cyclic", "edge")),
            st.integers(0, 2**32 - 1),
        )
        def check(n, kind, seed):
            rng = np.random.default_rng(seed)
            if kind == "edge":
                spec = edge_spec(rng, n)
            else:
                spec = pair_graph_spec(rng, n, kind == "cyclic")
            f = mf.BooleanFunction(n, 1, rng.integers(0, 2, size=1 << n))
            ci, starts = recorded_starts(spec, f)
            pairs = sorted(spec.pairwise.items())
            forest = spanning_forest(n, pairs)
            glued = not any(
                has_empty_cell(spec, pair)
                for k, pair in enumerate(pairs)
                if k not in forest
            )
            for a, b, basis, rows in starts:  # one LP: f is a raw table
                size = a.shape[1] - len(b)  # the artificials are the last columns
                levels = start_levels(a, b, basis)
                flipped.extend(rows)
                artificial = basis >= size
                if glued:
                    row_level = dict(zip(basis[artificial] - size, levels[artificial]))
                    for k in forest:
                        assert abs(row_level.get(n + 1 + k, 0.0)) <= _simplex.TOL
            want = reference_bounds(spec, f)
            if want is None:
                assert ci is None
            else:
                assert ci.lo == pytest.approx(want[0], abs=1e-9)
                assert ci.hi == pytest.approx(want[1], abs=1e-9)

        check()
        assert flipped

    @pytest.mark.parametrize("n", range(2, 13))
    def test_forest_specs_run_no_phase_one(self, n, monkeypatch):
        """Pairs that form a forest, read off a table with no empty cell:
        the glued table meets every row, so the start basis holds no
        artificial and phase I neither prices nor pivots."""
        counts = count_pivots(monkeypatch)
        phase_one = count_phase_one(monkeypatch)
        rng = np.random.default_rng(500 + n)
        for _ in range(3):
            spec = pair_graph_spec(rng, n, cyclic=False)
            f = random_single_output(rng, n)
            counts.update(all=0, phase_one=None)
            ci = mf.exact_bounds(spec, f)
            assert counts["phase_one"] == 0
            want = reference_bounds(spec, f)
            assert ci.lo == pytest.approx(want[0], abs=1e-9)
            assert ci.hi == pytest.approx(want[1], abs=1e-9)
        assert not phase_one


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

    def test_false_optimum_on_a_fresh_inverse_is_an_error(self, monkeypatch):
        """Pricing that never finds an improving column: the first check
        runs on the start basis's fresh inverse, where the chain table is
        not the min of an and, and must not trust pricing."""
        monkeypatch.setattr(
            _simplex.Simplex, "_entering", staticmethod(lambda reduced, bland: -1)
        )
        spec = mf.PartialJointSpec(marginals=(0.7, 0.6))
        with pytest.raises(
            SolverError, match=r"LP solve failed: final basis not optimal, reduced cost"
        ):
            mf.exact_bounds(spec, mf.and_function())


class TestBitTable:
    def test_cached_table_is_read_only(self):
        for n in (1, 5, 12):
            bits = bounds._bit_table(n)
            assert bits is bounds._bit_table(n)
            assert not bits.flags.writeable
            with pytest.raises(ValueError):
                bits[0, 0] = True

    # The pairs form a 4-cycle; (3, 4), sorted last, closes it, and the
    # glued table puts more than its q on the pair's both-false cell, so
    # `Simplex` orients the artificial of its row, 8 (and only that one:
    # the glued table meets the other three pair rows, 5-7).
    CYCLE = mf.PartialJointSpec(
        marginals=(0.6, 0.5, 0.55, 0.45),
        pairwise={(1, 2): 0.05, (2, 3): 0.1, (3, 4): 0.15, (1, 4): 0.2},
    )

    def test_oriented_pair_rows_leave_the_next_solve_unchanged(self):
        """The 4-cycle's start flips the artificial of row 8 only.  The next
        solve at the same arity matches a fresh process bit for bit."""
        _, starts = recorded_starts(self.CYCLE, mf.or_function(4))
        a, b, _, flipped = starts[0]
        assert flipped.tolist() == [8]
        artificials = np.diag(a[:, a.shape[1] - len(b) :])
        assert (artificials[5:8] == 1.0).all() and artificials[8] == -1.0

        here = {}
        exec(NEXT_SOLVE, here)
        fresh = subprocess.run(
            [sys.executable, "-c", NEXT_SOLVE + "print(result)"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert here["result"] == fresh.stdout.strip()

    def test_oriented_start_only_reads_b_and_the_structural_block(self):
        """Orienting the 4-cycle's start writes one entry, the artificial of
        row 8: b and the structural block are the bytes `_lp_bounds` built."""
        given = []

        class Recording(_simplex.Simplex):
            def __init__(self, a, b, basis):
                given.append((a.copy(), b.copy()))
                super().__init__(a, b, basis)
                given.append((a, b))

        with mock.patch.object(_simplex, "Simplex", Recording):
            mf.exact_bounds(self.CYCLE, mf.or_function(4))
        (a0, b0), (a, b) = given
        size = a.shape[1] - len(b)
        assert b.tobytes() == b0.tobytes()
        assert a[:, :size].tobytes() == a0[:, :size].tobytes()
        assert np.argwhere(a != a0).tolist() == [[8, size + 8]]


NEXT_SOLVE = """
import markov_fuzzy as mf
spec = mf.PartialJointSpec(marginals=(0.3, 0.8, 0.4, 0.65))
f = mf.BooleanFunction(4, 1, [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1])
ci = mf.exact_bounds(spec, f)
result = f"{ci.lo!r} {ci.hi!r}"
"""


class TestNearlyCertainMarginals:
    """A marginal within EPS_FEAS of 0 or 1 is that end in the LP, and each
    q is then moved into its range, so that a certain answer is exact."""

    #: Point 5 is certain; point 4 is 1e-13 short of it, and pair (1, 4) has
    #: a both-false mass below EPS_FEAS.
    SPEC = mf.PartialJointSpec(
        marginals=(
            0.5,
            0.26679063537280756,
            0.8288624517731875,
            0.9999999999999,
            1.0000000001,
            0.12404357351052353,
        ),
        pairwise={(3, 5): 0.0, (1, 4): 2.7659537124151384e-14, (2, 3): 0.12294335346181964},
    )

    def test_a_certain_point_makes_the_or_certain_by_every_route(self):
        names = [f"P{i}" for i in range(1, 7)]
        formula = compiled(" | ".join(names), names)
        table = mf.BeliefTable(
            tuple(names),
            dict(zip(names, self.SPEC.marginals)),
            {(names[i - 1], names[j - 1]): q for (i, j), q in self.SPEC.pairwise.items()},
        )
        for ci in (
            mf.exact_bounds(self.SPEC, mf.or_function(6)),
            mf.exact_bounds(self.SPEC, formula),
            mf.exists_bounds(table),
        ):
            assert (ci.lo, ci.hi) == (1.0, 1.0)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.integers(2, 6),
        st.sampled_from((0, 1)),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_a_nearly_certain_marginal_settles_the_gate(self, n, end, off, seed):
        """Point k of a random table is always `end`; the spec moves its
        marginal off that end by up to EPS_FEAS, and the q of each of its
        given pairs into the range by up to as much.  Then the "or" of a
        nearly certain point is 1, and the "and" of a nearly impossible
        point is 0, to 1e-15."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, n))
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        table = rng.dirichlet(np.ones(1 << n)) * (bits[:, k] == end)
        table /= table.sum()
        marginals = [float(table[bits[:, i] == 1].sum()) for i in range(n)]
        shift = off * mf.EPS_FEAS
        marginals[k] = 1.0 - shift if end else shift
        pairwise = {}
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                q = float(table[(bits[:, i] == 0) & (bits[:, j] == 0)].sum())
                if k in (i, j):
                    q += rng.random() * shift * (1 if end else -1)
                pairwise[(i + 1, j + 1)] = q
        spec = mf.PartialJointSpec(marginals=tuple(marginals), pairwise=pairwise)
        if end:
            assert mf.exact_bounds(spec, mf.or_function(n)).lo >= 1.0 - 1e-15
        else:
            assert mf.exact_bounds(spec, mf.and_function(n)).hi <= 1e-15

    def test_a_tiny_pair_cell_stays_in_the_lp(self):
        """Marginals 5e-13 apart with q at the end of its range leave the
        both-true cell 5e-13 short of the other corner: P(both) is exactly
        p1 + p2 - 1 + q = 0.5, and the cell of mass 5e-13 (within EPS_FEAS
        but not empty) must stay in the LP."""
        q = 0.5 - 5e-13
        spec = mf.PartialJointSpec((0.5, 0.5 + 5e-13), {(1, 2): q})
        for f in (mf.and_function(), compiled("P1 & P2")):
            ci = mf.exact_bounds(spec, f)
            assert (ci.lo, ci.hi) == (0.5, 0.5)
        for f in (mf.or_function(), compiled("P1 | P2")):
            ci = mf.exact_bounds(spec, f)
            assert (ci.lo, ci.hi) == (1.0 - q, 1.0 - q)


# ---------------------------------------------------------------------------
# Decomposition of compiled formulas
# ---------------------------------------------------------------------------

from markov_fuzzy import And, Implies, Not, Or, Var  # noqa: E402


def compiled(text, ordering=None):
    ast = mf.parse_formula(text)
    return mf.compile_formula(ast, ordering or mf.formula_variables(ast))


@pytest.fixture
def simplex_log(monkeypatch):
    """Counts `Simplex` constructions ("made") and `minimize` calls
    ("ends") in `exact_bounds`."""
    log = {"made": 0, "ends": 0}

    class Counting(_simplex.Simplex):
        def __init__(self, *args):
            log["made"] += 1
            super().__init__(*args)

        def minimize(self, cost):
            log["ends"] += 1
            return super().minimize(cost)

    monkeypatch.setattr(_simplex, "Simplex", Counting)
    return log


NAMES = ("a", "b", "c", "d", "e", "f")
CONNECTIVES = (And, Or, Implies)


def formulas_over(names):
    """Formula trees over `names`; variables are often read twice."""
    return st.recursive(
        st.sampled_from(names).map(Var),
        lambda sub: st.one_of(
            sub.map(Not),
            st.builds(lambda op, a, b: op(a, b), st.sampled_from(CONNECTIVES), sub, sub),
        ),
        max_leaves=12,
    )


def random_read_once(rng, names):
    """A read-once tree over `names`, each wrapped in a negation with
    probability 0.2."""
    if len(names) == 1:
        node = Var(names[0])
    else:
        cut = int(rng.integers(1, len(names)))
        op = CONNECTIVES[int(rng.integers(3))]
        node = op(random_read_once(rng, names[:cut]), random_read_once(rng, names[cut:]))
    return Not(node) if rng.random() < 0.2 else node


def sibling_leaves(node):
    """The (left, right) names of every binary node over two variables."""
    if isinstance(node, Var):
        return []
    if isinstance(node, Not):
        return sibling_leaves(node.child)
    if isinstance(node.left, Var) and isinstance(node.right, Var):
        return [(node.left.name, node.right.name)]
    return sibling_leaves(node.left) + sibling_leaves(node.right)


Q_CONNECTIVE = {And: mf.and_q, Or: mf.or_q, Implies: mf.implies_q}


def read_once_interval(node, ps, qs):
    """The exact interval of a read-once formula by the binary Frechet
    rules, a leaf pair with a known q taking its q connective's value."""
    if isinstance(node, Var):
        return ps[node.name], ps[node.name]
    if isinstance(node, Not):
        lo, hi = read_once_interval(node.child, ps, qs)
        return 1.0 - hi, 1.0 - lo
    names = (getattr(node.left, "name", None), getattr(node.right, "name", None))
    if names in qs:
        value = Q_CONNECTIVE[type(node)](ps[names[0]], ps[names[1]], qs[names])
        return value, value
    (a, b), (c, d) = (read_once_interval(x, ps, qs) for x in (node.left, node.right))
    if isinstance(node, And):
        return max(0.0, a + c - 1.0), min(b, d)
    if isinstance(node, Or):
        return max(a, c), min(1.0, b + d)
    return max(1.0 - b, c), min(1.0, 1.0 - a + d)


class TestDecomposition:
    """A compiled formula is bounded part by part; raw tables take one LP."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(1, 6), st.data(), st.integers(0, 2**32 - 1))
    def test_matches_one_lp_on_the_same_table(self, n, data, seed):
        rng = np.random.default_rng(seed)
        ast = data.draw(formulas_over(NAMES[:n]))
        ordering = list(NAMES[:n])
        rng.shuffle(ordering)
        if seed % 2:
            spec = edge_spec(rng, n)
        else:
            spec = random_consistent_spec(rng, n, pair_prob=rng.random())[1]
        f = mf.compile_formula(ast, ordering)
        outcomes = []
        for g in (f, mf.BooleanFunction(n, 1, f.table)):
            try:
                outcomes.append(mf.exact_bounds(spec, g))
            except InfeasibleSpec:
                outcomes.append(None)
        split, whole = outcomes
        if whole is None:
            assert split is None
        else:
            assert split.lo == pytest.approx(whole.lo, abs=1e-9)
            assert split.hi == pytest.approx(whole.hi, abs=1e-9)

    @pytest.mark.parametrize("n", range(13, 25))
    def test_read_once_above_the_lp_cap(self, n, simplex_log):
        """Read-once formulas over 13-24 variables, marginals only or with
        the q of some pairs of sibling leaves, against the recursion.  Each
        such pair is a two-variable part, which takes its q connective's
        closed form: nothing reaches the solver."""
        rng = np.random.default_rng(n)
        names = [f"x{i}" for i in range(n)]
        for _ in range(4):
            ast = random_read_once(rng, names)
            certain = rng.integers(0, 2, n).astype(float)
            ps = dict(zip(names, np.where(rng.random(n) < 0.1, certain, rng.random(n))))
            qs = {}
            for left, right in sibling_leaves(ast):
                if rng.random() < 0.5:
                    b = mf.q_bounds(ps[left], ps[right])
                    qs[left, right] = b.q_min + rng.random() * (b.q_max - b.q_min)
            ordering = list(names)
            rng.shuffle(ordering)
            coordinate = {name: k + 1 for k, name in enumerate(ordering)}
            spec = mf.PartialJointSpec(
                marginals=tuple(ps[name] for name in ordering),
                pairwise={(coordinate[a], coordinate[b]): q for (a, b), q in qs.items()},
            )
            ci = mf.exact_bounds(spec, mf.compile_formula(ast, ordering))
            lo, hi = read_once_interval(ast, ps, qs)
            assert ci.lo == pytest.approx(lo, abs=1e-12)
            assert ci.hi == pytest.approx(hi, abs=1e-12)
        assert simplex_log["made"] == 0

    def test_unread_variables_with_conflicting_pairs(self):
        """c, d, e are never read, but their pairs admit no joint."""
        f = compiled("a & b", ["a", "b", "c", "d", "e"])
        spec = mf.PartialJointSpec(
            marginals=(0.5,) * 5, pairwise={(3, 4): 0.0, (3, 5): 0.0, (4, 5): 0.0}
        )
        with pytest.raises(InfeasibleSpec):
            mf.exact_bounds(spec, f)
        # The same component under a variable the formula reads alone.
        f = compiled("a & c", ["a", "b", "c", "d", "e"])
        with pytest.raises(InfeasibleSpec):
            mf.exact_bounds(spec, f)

    def test_cancel_between_group_lps(self, simplex_log):
        """Two groups that each need an LP; cancel turns True once the
        first has solved both ends."""
        f = compiled("((a | b) & (a | c)) | ((d | e) & (d | f))")
        spec = mf.PartialJointSpec(marginals=(0.5, 0.4, 0.3, 0.6, 0.7, 0.2))
        with pytest.raises(Cancelled):
            mf.exact_bounds(spec, f, cancel=lambda: simplex_log["ends"] >= 2)
        assert simplex_log["made"] == 1
        mf.exact_bounds(spec, f)
        assert simplex_log["made"] == 3

    def test_group_over_the_cap_is_named(self):
        """An and of literals whose pairs close a cycle needs an LP (a
        tree takes its closed form at any size)."""
        names = [f"x{i}" for i in range(14)]
        chain = {(i, i + 1): 0.2 for i in range(1, 13)}
        chain[1, 13] = 0.2
        spec = mf.PartialJointSpec(marginals=(0.5,) * 14, pairwise=chain)
        f = compiled(" & ".join(names), names)
        with pytest.raises(ArityTooLarge, match=r"got one over 13\b"):
            mf.exact_bounds(spec, f)
        # x14 splits off, so a pair linking it makes the one part 14 wide.
        spec = mf.PartialJointSpec(marginals=(0.5,) * 14, pairwise={**chain, (13, 14): 0.2})
        with pytest.raises(ArityTooLarge, match=r"got one over 14\b"):
            mf.exact_bounds(spec, f)

    @pytest.mark.parametrize(
        "text, pairwise, made",
        [
            # Marginals only and read once: the Frechet rules alone.
            ("a & b & c & d", {}, 0),
            ("(a | !b) -> (c & d)", {}, 0),
            # Pairs inside each of two parts, two variables or literals
            # over a tree of pairs: closed forms, no LP.
            ("(a & b) | (c -> d)", {(1, 2): 0.3, (3, 4): 0.2}, 0),
            (
                "(a & b & c) | !(d & e & f)",
                {(1, 2): 0.3, (2, 3): 0.3, (4, 6): 0.2, (5, 6): 0.2},
                0,
            ),
            # Pairs that connect every variable: one LP on the whole table.
            ("(a | b) & c", {(1, 3): 0.3, (2, 3): 0.2}, 1),
            # A pair cycle among variables read alone: one feasibility check.
            ("a | b | c | d", {(1, 2): 0.3, (2, 3): 0.3, (1, 3): 0.3}, 1),
            # A variable read twice: one LP over what it joins.
            ("(a & b) | (a & c) | d", {}, 1),
        ],
    )
    def test_solves_only_what_does_not_split(self, simplex_log, text, pairwise, made):
        ast = mf.parse_formula(text)
        n = len(mf.formula_variables(ast))
        spec = mf.PartialJointSpec(marginals=(0.6,) * n, pairwise=pairwise)
        mf.exact_bounds(spec, mf.compile_formula(ast, mf.formula_variables(ast)))
        assert simplex_log["made"] == made

    @pytest.mark.parametrize(
        "kind, texts",
        [
            ("and", ["P1 & P2", "P2 & P1", "!(!P1 | !P2)", "!(P1 -> !P2)"]),
            ("or", ["P1 | P2", "P2 | P1", "!P1 -> P2", "!(!P1 & !P2)"]),
            ("implies", ["P1 -> P2", "!P1 | P2", "!P2 -> !P1", "!(P1 & !P2)"]),
        ],
    )
    def test_two_variable_spellings_and_the_classic_forms(self, kind, texts):
        """With no negation above the connective, lo and hi equal the
        classic closed forms bit for bit; through a negated connective they
        pass through 1 - x twice and may differ in the last digit."""
        grid = [0.0, 1.0, 0.1, 0.2, 0.3, 0.7, 0.9, 1 / 3, 0.5, 1e-17, 1 - 1e-16]
        grid += [k / 997 for k in range(3, 997, 71)]
        for text in texts:
            f = compiled(text, ["P1", "P2"])
            for p1 in grid:
                for p2 in grid:
                    ci = mf.exact_bounds(mf.PartialJointSpec(marginals=(p1, p2)), f)
                    want = (mf.classic(p1, p2, kind, "min"), mf.classic(p1, p2, kind, "max"))
                    if text.startswith("!("):
                        assert (ci.lo, ci.hi) == pytest.approx(want, abs=2.0**-52)
                    else:
                        assert (ci.lo, ci.hi) == want, (text, p1, p2)

    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    def test_raw_tables_take_one_lp(self, simplex_log, n):
        spec = mf.PartialJointSpec(marginals=tuple(np.linspace(0.2, 0.8, n)))
        for gate in (mf.and_function(n), mf.or_function(n)):
            mf.exact_bounds(spec, gate)
        assert simplex_log["made"] == 2

    def test_independent_spec_above_the_lp_cap(self):
        """Independence pins the joint, so no LP and no cap: the and of 14
        variables is the product of their marginals."""
        ps = tuple(np.linspace(0.5, 0.95, 14))
        spec = mf.PartialJointSpec(marginals=ps, independent=True)
        ci = mf.exact_bounds(spec, mf.and_function(14))
        assert ci.lo == ci.hi == pytest.approx(float(np.prod(ps)), rel=1e-12)

    def test_deep_trees_need_no_recursion(self):
        """Trees far deeper than the recursion limit: an and/or chain of
        3000 levels that rereads three variables, and 3001 negations.  The
        walk over the normal form recurses only as deep as the components
        split."""
        names = ["a", "b", "c"]
        node = Var("a")
        for k in range(3000):
            node = (And if k % 2 else Or)(Var(names[k % 3]), node)
        spec = mf.PartialJointSpec(marginals=(0.3, 0.6, 0.8), pairwise={(1, 2): 0.2})
        f = mf.compile_formula(node, names)
        ci = mf.exact_bounds(spec, f)
        want = mf.exact_bounds(spec, mf.BooleanFunction(3, 1, f.table))
        assert (ci.lo, ci.hi) == pytest.approx((want.lo, want.hi), abs=1e-9)
        node = Or(Var("a"), And(Var("b"), Var("c")))
        for _ in range(3001):
            node = Not(node)
        spec = mf.PartialJointSpec(marginals=(0.3, 0.6, 0.8))
        ci = mf.exact_bounds(spec, mf.compile_formula(node, names))
        assert (ci.lo, ci.hi) == pytest.approx((1.0 - 0.9, 1.0 - 0.4), abs=1e-15)

    def test_walk_depth_is_bounded_by_the_components(self):
        """Under a recursion limit of 150: an alternating and/or read-once
        tree over 24 variables, with negations, equals its Frechet fold; a
        rereading formula 20 000 levels deep over P1-P3, or-ed with P4,
        splits once and solves one LP.  The walk descends only into an
        operand alone in its group, which reads fewer components."""
        names = [f"x{k}" for k in range(24)]
        ps = tuple(float(p) for p in np.linspace(0.07, 0.93, 24))
        node = Var(names[0])
        want = (ps[0], ps[0])
        for k in range(1, 24):
            leaf = Var(names[k])
            p = (ps[k], ps[k])
            if k % 3 == 0:
                leaf, p = Not(leaf), (1.0 - ps[k], 1.0 - ps[k])
            node, want = Not(node), (1.0 - want[1], 1.0 - want[0])
            if k % 2:
                node = And(leaf, node)
                want = (max(0.0, math.fsum([p[0], want[0], -1.0])), min(p[1], want[1]))
            else:
                node = Or(leaf, node)
                want = (max(p[0], want[0]), min(1.0, math.fsum([p[1], want[1]])))
        read_once = (mf.PartialJointSpec(marginals=ps), node, names)

        deep = Var("P1")
        for k in range(20_000):
            deep = (And if k % 2 else Or)(Var(f"P{k % 3 + 1}"), deep)
        spec = mf.PartialJointSpec((0.3, 0.4, 0.5, 0.6), {(1, 2): 0.3})
        rereading = (spec, Or(deep, Var("P4")), ["P1", "P2", "P3", "P4"])

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            got = [
                mf.exact_bounds(spec, mf.compile_formula(ast, order))
                for spec, ast, order in (read_once, rereading)
            ]
        finally:
            sys.setrecursionlimit(limit)
        assert (got[0].lo, got[0].hi) == want
        assert (got[1].lo, got[1].hi) == pytest.approx((0.6, 1.0), abs=1e-9)

    def test_parts_are_evaluated_from_the_normal_form(self, monkeypatch):
        """Parts that reach an LP (pairs linking operands, a variable read
        twice) take tables evaluated from the normal form the compiled
        function keeps: no BooleanFunction is made and nothing is
        compiled again, and the bounds are those of the raw table."""
        f = compiled("(a & (b | c)) | ((d -> e) & f) | (g & (h | i | g))")
        spec = mf.PartialJointSpec(
            marginals=(0.6, 0.3, 0.7, 0.4, 0.5, 0.8, 0.2, 0.9, 0.35),
            pairwise={(1, 2): 0.2, (2, 3): 0.2, (4, 6): 0.1, (5, 6): 0.1},
        )
        calls = []
        adopt, init = mf.BooleanFunction._adopt, mf.BooleanFunction.__init__

        def counting(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(mf.BooleanFunction, "_adopt", counting("_adopt", adopt))
        monkeypatch.setattr(mf.BooleanFunction, "__init__", counting("__init__", init))
        for name, module in list(sys.modules.items()):
            if name.startswith("markov_fuzzy") and hasattr(module, "compile_formula"):
                real = module.compile_formula
                monkeypatch.setattr(module, "compile_formula", counting(name, real))
        made = []

        class Counting(_simplex.Simplex):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(_simplex, "Simplex", Counting)
        ci = mf.exact_bounds(spec, f)
        assert calls == [] and "table" not in vars(f)
        assert len(made) == 3  # a & (b | c), (!d | e) & f and g & (h | i | g)
        monkeypatch.undo()
        raw = mf.exact_bounds(spec, mf.BooleanFunction(9, 1, f.table))
        assert ci.lo == pytest.approx(raw.lo, abs=1e-12)
        assert ci.hi == pytest.approx(raw.hi, abs=1e-12)

    def test_read_once_split_builds_no_table(self):
        """Marginals only, a read-once formula over 20 variables is bounded
        by the Frechet rules alone, so its 8 MiB table is never built."""
        names = [f"x{i}" for i in range(20)]
        text = " | ".join(f"({a} & !{b})" for a, b in zip(names[::2], names[1::2]))
        spec = mf.PartialJointSpec(marginals=tuple(np.linspace(0.05, 0.95, 20)))
        tracemalloc.start()
        try:
            f = compiled(text, names)
            mf.exact_bounds(spec, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "table" not in vars(f)
        assert peak < 1 << 20

    def test_connected_pairs_build_the_table(self):
        f = compiled("(a | b) & c")
        spec = mf.PartialJointSpec(marginals=(0.6,) * 3, pairwise={(1, 3): 0.3, (2, 3): 0.2})
        ci = mf.exact_bounds(spec, f)
        assert "table" not in vars(f)
        assert ci == mf.exact_bounds(spec, mf.BooleanFunction(3, 1, f.table))

    def test_negated_part_ignores_unread_variables(self):
        """A negation above a part belongs to the part wherever the part
        lies, so an unread P3 leaves the bits of !(P1 -> P2) as they are."""
        f = mf.parse_formula("!(P1 -> P2)")
        two = mf.exact_bounds(
            mf.PartialJointSpec((0.7, 0.6), {(1, 2): 0.2}),
            mf.compile_formula(f, ["P1", "P2"]),
        )
        three = mf.exact_bounds(
            mf.PartialJointSpec((0.7, 0.6, 0.5), {(1, 2): 0.2}),
            mf.compile_formula(f, ["P1", "P2", "P3"]),
        )
        assert (two.lo, two.hi) == (three.lo, three.hi) == (0.2, 0.2)

    def test_negated_part_below_the_root_equals_its_spelling(self):
        """!(P1 -> P2) and P1 & !P2 take the same pair table, under an and
        with P3 as at the root."""
        grid = [0.0, 0.1, 0.3, 0.5, 0.6, 0.7, 1 / 3, 1.0]
        for p1, p2 in itertools.product(grid, grid):
            b = mf.q_bounds(p1, p2)
            for q in (b.q_min, b.q_indep, b.q_max):
                spec = mf.PartialJointSpec((p1, p2, 0.5), {(1, 2): q})
                got = [
                    mf.exact_bounds(spec, compiled(text, ["P1", "P2", "P3"]))
                    for text in ("!(P1 -> P2) & P3", "P1 & !P2 & P3")
                ]
                assert (got[0].lo, got[0].hi) == (got[1].lo, got[1].hi), (p1, p2, q)

    def test_negated_part_is_solved_on_its_own_table(self, monkeypatch):
        """The one LP of !((a | b) & (a | c)) | d gets the negated part's
        table as its cost, not the table under the negation."""
        costs = []
        real = bounds._lp_bounds

        def recording(marginals, pairs, cost, cancel):
            costs.append(None if cost is None else cost.tolist())
            return real(marginals, pairs, cost, cancel)

        monkeypatch.setattr(bounds, "_lp_bounds", recording)
        f = compiled("!((a | b) & (a | c)) | d")
        ci = mf.exact_bounds(mf.PartialJointSpec((0.6, 0.3, 0.7, 0.2)), f)
        inner = compiled("(a | b) & (a | c)", ["a", "b", "c"]).table
        assert costs == [(1 - inner).tolist()]
        monkeypatch.undo()
        raw = mf.exact_bounds(
            mf.PartialJointSpec((0.6, 0.3, 0.7, 0.2)), mf.BooleanFunction(4, 1, f.table)
        )
        assert (ci.lo, ci.hi) == pytest.approx((raw.lo, raw.hi), abs=1e-12)

    def test_groups_fail_in_operand_order(self):
        """p, q, r share a cycle of pairs that admits no joint; the and of
        s1 ... s13 after them closes a cycle over the LP cap.  The first
        group in operand order raises."""
        names = ["p", "q", "r"] + [f"s{i}" for i in range(1, 14)]
        pairwise = {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0, (4, 16): 0.2}
        pairwise.update({(i, i + 1): 0.2 for i in range(4, 16)})
        spec = mf.PartialJointSpec((0.5,) * 16, pairwise)
        f = compiled("p | q | r | (" + " & ".join(names[3:]) + ")", names)
        with pytest.raises(InfeasibleSpec):
            mf.exact_bounds(spec, f)
        f = compiled("(" + " & ".join(names[3:]) + ") | p | q | r", names)
        with pytest.raises(ArityTooLarge):
            mf.exact_bounds(spec, f)

    @pytest.mark.parametrize(
        "text, lo",
        [("(P1 & P3) | P2", 0.6), ("P2 | (P1 & P3)", 0.6), ("(P2 & P3) | P1", 0.7)],
    )
    def test_a_compound_operand_shares_a_pairs_component(self, text, lo):
        """The and reads a coordinate that the pair (1,2) joins to the
        other operand's component, so the or is one part: its upper end is
        0.8 over the whole table, where the and bounded apart would give
        1.0."""
        spec = mf.PartialJointSpec((0.7, 0.6, 0.5), {(1, 2): 0.2})
        f = compiled(text, ["P1", "P2", "P3"])
        ci = mf.exact_bounds(spec, f)
        raw = mf.exact_bounds(spec, mf.BooleanFunction(3, 1, f.table))
        assert (ci.lo, ci.hi) == pytest.approx((raw.lo, raw.hi), abs=1e-12)
        assert (ci.lo, ci.hi) == pytest.approx((lo, 0.8), abs=1e-12)

    def test_an_operand_that_bridges_two_groups_joins_them(self):
        """P2 & P3 meets the group of P1 & P2 and the one of P3: all three
        are one part over P1-P3, and P4 stands alone."""
        spec = mf.PartialJointSpec((0.7, 0.6, 0.5, 0.2))
        f = compiled("(P1 & P2) | P3 | (P2 & P3) | P4", ["P1", "P2", "P3", "P4"])
        ci = mf.exact_bounds(spec, f)
        raw = mf.exact_bounds(spec, mf.BooleanFunction(4, 1, f.table))
        assert (ci.lo, ci.hi) == pytest.approx((raw.lo, raw.hi), abs=1e-12)
        assert (ci.lo, ci.hi) == pytest.approx((0.5, 1.0), abs=1e-12)

    @pytest.mark.parametrize(
        "q12, q34, lo, hi", [(0.5, 0.5, 0.25, 0.875), (0.375, 0.25, 0.375, 1.0)]
    )
    def test_an_operand_that_bridges_two_components_joins_them(self, q12, q34, lo, hi):
        """P2 & P4 meets the component of the pair (1,2) and that of (3,4),
        so P1, P3 and it are one part over P1-P4; bounded apart, the or
        would be [0.25, 1.0]."""
        spec = mf.PartialJointSpec(
            (0.25, 0.5, 0.25, 0.5, 0.125), {(1, 2): q12, (3, 4): q34}
        )
        f = compiled("P1 | P3 | (P2 & P4) | P5", ["P1", "P2", "P3", "P4", "P5"])
        ci = mf.exact_bounds(spec, f)
        raw = mf.exact_bounds(spec, mf.BooleanFunction(5, 1, f.table))
        assert (ci.lo, ci.hi) == pytest.approx((raw.lo, raw.hi), abs=1e-12)
        assert (ci.lo, ci.hi) == pytest.approx((lo, hi), abs=1e-12)

    def test_compiled_function_equals_the_raw_table(self):
        f = compiled("(a & b) | !c")
        raw = mf.BooleanFunction(3, 1, f.table)
        assert f == raw and repr(f) == repr(raw)
        assert f._formula is not None and raw._formula is None


# ---------------------------------------------------------------------------
# Closed forms of a part
# ---------------------------------------------------------------------------

from markov_fuzzy.boolfuncs import _ALL, _ANY, _LEAF, _NEG, _truth_bits  # noqa: E402
from markov_fuzzy.boolfuncs import _truth_table  # noqa: E402

#: Marginals at the ends of [0, 1], at a half, or anywhere.
EDGE_BELIEFS = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


@st.composite
def literal_trees(draw):
    """An and/or of k = 2...12 literals of distinct variables, of both
    signs and in any order, under a negation or not, with a spec whose
    pairs form a random tree, each q at q_min, q_max, q_indep or inside."""
    k = draw(st.integers(2, 12))
    marginals = tuple(draw(EDGE_BELIEFS) for _ in range(k))
    order = draw(st.permutations(range(k)))
    pairs = []
    for v in range(1, k):
        i, j = sorted((order[draw(st.integers(0, v - 1))], order[v]))
        b = mf.q_bounds(marginals[i], marginals[j])
        inside = b.q_min + draw(st.floats(0.0, 1.0)) * (b.q_max - b.q_min)
        q = draw(st.sampled_from([b.q_min, b.q_max, b.q_indep, inside]))
        pairs.append(((i + 1, j + 1), q))
    kids = []
    for i in draw(st.permutations(range(k))):
        leaf = [_LEAF, 1 << i, i]
        kids.append([_NEG, 1 << i, leaf] if draw(st.booleans()) else leaf)
    node = [draw(st.sampled_from([_ALL, _ANY])), (1 << k) - 1, kids]
    if draw(st.booleans()):
        node = [_NEG, node[1], node]
    return marginals, sorted(pairs), node


class TestClosedForms:
    """Each closed form of `_part_bounds` against the LP of the same part."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(literal_trees())
    def test_literals_over_a_tree_match_the_lp(self, tree):
        marginals, pairs, node = tree
        coords = list(range(len(marginals)))
        lo, hi, exact = bounds._literal_bounds(marginals, pairs, node, coords)
        assert exact
        want = bounds._lp_bounds(marginals, pairs, _truth_table(node, coords), None)
        assert (lo, hi) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("truth", range(16))
    def test_every_two_variable_table_matches_the_lp(self, truth):
        """All 16 tables, as a disjunction of their true cells, on a grid of
        marginals, with no pair and with the pair at five points of its
        range."""
        x = [[_LEAF, 1 << i, i] for i in (0, 1)]
        literal = [[[_NEG, 1 << i, x[i]], x[i]] for i in (0, 1)]  # [i][value]
        cell = [[_ALL, 3, [literal[0][a & 1], literal[1][a >> 1]]] for a in range(4)]
        false = [_ALL, 3, [x[0], literal[0][0], x[1]]]
        node = [_ANY, 3, [cell[a] for a in range(4) if truth >> a & 1] or [false]]
        assert _truth_bits(node, [0, 1]) == truth
        cost = _truth_table(node, [0, 1])
        grid = [0.0, 0.3, 0.5, 0.8, 1.0]
        for p1, p2 in itertools.product(grid, grid):
            b = mf.q_bounds(p1, p2)
            qs = [b.q_min, b.q_max, b.q_indep, 0.5 * (b.q_min + b.q_max)]
            qs.append(0.9 * b.q_min + 0.1 * b.q_max)
            for pairs in [[]] + [[((1, 2), q)] for q in qs]:
                got = bounds._part_bounds((p1, p2), pairs, node, [0, 1], None)
                want = bounds._lp_bounds((p1, p2), pairs, cost, None)
                assert got == pytest.approx(want, abs=1e-9), (p1, p2, pairs)

    def test_tree_above_the_lp_cap_takes_its_closed_form(self, simplex_log):
        """An and of 14 variables chained by pairs: no LP, no cap.  Its
        negated literals have P = 0.1, pairwise both true 0.05 and either
        true 1 - 0.85, so the and is [1 - (1.4 - 13 * 0.05), 0.85]."""
        names = [f"x{i}" for i in range(14)]
        chain = {(i, i + 1): 0.05 for i in range(1, 14)}
        spec = mf.PartialJointSpec(marginals=(0.9,) * 14, pairwise=chain)
        ci = mf.exact_bounds(spec, compiled(" & ".join(names), names))
        assert (ci.lo, ci.hi) == pytest.approx((0.25, 0.85), abs=1e-12)
        assert simplex_log["made"] == 0
