"""Dense revised simplex for the small equality-form LPs of `exact_bounds`.

Solves  min c.x  subject to  A x = b, x >= 0,  for a dense A of m rows: its
N >= 1 structural columns, then the m artificials, the identity, so that
column N + r is e_r, the artificial of row r.  The bounds LPs have
m = 1 + n + |pairs| <= 79 rows and N <= 2**n <= 4096 structural columns,
so the whole method fits in a few numpy calls per pivot:

* phase I starts from the caller's basis: m column indices of A.
  `Simplex` inverts it and takes the levels B^-1 b.  The row of each
  artificial below zero is negated in place, in the structural block and
  b (never in the identity block), and the basis inverted again, so that
  the artificial starts at the opposite level; a structural level below
  -TOL raises SolverError.  A start basis without an artificial is
  feasible as it stands, and phase I makes no pass over it.  Otherwise
  phase I minimizes the sum of the artificials; a sum above `TOL` proves
  infeasibility.  Any artificial left in the basis at level zero is then
  pivoted out, unless its row depends on the others.
  `exact_bounds` starts from the table glued from its pair tables
  (`bounds._glued_basis`), which leaves an artificial basic only in the
  row of a pair that closes a cycle and in rows whose piece of that table
  lies in a cell left out as empty: a spec whose pairs form a forest,
  with no empty cell, runs no phase I;
* phase II minimizes each cost from the basis phase I ended on, so both
  ends of `exact_bounds` start there;
* the m x m basis inverse is kept explicitly, updated by a rank-one
  correction per pivot and recomputed every `REFACTOR_EVERY` pivots;
* pricing takes the reduced cost of every structural column in one
  `y @ A[:, :N]` pass and enters the most negative one (Dantzig's rule).  When a run of pivots that do not
  move the point comes back to a basis it has met, pricing switches to
  the lowest-index improving column and the lowest-index tied leaving
  variable (Bland's rule, which cannot cycle) until a pivot moves the
  point again.  Dantzig's rule alone cycles on Chvatal's (1983) LP, the
  tested case;
* more than `MAX_PIVOTS` pivots in one phase raise SolverError;
* a phase ends only when pricing on a fresh inverse finds no improving
  column: pricing on an updated inverse that finds none recomputes the
  inverse and prices again, and pivots on if a column now improves.
  Every phase then ends in one check on its final basis: x_B = B^-1 b
  with one refinement step against a residual summed by `math.fsum`, and
  y = c_B B^-1.  x_B >= -TOL and every reduced cost c - y A >= -TOL are
  required, else SolverError, and the value is `math.fsum(c_B * x_B)`:
  phase I's sum of the artificials, or an optimum of phase II.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError

#: Primal feasibility and optimality tolerance, checked on the final basis:
#: every basic value >= -TOL and every reduced cost >= -TOL.  Phase I
#: declares the constraints infeasible when the artificials sum above it.
TOL = 1e-9

#: Pivots allowed in one phase before the solve fails with SolverError.
#: Bland's rule already rules out cycling: Dantzig's rule with this ratio
#: test cycles on Chvatal's (1983) LP, the tested case, and would run to
#: this cap without the switch.  The cap bounds the time a stalled solve
#: can take (about 0.15 ms a pivot at 79 rows and 4096 columns on a 2-core
#: x86 machine, solve overhead included, so about 8 s).
MAX_PIVOTS = 50_000

#: Pivots between recomputations of the basis inverse.
REFACTOR_EVERY = 50

# Harris ratio test: rows whose ratio is within this primal slack of the
# minimum may leave, and the one with the largest pivot entry does.
_HARRIS_SLACK = 1e-12


class Simplex:
    """Phase I on construction; `minimize(cost)` then runs phase II.

    `a` is A with its m artificial columns last and `basis` the start
    basis (see the module docstring).  `a` and `b` are kept, not copied;
    rows of `b` and of `a`'s structural block may be negated.  `feasible`
    is False when no x >= 0 satisfies A x = b within `TOL`.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, basis: np.ndarray):
        m, n = len(b), a.shape[1] - len(b)
        self._a = a
        self._b = b
        self._n = n
        self._basis = np.array(basis)
        self._refactor()
        # An artificial below zero: its row, negated in place, starts it at
        # the opposite level.
        rows = self._basis[self._x < 0.0] - n
        rows = rows[rows >= 0]
        if rows.size:
            a[rows, :n] *= -1.0
            b[rows] *= -1.0
            self._refactor()
        if self._x.min() < -TOL:
            raise SolverError(
                f"LP solve failed: start basis infeasible by {-self._x.min():.3g}"
            )

        # A start basis without artificials is feasible as it stands.
        self.feasible = True
        if self._basis.max() >= n:
            artificial = np.concatenate((np.zeros(n), np.ones(m)))
            self.feasible = self._iterate(artificial) <= TOL
            if self.feasible:
                self._drive_out_artificials()
        self._start = (self._basis, self._binv, self._x)

    def minimize(self, cost: np.ndarray) -> float:
        """min cost.x over the feasible set, from the basis phase I ended
        on, checked on the final basis."""
        # Phase I ends on a fresh inverse, which each end starts from.
        basis, binv, x = self._start
        self._basis, self._binv, self._x = basis.copy(), binv.copy(), x.copy()
        self._since_refactor = 0
        return self._iterate(np.concatenate((cost, np.zeros(len(basis)))))

    def _checked_value(self, cost: np.ndarray, reduced: np.ndarray) -> float:
        """The value of the current basis, checked once pricing on a fresh
        inverse finds no improving column: x_B = B^-1 b with one refinement
        step, x_B >= -TOL, and every reduced cost c - y A in `reduced`
        >= -TOL.  A failure is a SolverError."""
        matrix, x = self._a[:, self._basis], self._x
        # One step of refinement against a residual summed exactly.
        terms = np.concatenate((self._b[:, None], -matrix * x), axis=1).tolist()
        x = x + self._binv @ [math.fsum(row) for row in terms]
        if x.min() < -TOL:
            failure = f"final basis infeasible by {-x.min():.3g}"
        elif reduced.min() < -TOL:
            failure = f"final basis not optimal, reduced cost {reduced.min():.3g}"
        else:
            return math.fsum(cost[self._basis] * x)
        raise SolverError(f"LP solve failed: {failure}")

    def _iterate(self, cost: np.ndarray) -> float:
        """Pivot until pricing on a fresh inverse finds no improving column,
        then return the checked value (`_checked_value`).  Pricing on an
        updated inverse that finds none refactors and prices again.  `cost`
        covers every column, the artificials too; only the structural ones
        are priced."""
        a, n = self._a, self._n
        pivots = 0
        seen: set = set()  # bases met since the point last moved
        bland = False
        while True:
            if self._since_refactor >= REFACTOR_EVERY:
                self._refactor()
            reduced = cost[:n] - (cost[self._basis] @ self._binv) @ a[:, :n]
            j = self._entering(reduced, bland)
            if j < 0:
                if not self._since_refactor:
                    return self._checked_value(cost, reduced)
                self._refactor()
                continue
            if pivots == MAX_PIVOTS:
                raise SolverError(
                    f"LP solve failed: pivot limit ({MAX_PIVOTS}) reached"
                )
            u = self._binv @ a[:, j]
            step = self._pivot(self._leaving_row(u, bland), j, u)
            pivots += 1
            if step > TOL:
                seen.clear()
                bland = False
            elif not bland:
                key = np.sort(self._basis).tobytes()
                bland = key in seen
                seen.add(key)

    @staticmethod
    def _entering(reduced: np.ndarray, bland: bool) -> int:
        """The column to enter, or -1 when none improves."""
        if bland:
            improving = (reduced < -TOL).nonzero()[0]
            return int(improving[0]) if improving.size else -1
        j = int(reduced.argmin())
        return j if reduced[j] < -TOL else -1

    def _leaving_row(self, u: np.ndarray, bland: bool) -> int:
        rows = (u > TOL).nonzero()[0]
        if not rows.size:
            # Not in the bounds LPs: their row of ones keeps x in a simplex.
            raise SolverError("LP solve failed: unbounded direction")
        x = np.maximum(self._x[rows], 0.0)
        col = u[rows]
        limit = ((x + _HARRIS_SLACK) / col).min()
        ties = rows[x / col <= limit]
        if bland:
            return int(ties[self._basis[ties].argmin()])
        return int(ties[u[ties].argmax()])

    def _pivot(self, r: int, j: int, u: np.ndarray) -> float:
        """Column j enters in row r; returns the step length."""
        step = self._x[r] / u[r]
        self._x -= step * u
        self._x[r] = step
        row = self._binv[r] / u[r]
        self._binv -= u[:, None] * row
        self._binv[r] = row
        self._basis[r] = j
        self._since_refactor += 1
        return step

    def _refactor(self) -> None:
        """Recompute the inverse of the basis matrix A[:, basis], and the
        basic levels from it."""
        try:
            self._binv = np.linalg.inv(self._a[:, self._basis])
        except np.linalg.LinAlgError:
            raise SolverError("LP solve failed: singular basis") from None
        self._x = self._binv @ self._b
        self._since_refactor = 0

    def _drive_out_artificials(self) -> None:
        """Pivot each zero-level artificial out of the basis, entering the
        nonbasic column with the largest entry in its row.  A row with no
        such entry depends on the others; its artificial stays basic, and
        since no structural column has an entry in its row it never moves."""
        a, n = self._a, self._n
        for r in (self._basis >= n).nonzero()[0]:
            row = self._binv[r] @ a[:, :n]
            row[self._basis[self._basis < n]] = 0.0
            j = int(np.abs(row).argmax())
            if abs(row[j]) > TOL:
                self._pivot(r, j, self._binv @ a[:, j])
        if self._since_refactor:
            self._refactor()
