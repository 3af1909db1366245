"""Dense revised simplex for the small equality-form LPs of `exact_bounds`.

Solves  min c.x  subject to  A x = b, x >= 0,  for a dense A (m rows, N >= 1
columns).  The bounds LPs have m = 1 + n + |pairs| <= 79 rows and
N <= 2**n <= 4096 columns, so the whole method fits in a few numpy calls
per pivot:

* phase I starts from the caller's basis: m column indices, where index
  N + r names the artificial column e_r of row r.  It is inverted once
  and its levels B^-1 b must be >= -TOL.  Without one, phase I starts
  from one artificial per row (x_B = b, so b >= 0 is needed).  Phase I
  minimizes the sum of the artificials; a sum above `TOL` proves
  infeasibility.  Any artificial left in the basis at level zero is then
  pivoted out, unless its row depends on the others;
* phase II minimizes each cost from the previous optimal basis, so the
  max of `exact_bounds` starts where the min stopped;
* the m x m basis inverse is kept explicitly, updated by a rank-one
  correction per pivot and recomputed every `REFACTOR_EVERY` pivots and
  before phase I decides feasibility;
* pricing takes every reduced cost in one `y @ A` pass and enters the
  most negative one (Dantzig's rule).  When a run of pivots that do not
  move the point comes back to a basis it has met, pricing switches to
  the lowest-index improving column and the lowest-index tied leaving
  variable (Bland's rule, which cannot cycle) until a pivot moves the
  point again;
* more than `MAX_PIVOTS` pivots in one phase raise SolverError;
* each optimum is checked afresh on its final basis as soon as pricing
  on the current inverse finds no improving column: B x_B = b (with one
  refinement step against a residual summed by `math.fsum`) and
  B^T y = c_B are solved by LU, x_B >= -TOL and every reduced cost
  c - y A >= -TOL are required, and the value is `math.fsum(c_B * x_B)`.
  A check that fails on an updated inverse refactors it and pivots on;
  one that fails on a fresh inverse raises SolverError.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import SolverError

#: Primal feasibility and optimality tolerance, checked on the final basis:
#: every basic value >= -TOL and every reduced cost >= -TOL.  Phase I
#: declares the constraints infeasible when the artificials sum above it.
TOL = 1e-9

#: Pivots allowed in one phase before the solve fails with SolverError.
#: Bland's rule already rules out cycling; this bounds the time a stalled
#: solve can take (about 0.19 ms a pivot at 79 rows and 4096 columns on a
#: 2-core x86 machine, so about 9 s).
MAX_PIVOTS = 50_000

#: Pivots between recomputations of the basis inverse.
REFACTOR_EVERY = 50

# Harris ratio test: rows whose ratio is within this primal slack of the
# minimum may leave, and the one with the largest pivot entry does.
_HARRIS_SLACK = 1e-12


class Simplex:
    """Phase I on construction; `minimize(cost)` then runs phase II.

    `basis` is the start basis (see the module docstring); None starts
    from the artificials.  `feasible` is False when no x >= 0 satisfies
    A x = b within `TOL`.
    """

    def __init__(
        self, a: np.ndarray, b: np.ndarray, basis: Optional[np.ndarray] = None
    ):
        m, n = a.shape
        self._a = a
        self._b = b
        self._n = n
        self._since_refactor = 0
        if basis is None:
            # Artificial column n + r is the unit vector e_r.
            self._basis = np.arange(n, n + m)
            self._binv = np.eye(m)
            self._x = b.astype(np.float64)
        else:
            self._basis = np.array(basis)
            self._refactor()
            if self._x.min() < -TOL:
                raise SolverError(
                    "LP solve failed: start basis infeasible by "
                    f"{-self._x.min():.3g}"
                )

        artificial = np.concatenate((np.zeros(n), np.ones(m)))
        self.feasible = self._iterate(artificial, self._infeasibility) <= TOL
        if self.feasible:
            self._drive_out_artificials()

    def minimize(self, cost: np.ndarray) -> float:
        """min cost.x over the feasible set, checked on the final basis."""
        cost = np.concatenate((cost, np.zeros(len(self._basis))))
        return self._iterate(cost, lambda: self._checked_value(cost))

    def _infeasibility(self) -> Optional[float]:
        """The sum of the artificial levels, or None on an inverse updated
        since its last refactor: feasibility is decided on a fresh one."""
        if self._since_refactor:
            return None
        return math.fsum(self._x[self._basis >= self._n])

    def _checked_value(self, cost: np.ndarray) -> Optional[float]:
        """The value of the current basis, solved afresh by LU, once it is
        shown primal feasible and optimal.  None when the check fails on an
        inverse updated since its last refactor, so that pivoting goes on
        from a fresh one; on a fresh inverse the failure is a SolverError."""
        matrix = self._basis_matrix()
        cost_b = cost[self._basis]
        try:
            x = np.linalg.solve(matrix, self._b)
            # One step of refinement against a residual summed exactly.
            terms = np.column_stack((self._b, -matrix * x)).tolist()
            residual = [math.fsum(row) for row in terms]
            x += np.linalg.solve(matrix, residual)
            y = np.linalg.solve(matrix.T, cost_b)
        except np.linalg.LinAlgError:
            raise SolverError("LP solve failed: singular final basis") from None
        if x.min() < -TOL:
            failure = f"final basis infeasible by {-x.min():.3g}"
        else:
            reduced = cost[: self._n] - y @ self._a
            if reduced.min() >= -TOL:
                return math.fsum(cost_b * x)
            failure = f"final basis not optimal, reduced cost {reduced.min():.3g}"
        if self._since_refactor:
            return None
        raise SolverError(f"LP solve failed: {failure}")

    def _iterate(
        self, cost: np.ndarray, accept: Callable[[], Optional[float]]
    ) -> float:
        """Pivot until no column prices out and `accept()` returns a value,
        which is returned; while it returns None, refactor and go on.
        `cost` covers every column that can be basic (the artificials too,
        in phase I)."""
        a, n = self._a, self._n
        pivots = 0
        seen: set = set()  # bases met since the point last moved
        bland = False
        while True:
            if self._since_refactor >= REFACTOR_EVERY:
                self._refactor()
            y = cost[self._basis] @ self._binv
            j = self._entering(cost[:n] - y @ a, bland)
            if j < 0:
                value = accept()
                if value is not None:
                    return value
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
            improving = np.flatnonzero(reduced < -TOL)
            return int(improving[0]) if improving.size else -1
        j = int(np.argmin(reduced))
        return j if reduced[j] < -TOL else -1

    def _leaving_row(self, u: np.ndarray, bland: bool) -> int:
        rows = np.flatnonzero(u > TOL)
        if not rows.size:
            # Not in the bounds LPs: their row of ones keeps x in a simplex.
            raise SolverError("LP solve failed: unbounded direction")
        x = np.maximum(self._x[rows], 0.0)
        col = u[rows]
        limit = ((x + _HARRIS_SLACK) / col).min()
        ties = rows[x / col <= limit]
        if bland:
            return int(ties[np.argmin(self._basis[ties])])
        return int(ties[np.argmax(u[ties])])

    def _pivot(self, r: int, j: int, u: np.ndarray) -> float:
        """Column j enters in row r; returns the step length."""
        step = self._x[r] / u[r]
        self._x -= step * u
        self._x[r] = step
        row = self._binv[r] / u[r]
        self._binv -= np.outer(u, row)
        self._binv[r] = row
        self._basis[r] = j
        self._since_refactor += 1
        return step

    def _basis_matrix(self) -> np.ndarray:
        m = len(self._basis)
        structural = self._basis < self._n
        matrix = np.zeros((m, m))
        matrix[:, structural] = self._a[:, self._basis[structural]]
        artificial = np.flatnonzero(~structural)
        matrix[self._basis[artificial] - self._n, artificial] = 1.0
        return matrix

    def _refactor(self) -> None:
        try:
            self._binv = np.linalg.inv(self._basis_matrix())
        except np.linalg.LinAlgError:
            raise SolverError("LP solve failed: singular basis") from None
        self._x = self._binv @ self._b
        self._since_refactor = 0

    def _drive_out_artificials(self) -> None:
        """Pivot each zero-level artificial out of the basis, entering the
        nonbasic column with the largest entry in its row.  A row with no
        such entry depends on the others; its artificial stays basic, and
        since no column has an entry in its row it never moves."""
        a, n = self._a, self._n
        for r in np.flatnonzero(self._basis >= n):
            row = self._binv[r] @ a
            row[self._basis[self._basis < n]] = 0.0
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > TOL:
                self._pivot(r, j, self._binv @ a[:, j])
        if self._since_refactor:
            self._refactor()
