"""Strictly convex proximal QP over one agent's polytope.

The QP minimises

    q(x) = g @ (x - center) + 0.5 * (x - center) @ M @ (x - center)

over the agent's feasible set, with ``M`` symmetric positive definite.
Boxes are handled by a coordinatewise closed form when ``M`` is diagonal
and by accelerated projected gradient otherwise; general polytopes (up to
32 rows) go through a small primal active-set method.  The solve function
is stateless and safe to call concurrently on distinct instances.

The inner loop's block updates have ``M = m I``, whose minimiser is the
projection of ``center - g / m``; they call ``Polytope.project`` and build
no QP.  This general-``M`` solver is the oracle for that projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError, StructureError
from .model import FEAS_TOL, Polytope

__all__ = ["ProxQp", "solve_prox_qp"]

#: Default stationarity tolerance; tight enough that subproblem inexactness
#: is negligible against the inner loop's certificates.
DEFAULT_TOL = 1e-10

_MAX_APG_ITERS = 20000
_MAX_ACTIVE_SET_ITERS = 500
_MAX_POLYTOPE_ROWS = 32


@dataclass(frozen=True)
class ProxQp:
    """One proximal QP: gradient ``g``, curvature ``M``, center and set.

    ``M`` must be symmetric to roughly 1e-12 (relative to its largest
    entry) and positive definite; definiteness is checked by eigenvalues
    for dimensions up to 16 and by Cholesky above.
    """

    g: np.ndarray
    m_mat: np.ndarray
    center: np.ndarray
    feasible_set: Polytope

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float).reshape(-1)
        m = np.atleast_2d(np.asarray(self.m_mat, dtype=float))
        c = np.asarray(self.center, dtype=float).reshape(-1)
        n = self.feasible_set.dim
        if g.shape[0] != n or c.shape[0] != n or m.shape != (n, n):
            raise StructureError(
                f"QP data shapes g={g.shape}, M={m.shape}, center={c.shape} "
                f"do not match set dimension {n}"
            )
        sym_tol = 1e-12 * max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T), initial=0.0)) > sym_tol:
            raise StructureError("M is not symmetric")
        if n <= 16:
            if float(np.min(np.linalg.eigvalsh(m))) <= 0.0:
                raise StructureError("M is not positive definite")
        else:
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                raise StructureError("M is not positive definite") from None
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "m_mat", m)
        object.__setattr__(self, "center", c)

    def objective(self, x) -> float:
        d = np.asarray(x, dtype=float) - self.center
        return float(self.g @ d + 0.5 * d @ self.m_mat @ d)

    def gradient(self, x) -> np.ndarray:
        return self.g + self.m_mat @ (np.asarray(x, dtype=float) - self.center)


def solve_prox_qp(qp: ProxQp, tol: float = DEFAULT_TOL):
    """Minimise the proximal QP over its feasible set.

    Parameters
    ----------
    qp : ProxQp
        Problem data; the center must lie in the set up to ``FEAS_TOL``.
    tol : float
        Target on the projected-stationarity residual (boxes) or the
        normal-cone distance of the gradient (polytopes).

    Returns
    -------
    minimizer : numpy.ndarray
        Feasible point with residual below ``tol``.
    kkt_residual : float
        Achieved stationarity residual.
    active_set : numpy.ndarray of int
        Indices of active polytope rows at the minimiser, ascending.

    Raises
    ------
    PreconditionError
        If the center is infeasible.
    ConvergenceError
        If the iteration cap is reached above ``tol``; carries the best
        iterate found.
    """
    if tol <= 0:
        raise PreconditionError(f"tolerance must be positive, got {tol}")
    poly = qp.feasible_set
    if poly.violation(qp.center) > FEAS_TOL:
        raise PreconditionError(
            f"QP center violates the feasible set by {poly.violation(qp.center):.3e}"
        )
    if poly.is_box:
        if _is_diagonal(qp.m_mat):
            x = _solve_box_diagonal(qp)
        else:
            x = _solve_box_apg(qp, tol)
        x = np.clip(x, poly.lower, poly.upper)
    elif poly.n_rows > _MAX_POLYTOPE_ROWS:
        raise StructureError(
            f"general polytopes are limited to {_MAX_POLYTOPE_ROWS} rows, "
            f"got {poly.n_rows}"
        )
    else:
        x = _solve_polytope_active_set(qp)
    dist_sq, _, active = poly.normal_cone_distance(x, qp.gradient(x))
    residual = _box_residual(qp, x) if poly.is_box else float(np.sqrt(dist_sq))
    return x, residual, active


# ---------------------------------------------------------------------------
# Box paths.
# ---------------------------------------------------------------------------

def _is_diagonal(m) -> bool:
    return float(np.max(np.abs(m - np.diag(np.diag(m))), initial=0.0)) == 0.0


def _solve_box_diagonal(qp: ProxQp) -> np.ndarray:
    # Separable problem: clip the exact per-coordinate Newton step.
    step = qp.center - qp.g / np.diag(qp.m_mat)
    return np.clip(step, qp.feasible_set.lower, qp.feasible_set.upper)


def _box_residual(qp: ProxQp, x) -> float:
    """Projected-gradient fixed-point residual ``||x - P(x - grad)||_inf``."""
    poly = qp.feasible_set
    return float(np.max(np.abs(x - np.clip(x - qp.gradient(x), poly.lower, poly.upper)),
                        initial=0.0))


def _solve_box_apg(qp: ProxQp, tol: float) -> np.ndarray:
    """FISTA with restart on the box; returns the best iterate seen."""
    poly = qp.feasible_set
    lip = float(np.linalg.norm(qp.m_mat, 2))
    if lip == 0.0:
        return np.clip(qp.center, poly.lower, poly.upper)
    step = 1.0 / lip
    x = np.clip(qp.center, poly.lower, poly.upper)
    y = x.copy()
    t = 1.0
    best, best_val = x.copy(), qp.objective(x)
    for _ in range(_MAX_APG_ITERS):
        x_new = np.clip(y - step * qp.gradient(y), poly.lower, poly.upper)
        val = qp.objective(x_new)
        if val < best_val:
            best, best_val = x_new.copy(), val
        if _box_residual(qp, x_new) <= tol:
            return x_new
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_new
        if float((x_new - x) @ (y - x_new)) > 0.0:  # restart
            y = x_new.copy()
            t_new = 1.0
        else:
            y = x_new + momentum * (x_new - x)
        x, t = x_new, t_new
    raise ConvergenceError(
        f"projected gradient did not reach tol={tol:.1e} "
        f"within {_MAX_APG_ITERS} iterations", best=best)


# ---------------------------------------------------------------------------
# General polytope path: small primal active-set method.
# ---------------------------------------------------------------------------

def _solve_polytope_active_set(qp: ProxQp) -> np.ndarray:
    """Primal active-set iteration for the strictly convex QP.

    Works in the shifted variable ``y = x - center`` with constraints
    ``A y <= s`` where ``s = b - A center``; starts at ``y = 0``.  A row the
    center violates (``s < 0``) blocks the first step towards it and then
    holds with equality, so the violation is repaired, not carried on.
    The KKT system is solved without rank truncation: at large ``M`` its
    smallest singular value falls below any relative cutoff while the
    working set stays independent.  Ties in blocking or dropped
    constraints break on the smallest index.
    """
    a_mat = qp.feasible_set.a_mat
    s = qp.feasible_set.b_vec - a_mat @ qp.center
    n = qp.center.shape[0]
    y = np.zeros(n)
    working = []
    for _ in range(_MAX_ACTIVE_SET_ITERS):
        # Equality-constrained step: min g@y + 0.5 y@M@y  s.t. A_W y = s_W.
        w = np.array(sorted(working), dtype=int)
        k = w.size
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = qp.m_mat
        rhs = np.zeros(n + k)
        rhs[:n] = -qp.g
        if k:
            kkt[:n, n:] = a_mat[w].T
            kkt[n:, :n] = a_mat[w]
            rhs[n:] = s[w]
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:  # dependent working set
            sol = np.linalg.lstsq(kkt, rhs)[0]
        y_star = sol[:n]
        lam = sol[n:]
        p = y_star - y
        if float(np.max(np.abs(p), initial=0.0)) <= 1e-13 * (1.0 + np.max(np.abs(y))):
            # Stationary on the working set; check multiplier signs.
            if k == 0 or np.all(lam >= -1e-11):
                return qp.center + y
            drop = int(w[lam < -1e-11].min())  # smallest-index rule
            working.remove(drop)
            continue
        # Step toward y_star, stopping at the first blocking constraint.
        alpha = 1.0
        block = -1
        a_p = a_mat @ p
        for row in range(a_mat.shape[0]):
            if row in working or a_p[row] <= 1e-14:
                continue
            limit = (s[row] - a_mat[row] @ y) / a_p[row]
            if limit < alpha - 1e-14:
                alpha = max(limit, 0.0)
                block = row
        y = y + alpha * p
        if block >= 0:
            working.append(block)
        elif alpha >= 1.0:
            continue  # reached the working-set minimiser; loop re-checks signs
    raise ConvergenceError(
        f"active-set method did not converge in {_MAX_ACTIVE_SET_ITERS} iterations",
        best=qp.center + y)
