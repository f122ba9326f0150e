"""Strictly convex proximal QP over one agent's polytope, as a projection.

The QP minimises

    q(x) = g @ (x - center) + 0.5 * (x - center) @ M @ (x - center)

over the agent's feasible set, with ``M`` symmetric positive definite.  Its
minimiser is the projection of the Newton point ``center - M^{-1} g`` onto
the set in the norm of ``M``, which :func:`solve_prox_qp` computes by
``Polytope.project`` (least distance by NNLS).  The inner loop's block
updates have ``M = m I``; they project a whole colour class by
``model._SetGroup.project`` and build no QP.  The exact check of the
projection, in any ``M``, is ``verify.enumerate_projection``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, StructureError
from .model import FEAS_TOL, Polytope

__all__ = ["ProxQp", "solve_prox_qp"]


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


def solve_prox_qp(qp: ProxQp):
    """Minimise the proximal QP over its feasible set; the center must lie
    in the set up to ``FEAS_TOL``.

    A diagonal ``M`` on a box, or a multiple of the identity on any
    polytope, gives a Euclidean projection of ``center - g / diag(M)`` (on
    a box, a clip).  Any other ``M = L L^T`` is projected in the
    coordinates ``y = L^T (x - center)``, onto
    ``{y : A L^{-T} y <= b - A center}``, and mapped back.

    Returns ``(minimizer, kkt_residual, active_set)``: the minimiser,
    feasible up to rounding; the distance of ``-grad q`` there to the
    normal cone; and the ascending indices of the active rows.  The last
    two come from ``Polytope.normal_cone_distance``.

    Raises ``PreconditionError`` if the center is infeasible or it or ``g``
    is not finite, and ``ConvergenceError`` at the NNLS iteration cap.
    """
    poly = qp.feasible_set
    viol = poly.violation(qp.center)
    if not viol <= FEAS_TOL:
        raise PreconditionError(f"QP center violates the feasible set by {viol:.3e}")
    m_mat = qp.m_mat
    diag = np.diag(m_mat)
    if np.array_equal(m_mat, np.diag(diag)) and (poly.is_box or np.all(diag == diag[0])):
        x = poly.project(qp.center - qp.g / diag)
    else:
        chol = np.linalg.cholesky(m_mat)
        # rows of A L^{-T}, and the Newton point L^{-1} (-g) in y
        scaled = Polytope(np.linalg.solve(chol, poly.a_mat.T).T,
                          poly.b_vec - poly.a_mat @ qp.center)
        y = scaled.project(-np.linalg.solve(chol, qp.g))
        x = qp.center + np.linalg.solve(chol.T, y)
    dist_sq, _, active = poly.normal_cone_distance(x, qp.gradient(x))
    return x, float(np.sqrt(dist_sq)), active
