"""Independent checks: criticality residual, derivative tests, brute force.

The criticality residual measures the distance of the augmented-Lagrangian
gradient to the negative normal cone of the feasible polytope,

    d(0, grad L_rho(z, mu) + N_Z(z)),

which is the inexactness the inner loop must drive below the outer loop's
tolerance.  The per-block distance and the active rows come from
``Polytope.normal_cone_distance``, which holds the active-row tolerance
``ACTIVE_TOL``: boxes use the per-coordinate closed form; general polytopes
reconstruct inequality multipliers by nonnegative least squares on the
active rows.  The remaining routines are deliberately simple, derivative-
free or exhaustive, so they can serve as oracles for the solver itself;
``enumerate_projection`` is the reference for ``Polytope.project``, which
solves one least-distance problem by nonnegative least squares.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError, RefusalError
from .model import (BlockVector, MultiplierEstimate, NlpProblem, Polytope,
                    _agent_constraint, _agent_jacobian, _block_gradient,
                    _block_gradients, _box_cone_parts, _constraints,
                    _coupling_constraint, _coupling_jacobian, _objective,
                    _row_dots)

__all__ = [
    "KktReport",
    "brute_force_min",
    "criticality_residual",
    "enumerate_projection",
    "fd_gradient_check",
    "kkt_report",
    "regularity_check",
]

log = logging.getLogger(__name__)

#: Cap on the row sets ``enumerate_projection`` solves for.
_MAX_KKT_SOLVES = 100_000


@dataclass
class KktReport:
    """Snapshot of the approximate KKT conditions at a point.

    ``multipliers`` holds the reconstructed inequality multipliers for all
    polytope rows in stacked agent order (zero on inactive rows).
    """

    stationarity: float
    feasibility_inf: float
    active_rows: np.ndarray
    multipliers: np.ndarray
    regular: bool


def criticality_residual(problem: NlpProblem, z: BlockVector,
                         mu: MultiplierEstimate, rho: float) -> float:
    """Distance of the augmented-Lagrangian gradient to -N_Z(z).

    Parameters
    ----------
    problem, z, mu, rho
        Point and dual data; ``z`` must lie in the polytope up to
        ``model.FEAS_TOL``.

    Returns
    -------
    float
        ``min_{v in N_Z(z)} || grad L_rho(z, mu) + v ||_2``.
    """
    return _residual_and_gradients(problem, z, mu, rho)[0]


def _residual_and_gradients(problem, z, mu, rho):
    """:func:`criticality_residual` and the gradients of every block it was
    taken from (one ``_block_gradients`` call).  When every set is a box of
    one dimension, the squared distances are the box closed form over the
    ``(N, d)`` stack, each equal to the per-block value bitwise."""
    problem.check_membership(z)
    grads = _block_gradients(problem, z.flat, mu, rho, np.arange(problem.n_agents))
    boxes = problem._stacked_boxes
    if boxes is None:
        dists = [a.feasible_set.normal_cone_distance(x, g)[0]
                 for a, x, g in zip(problem.agents, z.blocks, grads)]
    else:
        x = z.flat.reshape(problem.n_agents, -1)
        _, _, res = _box_cone_parts(x, np.asarray(grads), *boxes)
        dists = _row_dots(res, res).tolist()
    total = 0.0
    for dist_sq in dists:  # in agent order
        total += dist_sq
    return float(np.sqrt(total)), grads


def kkt_report(problem: NlpProblem, z: BlockVector, mu: MultiplierEstimate,
               rho: float, rank_tol: float = 1e-8) -> KktReport:
    """Assemble stationarity, feasibility, multipliers and regularity.

    ``stationarity`` equals :func:`criticality_residual`; ``z`` must lie in
    the polytope up to ``model.FEAS_TOL``.
    """
    stationarity, grads = _residual_and_gradients(problem, z, mu, rho)
    lams, actives = [], []
    offset = 0
    for agent, x, grad in zip(problem.agents, z.blocks, grads):
        _, lam, active = agent.feasible_set.normal_cone_distance(x, grad)
        lams.append(lam)
        actives.append(offset + active)
        offset += lam.shape[0]
    h_val = _constraints(problem, list(z.blocks))
    return KktReport(
        stationarity=stationarity,
        feasibility_inf=float(np.max(np.abs(h_val), initial=0.0)),
        active_rows=np.concatenate(actives),
        multipliers=np.concatenate(lams),
        regular=regularity_check(problem, z, rank_tol),
    )


def _oracle_lagrangian(problem, blocks, mu, rho):
    """``J + mu @ H + (rho/2) ||H||^2`` from the per-agent evaluators."""
    h_val = _constraints(problem, blocks)
    return _objective(problem, blocks) + float(mu.flatten() @ h_val) \
        + 0.5 * rho * float(h_val @ h_val)


def fd_gradient_check(problem: NlpProblem, z: BlockVector,
                      mu: MultiplierEstimate, rho: float,
                      h: float = 1e-6) -> float:
    """Worst relative error of the block gradients vs central differences.

    The step is scaled per coordinate as ``h * (1 + |z_j|)``; every
    perturbed point must stay inside the polytope, otherwise the interior
    margin precondition is violated (membership up to ``model.FEAS_TOL``).
    """
    problem.check_block_structure(z)
    if h <= 0:
        raise PreconditionError("step must be positive")
    blocks = list(z.blocks)
    worst = 0.0
    for i, agent in enumerate(problem.agents):
        grad = _block_gradient(problem, blocks, mu, rho, i)
        fd = np.zeros_like(grad)
        for j in range(agent.dim):
            step = h * (1.0 + abs(blocks[i][j]))
            hi, lo = list(blocks), list(blocks)
            hi[i], lo[i] = np.array(blocks[i]), np.array(blocks[i])
            hi[i][j] += step
            lo[i][j] -= step
            if not all(agent.feasible_set.contains(pt)
                       for pt in (hi[i], lo[i])):
                raise PreconditionError(
                    f"block {i} is closer than {step:.1e} to its boundary "
                    f"in coordinate {j}")
            fd[j] = (_oracle_lagrangian(problem, hi, mu, rho)
                     - _oracle_lagrangian(problem, lo, mu, rho)) / (2.0 * step)
        scale = max(1.0, float(np.max(np.abs(grad), initial=0.0)))
        worst = max(worst, float(np.max(np.abs(fd - grad), initial=0.0)) / scale)
    return worst


def regularity_check(problem: NlpProblem, z: BlockVector,
                     rank_tol: float = 1e-8) -> bool:
    """True iff the stacked constraint Jacobian has full row rank at ``z``.

    Returns ``False`` with a logged diagnostic when there are more equality
    constraints than variables.
    """
    problem.check_block_structure(z)
    r, n = problem.r, problem.total_dim
    if r == 0:
        return True
    if r > n:
        log.warning("regularity impossible: r=%d equality rows exceed n=%d", r, n)
        return False
    blocks = list(z.blocks)
    jac = np.zeros((r, n))
    row = col = 0
    for i, agent in enumerate(problem.agents):
        if agent.constraint is not None:
            jac[row:row + agent.constraint_dim, col:col + agent.dim] = \
                _agent_jacobian(problem, blocks[i], i)
            row += agent.constraint_dim
        col += agent.dim
    if problem.coupling.constraint is not None:
        col = 0
        for i, agent in enumerate(problem.agents):
            jac[row:, col:col + agent.dim] = _coupling_jacobian(problem, blocks, i)
            col += agent.dim
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return False
    return int(np.sum(svals > rank_tol * svals[0])) == r


def _block_grids(problem: NlpProblem, grid_step: float):
    """Per-block lists of grid points spanning each box."""
    grids = []
    for i, agent in enumerate(problem.agents):
        poly = agent.feasible_set
        if not poly.is_box:
            raise RefusalError(
                f"brute force requires box feasible sets, agent {i} is a polytope"
            )
        axes = []
        for lo, hi in zip(poly.lower, poly.upper):
            count = int(np.floor((hi - lo) / grid_step + 1e-12))
            axes.append(lo + grid_step * np.arange(count + 1))
        pts = np.array(list(itertools.product(*axes)))
        grids.append(pts)
    return grids


def brute_force_min(problem: NlpProblem, grid_step: float,
                    feasibility_band: float = None,
                    mu: MultiplierEstimate = None, rho: float = None,
                    max_points: int = 2_000_000):
    """Exhaustive grid minimisation on tiny problems.

    With ``mu``/``rho`` given, minimises the augmented Lagrangian over the
    full grid.  Otherwise minimises the objective restricted to grid points
    with every equality within ``feasibility_band`` (required whenever the
    problem has equality constraints).

    Returns
    -------
    (BlockVector, float)
        Best grid point and its value.

    Raises
    ------
    RefusalError
        On more than four variables, an empty feasibility band, or a grid
        larger than ``max_points`` combinations.
    """
    if problem.total_dim > 4:
        raise RefusalError(
            f"brute force is limited to 4 variables, problem has {problem.total_dim}"
        )
    if grid_step <= 0:
        raise PreconditionError("grid step must be positive")
    lagrangian_mode = mu is not None or rho is not None
    if lagrangian_mode and (mu is None or rho is None):
        raise ConfigurationError("augmented-Lagrangian mode needs both mu and rho")
    if not lagrangian_mode and problem.r > 0 and feasibility_band is None:
        raise ConfigurationError(
            "a feasibility band is required when equality constraints are present"
        )
    grids = _block_grids(problem, grid_step)

    if not lagrangian_mode and feasibility_band is not None:
        kept = []
        for i, pts in enumerate(grids):
            if problem.agents[i].constraint is None:
                kept.append(pts)
                continue
            mask = np.array([np.max(np.abs(_agent_constraint(problem, p, i)))
                             <= feasibility_band for p in pts])
            kept.append(pts[mask])
            if kept[-1].shape[0] == 0:
                raise RefusalError(
                    f"no grid point of agent {i} satisfies |F_{i}| <= "
                    f"{feasibility_band:g} at step {grid_step:g}"
                )
        grids = kept

    combos = 1
    for pts in grids:
        combos *= pts.shape[0]
    if combos > max_points:
        raise RefusalError(
            f"grid would enumerate {combos} combinations (cap {max_points})"
        )
    if combos == 0:
        raise RefusalError("empty grid")

    check_coupling_band = (not lagrangian_mode and feasibility_band is not None
                           and problem.coupling.constraint is not None)
    best_val, best_blocks = np.inf, None
    for combo in itertools.product(*grids):
        blocks = [np.array(c) for c in combo]
        if check_coupling_band:
            g_val = _coupling_constraint(problem, blocks)
            if g_val.size and np.max(np.abs(g_val)) > feasibility_band:
                continue
        if lagrangian_mode:
            val = _oracle_lagrangian(problem, blocks, mu, rho)
        else:
            val = _objective(problem, blocks)
        if val < best_val:
            best_val, best_blocks = val, blocks
    if best_blocks is None:
        raise RefusalError(
            "no grid point satisfies the coupling feasibility band"
        )
    return BlockVector(best_blocks), float(best_val)


def enumerate_projection(poly: Polytope, v, m_mat=None):
    """Point of ``poly`` nearest to ``v`` in the norm of ``M`` (default ``I``).

    Exhaustive, and sharing no code with ``Polytope.project``: every set
    ``S`` of at most ``dim`` rows gives one KKT solve of ``M x + A_S^T lam
    = M v, A_S x = b_S``, stacked per set size; a set whose LU meets an
    exactly zero pivot (where ``solve`` raises ``LinAlgError``) is skipped.
    The solution that violates ``A x <= b``, ``lam >= 0`` and its own
    equations (the stationarity rows divided by ``max|M|``) least is the
    minimiser, so no tolerance decides between near-degenerate sets.
    Raises ``RefusalError`` on more than ``_MAX_KKT_SOLVES`` sets, or when no
    set comes within ``1e-9 (1 + max|v| + max|b|)`` of those conditions.
    """
    a_mat, b_vec, n, rows = poly.a_mat, poly.b_vec, poly.dim, poly.n_rows
    v = np.asarray(v, dtype=float)
    m_mat = np.eye(n) if m_mat is None else np.asarray(m_mat, dtype=float)
    sizes = range(min(n, rows) + 1)
    if sum(math.comb(rows, k) for k in sizes) > _MAX_KKT_SOLVES:
        raise RefusalError(f"enumeration needs more than {_MAX_KKT_SOLVES} "
                           f"KKT solves (cap)")
    best, best_gap = None, np.inf
    for k in sizes:
        sets = np.array(list(itertools.combinations(range(rows), k)),
                        dtype=int).reshape(math.comb(rows, k), k)
        kkt = np.zeros((sets.shape[0], n + k, n + k))
        kkt[:, :n, :n] = m_mat
        kkt[:, n:, :n] = a_mat[sets]
        kkt[:, :n, n:] = a_mat[sets].transpose(0, 2, 1)
        rhs = np.hstack([np.tile(m_mat @ v, (sets.shape[0], 1)), b_vec[sets]])
        solvable = np.linalg.det(kkt) != 0.0
        kkt, rhs = kkt[solvable], rhs[solvable]
        sol = np.linalg.solve(kkt, rhs[:, :, None])[:, :, 0]
        # a nearly singular system can pass the pivot test with a solution
        # that misses its own equations; the miss counts as a violation
        miss = np.abs((kkt @ sol[:, :, None])[:, :, 0] - rhs)
        miss[:, :n] /= np.max(np.abs(m_mat))
        gap = np.maximum.reduce([np.max(sol[:, :n] @ a_mat.T - b_vec, axis=1),
                                 -np.min(sol[:, n:], axis=1, initial=0.0),
                                 np.max(miss, axis=1, initial=0.0)])
        if gap.size and gap.min() < best_gap:
            best, best_gap = sol[gap.argmin(), :n], float(gap.min())
    if not best_gap <= 1e-9 * (1.0 + np.max(np.abs(v)) + np.max(np.abs(b_vec))):
        raise RefusalError(f"no active set satisfies the KKT conditions "
                           f"(least violation {best_gap:.3e})")
    return best
