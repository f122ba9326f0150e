"""Independent checks: criticality residual, derivative tests, brute force.

The criticality residual ``d(0, grad L_rho(z, mu) + N_Z(z))`` is the
inexactness the inner loop drives below the outer tolerance.  One pass
takes it class by class over the problem's colour classes
(``NlpProblem._classes``, the layout the sweep walks): one gradient call
and one kernel call per class, and the inner loop's stop test may stop
after the first class above its target.  The kernel is that of
``Polytope.normal_cone_distance``: a closed form on boxes, else NNLS on the
rows active by ``ACTIVE_TOL``; ``kkt_report`` reads its multipliers from
the same pass.  The other routines are deliberately simple,
derivative-free or exhaustive oracles for the solver;
``enumerate_projection`` is the reference for ``Polytope.project``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError, RefusalError
from .model import (BlockVector, MultiplierEstimate, NlpProblem, Polytope,
                    _agent_constraint, _block_gradient, _block_gradients, _checked,
                    _check_finite, _constraints, _fold, _objective, _require_positive_rho,
                    _term_blocks, _term_derivative, _term_rows)

__all__ = [
    "KktReport",
    "brute_force_min",
    "criticality_residual",
    "enumerate_projection",
    "fd_gradient_check",
    "kkt_report",
    "regularity_check",
]

#: Cap on the row sets ``enumerate_projection`` solves for.
_MAX_KKT_SOLVES = 100_000
#: Cap on the grid points ``brute_force_min`` enumerates.
_MAX_GRID_POINTS = 2_000_000
#: Relative singular-value cutoff of :func:`regularity_check`'s rank test.
RANK_TOL = 1e-8
#: Central-difference step of :func:`fd_gradient_check`, times ``1 + |z_j|``.
FD_STEP = 1e-6


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
    """``min_{v in N_Z(z)} || grad L_rho(z, mu) + v ||_2``, the distance of
    the augmented-Lagrangian gradient to ``-N_Z(z)``; ``z`` must lie in the
    polytope up to ``model.FEAS_TOL`` and ``mu`` be finite."""
    _require_positive_rho(rho)
    problem.check_multiplier(mu)
    problem.check_membership(z)
    return _residual_and_gradients(problem, z, mu, rho)[0]


def _residual_and_gradients(problem, z, mu, rho, above=None, *, first=None):
    """:func:`criticality_residual` taken class by class
    (``NlpProblem._classes``) at a checked ``z``, and per class visited its
    ``(k, d)`` block gradients (``first`` for the first class if given; one
    ``_block_gradients`` call per class, or without ``above`` per block
    dimension) and the active-row masks and row multipliers of its
    ``_SetGroup.cone_parts``.

    With ``above``, the pass stops after the first class where the root of
    the squared distances so far, summed in agent order with ``0.0`` for
    every agent not yet visited, exceeds ``above``.  Rounded addition of
    nonnegative terms and the square root are monotone, so that value never
    exceeds the residual, bit for bit, and it proves ``residual > above``.
    """
    classes, dists, cones = problem._classes, np.zeros(problem.n_agents), []
    grads = [first, *(None for _ in classes[1:])]
    for c, cls in enumerate(classes):
        if grads[c] is None:
            share = [o for o in range(c, len(classes) if above is None else c + 1)
                     if grads[o] is None and classes[o].pos.shape[1] == cls.pos.shape[1]]
            rows, end = _block_gradients(problem, z.flat, mu, rho, cls.idx if len(share) == 1
                                         else np.concatenate([classes[o].idx for o in share])), 0
            for o in share:
                grads[o], end = rows[end:end + len(classes[o].idx)], end + len(classes[o].idx)
        dist_sq, *cone = cls.cone_parts(z.flat[cls.pos], grads[c])
        dists[cls.idx] = dist_sq
        cones.append(cone)
        if above is not None and (value := _root_of_sum(dists)) > above:
            return value, grads[:c + 1], cones
    return _root_of_sum(dists), grads, cones


def _root_of_sum(dists) -> float:
    """The square root of the squared distances ``dists`` added one by one,
    in their order (agent order for the residual)."""
    return float(np.sqrt(_fold(dists)))


def kkt_report(problem: NlpProblem, z: BlockVector, mu: MultiplierEstimate,
               rho: float) -> KktReport:
    """Assemble stationarity, feasibility, multipliers and regularity.

    ``stationarity`` equals :func:`criticality_residual`, and the
    multipliers and active rows come from the same normal-cone pass; the
    inputs are those of :func:`criticality_residual`.
    """
    _require_positive_rho(rho)
    problem.check_multiplier(mu)
    problem.check_membership(z)
    stationarity, _, cones = _residual_and_gradients(problem, z, mu, rho)
    lams, masks = [None] * problem.n_agents, [None] * problem.n_agents  # agent order
    for cls, (active, lam) in zip(problem._classes, cones):
        for k, i in enumerate(cls.idx.tolist()):
            lams[i], masks[i] = lam[k], active[k]
    h_val = _constraints(problem, z.flat)
    return KktReport(
        stationarity=stationarity,
        feasibility_inf=float(np.max(np.abs(h_val), initial=0.0)),
        active_rows=np.flatnonzero(np.concatenate(masks)),
        multipliers=np.concatenate(lams),
        regular=regularity_check(problem, z),
    )


def _oracle_lagrangian(problem, flat, mu, rho):
    """``J + mu @ H + (rho/2) ||H||^2`` from the evaluators at the flat point."""
    h_val = _constraints(problem, flat)
    return _objective(problem, flat) + float(mu.flatten() @ h_val) \
        + 0.5 * rho * float(h_val @ h_val)


def fd_gradient_check(problem: NlpProblem, z: BlockVector,
                      mu: MultiplierEstimate, rho: float) -> float:
    """Worst relative error of the block gradients vs central differences.

    The step is :data:`FD_STEP`, scaled per coordinate; every perturbed
    point must stay inside the polytope (membership up to
    ``model.FEAS_TOL``), and ``mu`` must be finite.
    """
    problem.check_block_structure(z)
    _require_positive_rho(rho)
    problem.check_multiplier(mu)
    worst = 0.0
    for i, agent in enumerate(problem.agents):
        grad = _block_gradient(problem, z.flat, mu, rho, np.array([i]))[0]
        fd = np.zeros_like(grad)
        start = problem._offsets[i]
        for j in range(agent.dim):
            step = FD_STEP * (1.0 + abs(z.flat[start + j]))
            hi, lo = z.flatten(), z.flatten()
            hi[start + j] += step
            lo[start + j] -= step
            if not all(agent.feasible_set.contains(pt[start:start + agent.dim])
                       for pt in (hi, lo)):
                raise PreconditionError(
                    f"block {i} is closer than {step:.1e} to its boundary "
                    f"in coordinate {j}")
            fd[j] = (_oracle_lagrangian(problem, hi, mu, rho)
                     - _oracle_lagrangian(problem, lo, mu, rho)) / (2.0 * step)
        scale = max(1.0, float(np.max(np.abs(grad), initial=0.0)))
        worst = max(worst, float(np.max(np.abs(fd - grad), initial=0.0)) / scale)
    return worst


def regularity_check(problem: NlpProblem, z: BlockVector) -> bool:
    """True iff the stacked constraint Jacobian has full row rank at ``z``
    (never with more equality constraints than variables)."""
    problem.check_block_structure(z)
    r, n = problem.r, problem.total_dim
    if r == 0:
        return True
    blocks = list(z.blocks)
    jac = np.zeros((r, n))
    row = col = 0
    for i, agent in enumerate(problem.agents):
        if agent.constraint is not None:
            jac[row:row + agent.constraint_dim, col:col + agent.dim] = _checked(
                agent.constraint_jac(blocks[i]), (agent.constraint_dim, agent.dim),
                "agent {} constraint Jacobian", i)
            row += agent.constraint_dim
        col += agent.dim
    coup, t = problem.coupling, np.arange(problem.coupling.terms.shape[0])
    if coup.term_constraint is not None and t.size:
        # every term's derivatives, from one call, at its rows and its blocks' columns
        outputs, rows = [], row + np.arange(problem.p).reshape(t.size, -1, 1)
        jacs = _term_derivative(coup.term_constraint_jac, t, _term_blocks(problem, z.flat),
                                coup.terms, "coupling constraint Jacobian of block {}",
                                outputs, (coup.constraint_rows,))
        _check_finite(outputs)
        for part, gather in zip(jacs, problem._term_gather):
            jac[rows, gather[:, None, :]] = part
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return False
    return int(np.sum(svals > RANK_TOL * svals[0])) == r


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
                    feasibility_band: float = None):
    """Exhaustive grid minimisation on tiny problems: the best grid point
    and its value, ``(BlockVector, float)``.

    Minimises the objective over the grid points with every equality within
    ``feasibility_band`` (required with equalities).  Raises
    ``RefusalError`` on more than four variables, an empty band, or more
    than ``_MAX_GRID_POINTS`` combinations.
    """
    if problem.total_dim > 4:
        raise RefusalError(
            f"brute force is limited to 4 variables, problem has {problem.total_dim}"
        )
    if not (grid_step > 0 and math.isfinite(grid_step)):
        raise PreconditionError(f"grid step must be finite and positive, got {grid_step}")
    if problem.r > 0 and feasibility_band is None:
        raise ConfigurationError(
            "a feasibility band is required when equality constraints are present"
        )
    grids = _block_grids(problem, grid_step)

    if feasibility_band is not None:
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
    if combos > _MAX_GRID_POINTS:
        raise RefusalError(
            f"grid would enumerate {combos} combinations (cap {_MAX_GRID_POINTS})"
        )
    if combos == 0:
        raise RefusalError("empty grid")

    check_coupling_band = feasibility_band is not None and problem.p > 0
    terms = np.arange(problem.coupling.terms.shape[0])
    best_val, best = np.inf, None
    for combo in itertools.product(*grids):
        flat = np.concatenate(combo)
        if check_coupling_band:
            g_val = _term_rows(problem, terms, _term_blocks(problem, flat))
            if np.max(np.abs(g_val)) > feasibility_band:
                continue
        val = _objective(problem, flat)
        if val < best_val:
            best_val, best = val, flat
    if best is None:
        raise RefusalError(
            "no grid point satisfies the coupling feasibility band"
        )
    return BlockVector.from_flat(best, problem.block_dims), float(best_val)


def enumerate_projection(poly: Polytope, v, m_mat=None):
    """Point of ``poly`` nearest to ``v`` in the norm of ``M`` (default ``I``).

    Exhaustive, and sharing no code with ``Polytope.project``: every set
    ``S`` of at most ``dim`` rows gives one KKT solve of ``M x + A_S^T lam
    = M v, A_S x = b_S``, stacked per set size; a set whose LU meets an
    exactly zero pivot (where ``solve`` raises ``LinAlgError``) is skipped.
    The solution that violates ``A x <= b``, ``lam >= 0`` and its own
    equations (the stationarity rows divided by ``max|M|``) least is the
    minimiser, so no tolerance decides between near-degenerate sets.
    Raises ``StructureError`` if ``v`` is not a vector of the polytope's
    dimension, ``RefusalError`` on more than ``_MAX_KKT_SOLVES`` sets, or when
    no set comes within ``1e-9 (1 + max|v| + max|b|)`` of those conditions.
    """
    a_mat, b_vec, (rows, n) = poly.a_mat, poly.b_vec, poly.a_mat.shape
    v = poly._point(v)
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
