import numpy as np
import pytest

import dataclasses

from dist_alm import (AgentSpec, BlockVector, CouplingSpec, MultiplierEstimate,
                      NlpProblem, Polytope, ProxQp, ToyParams, default_start, generate_toy,
                      toy_initial_guess)
from dist_alm.bench import one_agent_problem


def quadratic_agent(p_mat, lower, upper):
    """0.5 x.T P x cost with no equality constraints."""
    p_mat = np.asarray(p_mat, dtype=float)

    def cost(x, _p=p_mat):
        return float(0.5 * x @ _p @ x)

    def cost_grad(x, _p=p_mat):
        return _p @ x

    return AgentSpec(cost=cost, cost_grad=cost_grad,
                     feasible_set=Polytope.box(lower, upper))


def linear_agent(c_vec, lower, upper):
    c_vec = np.asarray(c_vec, dtype=float)
    return AgentSpec(
        cost=lambda x, _c=c_vec: float(_c @ x),
        cost_grad=lambda x, _c=c_vec: np.array(_c),
        feasible_set=Polytope.box(lower, upper),
    )


def box_with_cuts(box, rng, cuts=4):
    """The rows of a box symmetric about 0, then ``cuts`` unit-normal cuts.

    Per cut, a standard-normal direction scaled to unit length, then its
    offset, U[0.3, 0.9] times the largest value the direction takes on the
    box; every cut meets the box and keeps the origin strictly inside.
    """
    a_cut = rng.standard_normal((cuts, box.dim))
    a_cut /= np.linalg.norm(a_cut, axis=1)[:, None]
    b_cut = rng.uniform(0.3, 0.9, cuts) * (np.abs(a_cut) @ box.upper)
    return Polytope(np.vstack([box.a_mat, a_cut]), np.concatenate([box.b_vec, b_cut]))


def cut_chain(seed, n_agents=6):
    """A toy chain (d=3, R=2) whose boxes each carry four random cuts.

    The cuts come from ``default_rng(seed + 0x5A17)``, agent by agent; the
    start is the Chebyshev centre of each polytope with the toy's seeded
    multipliers.
    """
    params = ToyParams(n_agents=n_agents, block_dim=3, scale=2.0, seed=seed)
    chain = generate_toy(params)
    rng = np.random.default_rng(seed + 0x5A17)
    agents = tuple(dataclasses.replace(a, feasible_set=box_with_cuts(a.feasible_set, rng))
                   for a in chain.agents)
    problem = NlpProblem(agents=agents, coupling=chain.coupling)
    _, mu0 = toy_initial_guess(params, chain)
    return problem, default_start(problem), mu0


def mixed_sets_problem(seed):
    """Seven agents without coupling whose sets form four groups, interleaved:
    boxes of dimension 3 (agents 0 and 4) and 2 (agents 2 and 6), 3-D boxes
    with four cuts (agents 1 and 5) and, alone, a 2-D box with two cuts
    (agent 3).  Bounds, cuts and the costs ``0.5 x.T P x + c @ x`` come from
    ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    agents = []
    for kind, d in (("box", 3), ("cut", 3), ("box", 2), ("cut", 2), ("box", 3),
                    ("cut", 3), ("box", 2)):
        bound = rng.uniform(0.5, 2.0, d)
        root, c_vec = rng.standard_normal((d, d)), rng.standard_normal(d)
        p_mat = root @ root.T
        poly = Polytope.box(-bound, bound)
        if kind == "cut":
            poly = box_with_cuts(poly, rng, cuts=4 if d == 3 else 2)
        agents.append(AgentSpec(
            cost=lambda x, p=p_mat, c=c_vec: float(0.5 * x @ p @ x + c @ x),
            cost_grad=lambda x, p=p_mat, c=c_vec: p @ x + c, feasible_set=poly))
    return NlpProblem(agents=tuple(agents))


def unit_simplex():
    """``{x in R^3 : 0 <= x <= 1, x_1 + x_2 + x_3 <= 1}``: seven rows, with
    four of them active at the vertex 0 and at each unit vector."""
    return Polytope(np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))]),
                    np.r_[np.ones(3), np.zeros(3), 1.0])


def stiff_qp():
    """A block QP at the scale of rho = 1e7 on the full benchmark schedule.

    ``M = 3e8 I`` over the box [-1.2, 1.2]^3 given as a general polytope
    (its six rows and the redundant ``x_0 + x_1 + x_2 <= 4``, so it is no
    box), centred on the face ``x_1 = 1.2`` with a gradient that pushes
    through it.  The minimiser lies on that face: it is the projection of
    ``center - g / 3e8 = (0.6005, 1.201, -0.4003)``.  A KKT solve with a
    relative rank cutoff drops the face row here and overshoots the face
    by 1e-3.  ``dist-alm verify`` checks the same projection.
    """
    eye = np.eye(3)
    return ProxQp(g=3e8 * np.array([-5e-4, -1e-3, 3e-4]), m_mat=3e8 * eye,
                  center=np.array([0.6, 1.2, -0.4]),
                  feasible_set=Polytope(np.vstack([eye, -eye, np.ones((1, 3))]),
                                        np.r_[np.full(6, 1.2), 4.0]))


def nnls_at_cap(*args, **kwargs):
    """Stand-in for ``scipy.optimize.nnls`` that stops at its iteration cap."""
    raise RuntimeError("Maximum number of iterations reached.")


@pytest.fixture
def one_agent():
    return one_agent_problem()


def mu_like(problem, values):
    return MultiplierEstimate.from_flat(problem, np.asarray(values, dtype=float))


def zvec(*blocks):
    return BlockVector([np.atleast_1d(np.asarray(b, dtype=float)) for b in blocks])


def _site_cost_grad(t, x):
    """Gradients of ``x_0 @ x_1 + x_1 @ x_2`` in its three blocks."""
    return x[1], x[0] + x[2], x[1]


def site_problem(site=None, bad=None):
    """Three agents with 2-D boxes, one constraint each, and a coupling of
    one term over all three blocks: the chain cost ``x_0 @ x_1 + x_1 @
    x_2`` and the row ``x_0[0] + x_1[0] + x_2[0]``, so that every pair of
    agents interacts.

    With ``site`` (an ``AgentSpec`` or ``CouplingSpec`` field, the latter
    prefixed ``coupling.``), that evaluator returns ``bad``: for agent 1
    only, for the coupling's derivatives only in block 1 (the term's
    second position), and for the coupling's values always, once per term
    of the call.
    """
    agents = [AgentSpec(cost=lambda x: float(x @ x), cost_grad=lambda x: 2.0 * x,
                        feasible_set=Polytope.box([-1.0, -1.0], [1.0, 1.0]),
                        constraint=lambda x: np.array([x[0] + x[1]]),
                        constraint_jac=lambda x: np.array([[1.0, 1.0]]),
                        constraint_dim=1)
              for _ in range(3)]
    one_row = np.array([[1.0, 0.0]])
    coupling = CouplingSpec(
        terms=np.array([[0, 1, 2]]),
        term_cost=lambda t, x: _row_dots(x[0], x[1]) + _row_dots(x[1], x[2]),
        term_cost_grad=_site_cost_grad,
        term_constraint=lambda t, x: (x[0][:, :1] + x[1][:, :1]) + x[2][:, :1],
        term_constraint_jac=lambda t, x: (np.tile(one_row, (len(t), 1, 1)),) * 3,
        constraint_rows=1)
    if site is not None and site.startswith("coupling."):
        name = site.split(".")[1]
        good = getattr(coupling, name)

        def stacked(t):
            return np.tile(bad, (len(t),) + (1,) * np.ndim(bad))

        if name in ("term_cost", "term_constraint"):
            evaluator = lambda t, x: stacked(t)  # noqa: E731
        else:
            evaluator = lambda t, x: (good(t, x)[0], stacked(t), good(t, x)[2])  # noqa: E731
        coupling = dataclasses.replace(coupling, **{name: evaluator})
    elif site is not None:
        agents[1] = dataclasses.replace(agents[1], **{site: lambda x: bad})
    return NlpProblem(agents=tuple(agents), coupling=coupling)


def _row_dots(a, b):
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# The per-agent evaluation written out plainly, one evaluator output and one
# coupling term at a time: the reference that the solver's per-agent path
# must equal bitwise.

def _as_vector(raw):
    return np.asarray(raw, dtype=float).reshape(-1)


def _as_matrix(raw):
    return np.atleast_2d(np.asarray(raw, dtype=float))


def _term_at(coupling, t, blocks):
    """Term ``t``'s index array and blocks, as a one-term evaluator call."""
    return np.array([t]), tuple(blocks[i][None] for i in coupling.terms[t].tolist())


def _incident(coupling, i):
    """Agent ``i``'s ``(term, position)`` pairs, in term order."""
    return [(t, tup.index(i)) for t, tup in enumerate(coupling.terms.tolist()) if i in tup]


def _term_value(coupling, t, blocks, mu, rho):
    """``q_t + mu_t @ g_t + (rho/2) ||g_t||^2`` of term ``t`` at ``blocks``."""
    at = _term_at(coupling, t, blocks)
    value = 0.0 if coupling.term_cost is None else float(coupling.term_cost(*at)[0])
    if coupling.term_constraint is not None:
        g_val = _as_vector(coupling.term_constraint(*at))
        mu_t = mu.coupling_part.reshape(-1, coupling.constraint_rows)[t]
        value += float(mu_t @ g_val) + 0.5 * rho * float(g_val @ g_val)
    return value


def reference_gradients(problem, flat, mu, rho, idx):
    """``grad J_i + Jac F_i.T (mu_i + rho F_i)``, then for each incident
    term ``t`` in term order, from a zero vector, ``grad_i q_t + Jac_i
    g_t.T (mu_t + rho g_t)``, for each agent of ``idx`` at ``flat`` (or at
    each row of it), one row per agent."""
    if flat.ndim == 2:
        return np.array([reference_gradients(problem, f, mu, rho, idx) for f in flat])
    blocks = list(BlockVector.from_flat(flat, problem.block_dims).blocks)
    coup, grads = problem.coupling, []
    for i in idx.tolist():
        agent, x_i = problem.agents[i], blocks[i]
        grad = _as_vector(agent.cost_grad(x_i))
        if agent.constraint is not None:
            f_val = _as_vector(agent.constraint(x_i))
            grad = grad + _as_matrix(agent.constraint_jac(x_i)).T @ (mu.part(i) + rho * f_val)
        terms = []
        for t, j in _incident(coup, i):
            at = _term_at(coup, t, blocks)
            part = None if coup.term_cost is None else coup.term_cost_grad(*at)[j][0]
            if coup.term_constraint is not None:
                g_val = coup.term_constraint(*at)[0]
                mu_t = mu.coupling_part.reshape(-1, coup.constraint_rows)[t]
                g_part = coup.term_constraint_jac(*at)[j][0].T @ (mu_t + rho * g_val)
                part = g_part if part is None else part + g_part
            terms.append(part)
        if terms:
            total = np.zeros(grad.shape)
            for part in terms:
                total = total + part
            grad = grad + total
        grads.append(grad)
    return np.array(grads)


def reference_values(problem, flat, mu, rho, idx, trial=None):
    """Per agent of ``idx``, its local term at its trial block and the change
    of the coupling term when only that block moves (see ``NlpProblem``):
    its incident terms' new values minus their old ones, in term order,
    added to ``0.0``."""
    blocks = list(BlockVector.from_flat(flat, problem.block_dims).blocks)
    coup, local, coupling = problem.coupling, [], []
    for row, i in enumerate(idx.tolist()):
        agent = problem.agents[i]
        x_i = blocks[i] if trial is None else trial[row]
        value = float(agent.cost(x_i))
        if agent.constraint is not None:
            f_val = _as_vector(agent.constraint(x_i))
            value += float(mu.part(i) @ f_val) + 0.5 * rho * float(f_val @ f_val)
        local.append(value)
        moved = [*blocks[:i], x_i, *blocks[i + 1:]]
        change = 0.0
        for t, _ in _incident(coup, i) if trial is not None else ():
            change += (_term_value(coup, t, moved, mu, rho)
                       - _term_value(coup, t, blocks, mu, rho))
        coupling.append(change)
    return np.array(local), np.array(coupling)


def reference_constraints(problem, z):
    """``(F_0, ..., F_{N-1}, G)`` at ``z``, ``G`` term by term."""
    blocks, coup = list(z.blocks), problem.coupling
    pieces = [_as_vector(a.constraint(x)) for a, x in zip(problem.agents, blocks)
              if a.constraint is not None]
    if coup.term_constraint is not None:
        pieces += [_as_vector(coup.term_constraint(*_term_at(coup, t, blocks)))
                   for t in range(coup.terms.shape[0])]
    return np.concatenate([np.zeros(0), *pieces])


def mixed_class_chain(seed=9):
    """A six-agent toy chain without hooks whose agents 1 and 2 carry cut
    boxes, so that each colour class holds boxes and cut boxes."""
    params = ToyParams(n_agents=6, block_dim=3, scale=2.0, seed=seed)
    chain = generate_toy(params)
    rng = np.random.default_rng(seed)
    agents = list(chain.agents)
    for i in (1, 2):
        agents[i] = dataclasses.replace(agents[i], feasible_set=box_with_cuts(
            agents[i].feasible_set, rng))
    problem = NlpProblem(agents=tuple(agents), coupling=chain.coupling)
    _, mu0 = toy_initial_guess(params, chain)
    return problem, default_start(problem), mu0
