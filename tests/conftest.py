import numpy as np
import pytest

from dist_alm import AgentSpec, BlockVector, MultiplierEstimate, Polytope
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


@pytest.fixture
def one_agent():
    return one_agent_problem()


def mu_like(problem, values):
    return MultiplierEstimate.from_flat(problem, np.asarray(values, dtype=float))


def zvec(*blocks):
    return BlockVector([np.atleast_1d(np.asarray(b, dtype=float)) for b in blocks])
