import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dist_alm import (AgentSpec, BlockVector, ConvergenceError, CouplingSpec,
                      EvaluationError, InnerConfig, MultiplierEstimate, NlpProblem,
                      OuterConfig, Polytope, PreconditionError, StructureError,
                      ToyParams, bcd_sweep, color_interaction_graph,
                      criticality_residual, default_start, eval_aug_lagrangian,
                      eval_block_gradient, eval_constraints, generate_toy,
                      kkt_report, run_inner, run_outer, toy_initial_guess)
from dist_alm import model
from dist_alm.model import FEAS_TOL
from conftest import (box_with_cuts, cut_chain, mu_like, nnls_at_cap, quadratic_agent,
                      site_problem, unit_simplex, zvec)


def two_agent_coupled():
    """Two scalar agents with a scalar coupling constraint x0 + x1 = 0."""
    agents = (
        AgentSpec(
            cost=lambda x: float(x[0] ** 2),
            cost_grad=lambda x: np.array([2 * x[0]]),
            feasible_set=Polytope.box([-3.0], [3.0]),
            constraint=lambda x: np.array([x[0] - 1.0]),
            constraint_jac=lambda x: np.array([[1.0]]),
            constraint_dim=1,
        ),
        AgentSpec(
            cost=lambda x: float(3.0 * x[0]),
            cost_grad=lambda x: np.array([3.0]),
            feasible_set=Polytope.box([-3.0], [3.0]),
            constraint=lambda x: np.array([x[0] + 2.0]),
            constraint_jac=lambda x: np.array([[1.0]]),
            constraint_dim=1,
        ),
    )
    coupling = CouplingSpec(
        cost=lambda blocks: float(blocks[0][0] * blocks[1][0]),
        cost_block_grad=lambda blocks, i: np.array([blocks[1 - i][0]]),
        constraint=lambda blocks: np.array([blocks[0][0] + blocks[1][0]]),
        constraint_block_jac=lambda blocks, i: np.array([[1.0]]),
        constraint_dim=1,
        edges={(0, 1)},
    )
    return NlpProblem(agents=agents, coupling=coupling)


class TestStacking:
    def test_order_is_agents_then_coupling(self):
        problem = two_agent_coupled()
        z = zvec([0.5], [-0.25])
        h = eval_constraints(problem, z)
        assert h.shape == (3,)
        np.testing.assert_allclose(h, [0.5 - 1.0, -0.25 + 2.0, 0.25])

    def test_one_agent_feasible_point(self, one_agent):
        h = eval_constraints(one_agent, zvec([1.0]))
        np.testing.assert_array_equal(h, [0.0])

    def test_toy_on_sphere_zeroes_agent_rows(self):
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=3)
        problem = generate_toy(params)
        # point on the sphere along (1,1,1), inside the box
        coord = params.sphere_radius / np.sqrt(3.0)
        z = BlockVector([np.full(3, coord) for _ in range(4)])
        h = eval_constraints(problem, z)
        np.testing.assert_allclose(h[:4], 0.0, atol=1e-12)

    def test_dimension_mismatch_is_structural(self, one_agent):
        with pytest.raises(StructureError):
            eval_constraints(one_agent, zvec([1.0, 2.0]))


class TestAugLagrangian:
    def test_penalty_vanishes_on_feasible_point(self, one_agent):
        z = zvec([1.0])
        for mu_val, rho in [(0.0, 1.0), (5.0, 2.0), (-3.0, 10.0)]:
            val = eval_aug_lagrangian(one_agent, z, mu_like(one_agent, [mu_val]), rho)
            assert val == pytest.approx(1.0, abs=1e-14)

    def test_hand_arithmetic(self, one_agent):
        val = eval_aug_lagrangian(one_agent, zvec([0.0]), mu_like(one_agent, [1.0]), 2.0)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_feasible_point_equals_objective(self, one_agent):
        val = eval_aug_lagrangian(one_agent, zvec([1.0]), mu_like(one_agent, [-1.0]), 10.0)
        assert val == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(
        z_val=st.floats(-3, 3),
        mu_vals=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
        delta=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
        rho=st.floats(0.01, 100),
    )
    def test_linearity_in_mu(self, z_val, mu_vals, delta, rho):
        problem = two_agent_coupled()
        z = zvec([z_val], [-z_val / 2.0])
        mu = mu_like(problem, mu_vals)
        mu_shift = mu_like(problem, np.array(mu_vals) + np.array(delta))
        h = eval_constraints(problem, z)
        lhs = (eval_aug_lagrangian(problem, z, mu_shift, rho)
               - eval_aug_lagrangian(problem, z, mu, rho))
        assert lhs == pytest.approx(float(np.asarray(delta) @ h), abs=1e-10, rel=1e-10)

    @pytest.mark.parametrize("hooks", [True, False], ids=["hooks", "per_agent"])
    @pytest.mark.parametrize("rho", [0.1, 10.0, 1e3])
    def test_sum_of_local_and_coupling_terms(self, hooks, rho):
        # one definition: the exactly rounded sum of the per-agent local
        # terms and the coupling term, whichever path evaluates them
        params = ToyParams(n_agents=7, block_dim=3, scale=2.0, seed=21)
        problem = generate_toy(params)
        if not hooks:
            problem = dataclasses.replace(problem, block_gradients=None,
                                          block_values=None)
        z, mu = toy_initial_guess(params, problem)
        cases = [(problem, z, mu), (site_problem(), zvec([0.1, 0.2], [0.3, -0.4],
                                                         [-0.5, 0.6]),
                                    mu_like(site_problem(), [0.5, -1.0, 2.0, 0.25]))]
        for prob, point, mult in cases:
            blocks = point.blocks
            terms = [model._agent_local_value(
                prob, blocks[i], mult.part(i) if a.constraint is not None else None,
                rho, i) for i, a in enumerate(prob.agents)]
            terms.append(model._coupling_value(prob, list(blocks), mult.coupling_part,
                                               rho))
            assert eval_aug_lagrangian(prob, point, mult, rho) == math.fsum(terms)

    def test_nonfinite_cost_carries_agent_index(self):
        bad = NlpProblem(agents=(
            AgentSpec(cost=lambda x: float("nan"),
                      cost_grad=lambda x: np.zeros(1),
                      feasible_set=Polytope.box([-1.0], [1.0])),
        ))
        with pytest.raises(EvaluationError) as err:
            eval_aug_lagrangian(bad, zvec([0.0]), MultiplierEstimate.zeros(bad), 1.0)
        assert err.value.agent == 0

    def test_local_value_checks_constraint_length(self):
        from dist_alm.model import _agent_local_value

        bad = NlpProblem(agents=(
            AgentSpec(cost=lambda x: float(x[0] ** 2),
                      cost_grad=lambda x: 2.0 * x,
                      feasible_set=Polytope.box([-1.0], [1.0]),
                      constraint=lambda x: np.array([x[0], x[0]]),
                      constraint_jac=lambda x: np.array([[1.0]]),
                      constraint_dim=1),
        ))
        with pytest.raises(StructureError):
            _agent_local_value(bad, np.array([0.5]), np.zeros(1), 1.0, 0)


class TestBlockGradient:
    def test_reduces_to_cost_gradient_without_constraints(self):
        problem = NlpProblem(agents=(
            quadratic_agent(np.diag([2.0, 4.0]), [-1, -1], [1, 1]),
        ))
        z = zvec([0.3, -0.2])
        g = eval_block_gradient(problem, z, MultiplierEstimate.zeros(problem), 1.0, 0)
        np.testing.assert_allclose(g, np.diag([2.0, 4.0]) @ z.block(0))

    def test_kkt_stationarity_at_analytic_point(self, one_agent):
        for rho in (0.5, 1.0, 77.0):
            g = eval_block_gradient(one_agent, zvec([1.0]),
                                    mu_like(one_agent, [-1.0]), rho, 0)
            np.testing.assert_allclose(g, [0.0], atol=1e-12)

    def test_matches_finite_differences_on_toy(self):
        from dist_alm import fd_gradient_check

        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=11)
        problem = generate_toy(params)
        rng = np.random.default_rng(5)
        b = params.box_bound
        z = BlockVector([rng.uniform(-0.8 * b, 0.8 * b, 3) for _ in range(4)])
        mu = mu_like(problem, rng.uniform(-1, 1, problem.r))
        assert fd_gradient_check(problem, z, mu, rho=2.5) <= 1e-6

    def test_agent_index_out_of_range(self, one_agent):
        with pytest.raises(StructureError):
            eval_block_gradient(one_agent, zvec([1.0]),
                                MultiplierEstimate.zeros(one_agent), 1.0, 1)


class TestCouplingEdges:
    def test_non_adjacent_gradients_ignore_each_other(self):
        # chain instance: agents 0 and 2 share no edge, so perturbing
        # block 2 must leave agent 0's coupling gradient untouched
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=13)
        problem = generate_toy(params)
        assert (0, 2) not in problem.coupling.edges
        rng = np.random.default_rng(1)
        blocks = [rng.uniform(-1.0, 1.0, 3) for _ in range(4)]
        mu = MultiplierEstimate.zeros(problem)
        g_before = eval_block_gradient(problem, BlockVector(blocks), mu, 1.0, 0)
        blocks[2] = blocks[2] + 0.37
        g_after = eval_block_gradient(problem, BlockVector(blocks), mu, 1.0, 0)
        np.testing.assert_array_equal(g_before, g_after)
        # the adjacent block does matter
        blocks[1] = blocks[1] + 0.37
        g_adjacent = eval_block_gradient(problem, BlockVector(blocks), mu, 1.0, 0)
        assert np.any(g_adjacent != g_after)


class TestBlockVector:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
                    min_size=1, max_size=5))
    def test_flatten_round_trip_is_exact(self, blocks):
        z = BlockVector([np.array(b) for b in blocks])
        back = BlockVector.from_flat(z.flatten(), z.block_dims)
        assert back.block_dims == z.block_dims
        for a, b in zip(back.blocks, z.blocks):
            np.testing.assert_array_equal(a, b)

    def test_total_dim(self):
        z = zvec([1.0, 2.0], [3.0])
        assert z.total_dim == 3 and z.n_blocks == 2

    def test_blocks_are_read_only(self):
        z = zvec([1.0])
        with pytest.raises(ValueError):
            z.block(0)[0] = 2.0

    def test_from_flat_length_mismatch(self):
        with pytest.raises(StructureError):
            BlockVector.from_flat(np.zeros(3), (2, 2))

    def test_blocks_are_views_of_one_flat_copy(self):
        source = [np.array([1.0, 2.0]), np.array([3.0])]
        z = BlockVector(source)
        source[0][0] = 9.0  # the vector owns a copy
        assert not z.flat.flags.writeable
        assert all(np.shares_memory(b, z.flat) for b in z.blocks)
        np.testing.assert_array_equal(z.flat, [1.0, 2.0, 3.0])
        flat = z.flatten()
        flat[0] = 7.0  # flatten hands out a copy
        assert z.block(0)[0] == 1.0

    def test_max_block_diff_is_the_sup_norm(self):
        a, b = zvec([1.0, 2.0], [3.0]), zvec([1.5, 2.0], [1.0])
        assert a.max_block_diff(b) == 2.0
        with pytest.raises(StructureError):
            a.max_block_diff(zvec([1.0], [2.0, 3.0]))


class TestPolytope:
    def test_box_and_row_representations_agree(self):
        lo, hi = np.array([-1.0, 0.0]), np.array([2.0, 1.5])
        box = Polytope.box(lo, hi)
        rows = Polytope(a_mat=box.a_mat, b_vec=box.b_vec)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-2, 3, 2)
            assert box.contains(x) == rows.contains(x)

    def test_membership_slack(self):
        box = Polytope.box([0.0], [1.0])
        assert box.contains([1.0 + 0.5e-12])
        assert not box.contains([1.0 + 1e-9])

    def test_unbounded_box_rejected(self):
        with pytest.raises(StructureError):
            Polytope.box([0.0], [np.inf])

    def test_box_rows_with_cuts_bounded_without_linear_programs(self, monkeypatch):
        import scipy.optimize

        def refuse(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(scipy.optimize, "linprog", refuse)
        eye = np.eye(3)
        rows = np.vstack([2.0 * eye, -0.5 * eye, [[1.0, 1.0, 0.0], [0.3, -1.0, 2.0]]])
        assert Polytope(rows, np.ones(8)).is_bounded()

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0]],                           # half-space
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],  # one coordinate bounded above only
    ])
    def test_unbounded_polytopes_detected(self, rows):
        assert not Polytope(rows, np.ones(len(rows))).is_bounded()

    def test_equal_bounds_multipliers_cancel_the_gradient(self):
        box = Polytope.box([0.0, -1.0], [0.0, 1.0])
        grad = np.array([-1.0, 0.0])
        dist_sq, lam, active = box.normal_cone_distance([0.0, 0.5], grad)
        assert dist_sq == 0.0
        np.testing.assert_array_equal(active, [0, 2])
        np.testing.assert_array_equal(lam, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(grad + box.a_mat.T @ lam, 0.0)

    def test_unbounded_polytope_rejected_in_problem(self):
        half_plane = Polytope(a_mat=np.array([[1.0, 0.0]]), b_vec=np.array([1.0]))
        with pytest.raises(StructureError):
            NlpProblem(agents=(
                AgentSpec(cost=lambda x: 0.0, cost_grad=lambda x: np.zeros(2),
                          feasible_set=half_plane),
            ))


class TestProjection:
    """``Polytope.project``; its agreement with the enumeration oracle is in
    test_verify."""

    def cut_polytope(self, seed=5):
        box = Polytope.box(-1.2 * np.ones(3), 1.2 * np.ones(3))
        return box_with_cuts(box, np.random.default_rng(seed))

    def test_box_projection_is_clip(self):
        lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 2.0])
        box = Polytope.box(lo, hi)
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.uniform(-3, 3, 3)
            np.testing.assert_array_equal(box.project(v), np.clip(v, lo, hi))

    def test_point_inside_returned_bitwise(self):
        poly = self.cut_polytope()
        centre = poly.chebyshev_center()
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = centre + rng.uniform(-0.05, 0.05, 3)
            assert poly.violation(v) <= 1e-12
            np.testing.assert_array_equal(poly.project(v), v)

    def test_result_on_the_boundary_and_inside(self):
        poly = self.cut_polytope()
        centre = poly.chebyshev_center()
        x = poly.project(centre + np.array([5.0, 5.0, -5.0]))
        assert poly.violation(x) <= model.FEAS_TOL
        assert poly.violation(x) >= -model.FEAS_TOL  # on some row

    @pytest.mark.parametrize("v, vertex", [
        ([-3.277976802808726, -1.9734870086631202, -1.2850374423471935], [0, 0, 0]),
        ([-0.06786015475441547, -5.431846499958461, 2.154603813511483], [0, 0, 1]),
    ])
    def test_degenerate_vertex(self, v, vertex):
        # four of the seven rows are active at the vertex
        x = unit_simplex().project(v)
        np.testing.assert_allclose(x, vertex, rtol=0.0, atol=1e-15)

    def test_nan_target_rejected(self):
        # x >= 0, y >= 0, x + y <= 1
        tri = Polytope(a_mat=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                       b_vec=np.array([0.0, 0.0, 1.0]))
        for poly in (tri, Polytope.box([0.0, 0.0], [1.0, 1.0])):
            with pytest.raises(PreconditionError, match="target is not finite"):
                poly.project(np.array([np.nan, 2.0]))

    def test_empty_polytope_rejected(self):
        # x + y <= 0.1 and x + y >= 0.3
        empty = Polytope(a_mat=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                         b_vec=np.array([0.1, -0.3]))
        # NNLS finds a point for the far target [2e9, 0]: the gap of 0.2
        # between the rows is small next to it, and the result lies 0.1 outside
        for v in ([0.2, 0.0], [5.0, 5.0], [-3.0, 1.0], [2e9, 0.0]):
            with pytest.raises(PreconditionError, match="empty"):
                empty.project(np.array(v))

    def test_nnls_cap_raises(self, monkeypatch):
        poly = self.cut_polytope()
        monkeypatch.setattr("scipy.optimize.nnls", nnls_at_cap)
        with pytest.raises(ConvergenceError, match="iterations"):
            poly.project(np.array([50.0, 50.0, 50.0]))

    def test_dimension_mismatch(self):
        poly = self.cut_polytope()
        for p in (poly, Polytope.box(-np.ones(3), np.ones(3))):
            with pytest.raises(StructureError):
                p.project(np.zeros(2))


class TestBatchedGradientHook:
    def test_needs_one_block_dimension(self):
        agents = (quadratic_agent(np.eye(2), [-1, -1], [1, 1]),
                  quadratic_agent(np.eye(1), [-1], [1]))
        NlpProblem(agents=agents)
        with pytest.raises(StructureError, match="block_gradients"):
            NlpProblem(agents=agents, block_gradients=lambda x, mu, rho, idx: x[idx])
        with pytest.raises(StructureError, match="block_values"):
            NlpProblem(agents=agents,
                       block_values=lambda x, mu, rho, idx, trial: (x[idx], x[idx]))


class TestMultiplier:
    def test_parts_are_views_of_the_flat_vector(self):
        mu = MultiplierEstimate([np.array([1.0]), np.array([2.0, 4.0])], np.array([3.0]))
        assert not mu.flat.flags.writeable
        assert all(np.shares_memory(p, mu.flat) for p in mu.parts)
        np.testing.assert_array_equal(mu.part(1), [2.0, 4.0])
        assert mu.total_dim == 4

    def test_flatten_order_matches_stacking(self):
        problem = two_agent_coupled()
        mu = MultiplierEstimate([np.array([1.0]), np.array([2.0])], np.array([3.0]))
        np.testing.assert_array_equal(mu.flatten(), [1.0, 2.0, 3.0])
        back = MultiplierEstimate.from_flat(problem, mu.flatten())
        np.testing.assert_array_equal(back.part(1), [2.0])
        np.testing.assert_array_equal(back.coupling_part, [3.0])

    def test_wrong_length_rejected(self):
        problem = two_agent_coupled()
        with pytest.raises(StructureError):
            MultiplierEstimate.from_flat(problem, np.zeros(2))


NAN = float("nan")

#: Per evaluator: the public call that reaches it, a wrongly shaped output,
#: a non-finite output and the agent its ``EvaluationError`` names (``None``
#: for the coupling's values).  See ``conftest.site_problem``.
EVALUATOR_SITES = {
    "cost": ("lagrangian", np.zeros(1), NAN, 1),
    "cost_grad": ("gradient", np.zeros(3), np.array([NAN, 0.0]), 1),
    "constraint": ("constraints", np.zeros(2), np.array([NAN]), 1),
    "constraint_jac": ("gradient", np.zeros((1, 1)), np.full((1, 2), NAN), 1),
    "coupling.cost": ("lagrangian", np.zeros(2), NAN, None),
    "coupling.cost_block_grad": ("gradient", np.zeros(3), np.array([0.0, NAN]), 1),
    "coupling.constraint": ("constraints", np.zeros(2), np.array([NAN]), None),
    "coupling.constraint_block_jac": ("gradient", np.zeros((1, 1)),
                                      np.full((1, 2), NAN), 1),
}


def evaluate_site(problem, call):
    z = zvec([0.1, 0.2], [0.3, -0.4], [-0.5, 0.6])
    mu = MultiplierEstimate.zeros(problem)
    if call == "lagrangian":
        return eval_aug_lagrangian(problem, z, mu, 1.0)
    if call == "constraints":
        return eval_constraints(problem, z)
    return eval_block_gradient(problem, z, mu, 1.0, 1)


def poisoned_hook(problem, name, kind):
    """``problem`` whose hook ``name`` returns a NaN in agent 2's row
    (``kind="nan"``) or one row or column too few (``kind="shape"``)."""
    hook = getattr(problem, name)

    def gradients(x, mu_flat, rho, idx):
        grad = hook(x, mu_flat, rho, idx)
        if kind == "shape":
            return grad[:, :-1]
        grad[idx == 2, 1] = NAN
        return grad

    def values(x, mu_flat, rho, idx, trial):
        local, coupling = hook(x, mu_flat, rho, idx, trial)
        if kind == "shape":
            return local[:-1], coupling
        coupling[idx == 2] = NAN
        return local, coupling

    return dataclasses.replace(
        problem, **{name: gradients if name == "block_gradients" else values})


def evaluate_hook(problem, name):
    """Reach hook ``name`` through the residual or a certified sweep."""
    params = ToyParams(n_agents=6, block_dim=3, scale=2.0, seed=5)
    z0, mu = toy_initial_guess(params, generate_toy(params))
    if name == "block_gradients":
        return criticality_residual(problem, z0, mu, 1.0)
    return bcd_sweep(problem, z0, mu, 1.0, InnerConfig(),
                     color_interaction_graph(problem.coupling, 6))


class TestEvaluatorOutputChecks:
    """Every evaluator and hook output is checked: a wrong shape is a
    ``StructureError`` and a non-finite entry an ``EvaluationError`` that
    names the agent."""

    def test_well_formed_outputs_pass(self):
        problem = site_problem()
        for call in ("lagrangian", "constraints", "gradient"):
            assert np.all(np.isfinite(evaluate_site(problem, call)))

    @pytest.mark.parametrize("site", list(EVALUATOR_SITES))
    def test_wrong_shape_is_structural(self, site):
        call, wrong, _, _ = EVALUATOR_SITES[site]
        with pytest.raises(StructureError):
            evaluate_site(site_problem(site, wrong), call)

    @pytest.mark.parametrize("site", list(EVALUATOR_SITES))
    def test_non_finite_names_its_agent(self, site):
        call, _, nan, agent = EVALUATOR_SITES[site]
        with pytest.raises(EvaluationError) as err:
            evaluate_site(site_problem(site, nan), call)
        assert err.value.agent == agent

    @pytest.mark.parametrize("name", ["block_gradients", "block_values"])
    def test_hook_wrong_shape_is_structural(self, name):
        problem = generate_toy(ToyParams(n_agents=6, block_dim=3, scale=2.0, seed=5))
        with pytest.raises(StructureError, match=name):
            evaluate_hook(poisoned_hook(problem, name, "shape"), name)

    @pytest.mark.parametrize("name", ["block_gradients", "block_values"])
    def test_hook_non_finite_row_names_its_agent(self, name):
        problem = generate_toy(ToyParams(n_agents=6, block_dim=3, scale=2.0, seed=5))
        with pytest.raises(EvaluationError) as err:
            evaluate_hook(poisoned_hook(problem, name, "nan"), name)
        assert err.value.agent == 2


def outside_by(poly, delta):
    """A point ``delta`` outside ``poly`` (inside for ``delta < 0``): from its
    Chebyshev centre along a fixed direction, past the first row it meets."""
    u = np.array([1.0, 0.3, -0.2])
    center = poly.chebyshev_center()
    along = poly.a_mat @ u
    t = np.full(along.shape, np.inf)
    np.divide(poly.b_vec - poly.a_mat @ center, along, out=t, where=along > 0)
    k = int(np.argmin(t))
    return center + (t[k] + delta / along[k]) * u


def gate_chain(kind, delta):
    """A six-agent toy chain of boxes, or of boxes with cuts, whose block 3
    lies ``delta`` outside its set, with zero multipliers."""
    if kind == "box":
        problem = generate_toy(ToyParams(n_agents=6, block_dim=3, scale=2.0, seed=2))
    else:
        problem = cut_chain(seed=3)[0]
    blocks = default_start(problem).to_list()
    poly = problem.agents[3].feasible_set
    blocks[3] = outside_by(poly, delta)
    assert poly.violation(blocks[3]) == pytest.approx(delta, rel=1e-3)
    return problem, BlockVector(blocks), MultiplierEstimate.zeros(problem)


GATED_CALLS = {
    "run_outer": lambda p, z, mu: run_outer(
        p, OuterConfig(rho0=1.0, beta=10.0, eps0=1e-2, eta=0.0, max_outer=1),
        InnerConfig(), z, mu, with_certificates=False, sweep_budgets=[1],
        inner_eps_stop=False),
    "run_inner": lambda p, z, mu: run_inner(p, z, mu, 1.0, InnerConfig(), sweep_cap=1,
                                            with_certificates=False),
    "criticality_residual": lambda p, z, mu: criticality_residual(p, z, mu, 1.0),
    "kkt_report": lambda p, z, mu: kkt_report(p, z, mu, 1.0),
}


class TestMembershipGate:
    """One gate, ``NlpProblem.check_membership``, serves the solver and the
    oracles: the first block outside its set by more than ``FEAS_TOL`` is
    named, whatever the set and the caller."""

    @pytest.mark.parametrize("call", list(GATED_CALLS))
    @pytest.mark.parametrize("kind", ["box", "cuts"])
    def test_first_violating_block_is_named(self, kind, call):
        problem, z, mu = gate_chain(kind, 1e-6)
        with pytest.raises(PreconditionError, match=r"^block 3 violates its polytope by"):
            GATED_CALLS[call](problem, z, mu)

    @pytest.mark.parametrize("call", list(GATED_CALLS))
    @pytest.mark.parametrize("kind", ["box", "cuts"])
    def test_drift_within_the_tolerance_passes(self, kind, call):
        problem, z, mu = gate_chain(kind, FEAS_TOL / 2)
        GATED_CALLS[call](problem, z, mu)

    @pytest.mark.parametrize("kind", ["box", "cuts"])
    def test_feasible_reads_the_same_violations(self, kind):
        problem, z, _ = gate_chain(kind, 1e-6)
        assert np.max(problem._violations(z)) <= 2e-6
        assert not problem.feasible(z)
        assert problem.feasible(gate_chain(kind, FEAS_TOL / 2)[1])
