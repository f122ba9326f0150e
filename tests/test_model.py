import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dist_alm import (AgentSpec, BlockVector, ConvergenceError, CouplingSpec,
                      EvaluationError, HessianBand, InnerConfig, MultiplierEstimate,
                      NlpProblem, OuterConfig, Polytope, PreconditionError, StructureError,
                      ToyParams, bcd_sweep, color_interaction_graph,
                      criticality_residual, default_start, dual_update, eval_aug_lagrangian,
                      eval_block_gradient, eval_constraints, fd_gradient_check, generate_toy,
                      kkt_report, run_inner, run_outer, toy_initial_guess)
from dist_alm import model
from dist_alm.model import FEAS_TOL
from conftest import (box_with_cuts, cut_chain, mixed_sets_problem, mu_like, nnls_at_cap,
                      one_agent_problem, quadratic_agent, site_problem, unit_simplex, zvec)


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
        terms=np.array([[0, 1]]),
        term_cost=lambda t, x: x[0][:, 0] * x[1][:, 0],
        term_cost_grad=lambda t, x: (x[1], x[0]),
        term_constraint=lambda t, x: x[0] + x[1],
        term_constraint_jac=lambda t, x: (np.ones((len(t), 1, 1)),) * 2,
        constraint_rows=1,
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
            terms.append(model._coupling_value(prob, point.flat, mult.coupling_part, rho))
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
        # chain instance: agents 0 and 2 share no term, so perturbing
        # block 2 must leave agent 0's coupling gradient untouched
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=13)
        problem = generate_toy(params)
        assert problem.coupling.terms.tolist() == [[0, 1], [1, 2], [2, 3]]
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

    def test_box_is_recognised_from_its_rows(self):
        eye = np.eye(2)
        rows = np.vstack([eye, -eye])
        for lower, upper in (([1, 1], [-1, -1]), ([-1], [1, 1])):
            with pytest.raises(StructureError, match="box"):
                Polytope.box(lower, upper)
        bounds = Polytope(rows, [1, 2, 3, 4])
        np.testing.assert_array_equal(bounds.project([5.0, -5.0]), [1.0, -4.0])
        assert bounds.is_box and Polytope.box([-1.0, -1.0], [1.0, 1.0]).is_box
        np.testing.assert_array_equal(bounds.lower, [-3.0, -4.0])
        np.testing.assert_array_equal(bounds.upper, [1.0, 2.0])
        # other rows, another order, or an empty set: a general polytope
        for a_mat, b_vec in ((rows[::-1], [1, 2, 3, 4]), (rows, [1, 1, -2, 0]),
                             (np.vstack([rows, [[1.0, 1.0]]]), [1, 2, 3, 4, 9])):
            poly = Polytope(a_mat, b_vec)
            assert not poly.is_box and poly.lower is None and poly.upper is None

    def test_box_rows_take_the_box_path(self):
        # a chain whose sets are written as their rows [I; -I] forms the set
        # groups of its boxes, and sweeps and residuals keep their bits
        params = ToyParams(n_agents=6, block_dim=3, scale=2.0, seed=4)
        boxes = generate_toy(params)
        rows = dataclasses.replace(boxes, agents=tuple(
            dataclasses.replace(a, feasible_set=Polytope(a.feasible_set.a_mat.copy(),
                                                         a.feasible_set.b_vec.copy()))
            for a in boxes.agents))
        for group, ref in zip(rows._set_groups, boxes._set_groups, strict=True):
            for value, expected in zip(group, ref, strict=True):
                assert (value is None) == (expected is None)
                assert value is None or value.tobytes() == expected.tobytes()
        z0, mu = toy_initial_guess(params, boxes)
        colors = color_interaction_graph(boxes.coupling, params.n_agents)
        cfg = InnerConfig(b_strategy=HessianBand())
        z_rows, cert_rows = bcd_sweep(rows, z0, mu, 1.0, cfg, colors)
        z_box, cert_box = bcd_sweep(boxes, z0, mu, 1.0, cfg, colors)
        assert z_rows.flat.tobytes() == z_box.flat.tobytes()
        assert cert_rows.decrease_lhs.tobytes() == cert_box.decrease_lhs.tobytes()
        assert criticality_residual(rows, z_rows, mu, 1.0) == \
            criticality_residual(boxes, z_box, mu, 1.0)

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

    @pytest.mark.parametrize("x, grad", [
        ([0.5, 0.5], [3.0]), ([0.5, 0.5], [3.0, 1.0, 0.0]), ([0.5], [3.0, 1.0]),
        ([[0.5, 0.5]], [3.0, 1.0]), ([0.5, 0.5], [[3.0, 1.0]])])
    @pytest.mark.parametrize("kind", ["box", "cut"])
    def test_cone_distance_checks_its_inputs(self, kind, x, grad):
        # the cut set once took the gradient [3.0] as (3, 3) and returned 9.0
        poly = Polytope.box([0.0, 0.0], [1.0, 1.0])
        if kind == "cut":
            poly = Polytope(np.vstack([poly.a_mat, [[1.0, 1.0]]]),
                            np.append(poly.b_vec, 1.5))
        with pytest.raises(StructureError, match="(point|gradient)"):
            poly.normal_cone_distance(x, grad)

    @pytest.mark.parametrize("bad", ["a nan", "b nan", "b inf", "b -inf"])
    def test_non_finite_rows_rejected(self, bad):
        # unchecked, a NaN row would pass is_bounded's axis-row shortcut and
        # a non-finite offset would fail inside linprog
        a_mat, b_vec = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
        where, value = bad.split()
        (a_mat if where == "a" else b_vec)[1] = float(value)
        with pytest.raises(StructureError, match="finite"):
            Polytope(a_mat, b_vec)

    def test_cone_distance_at_the_nnls_cap_raises(self, monkeypatch):
        monkeypatch.setattr("scipy.optimize.nnls", nnls_at_cap)
        with pytest.raises(ConvergenceError, match="^normal-cone distance: Maximum"):
            unit_simplex().normal_cone_distance(np.zeros(3), np.ones(3))

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

    def test_dependent_guessed_rows_fall_back_to_nnls(self, monkeypatch):
        # the row x_1 <= 1 of a square, twice: both copies are active at
        # on_face and at cold, so the guessed Gram matrix is singular and
        # NNLS takes over
        square = Polytope.box(-np.ones(2), np.ones(2))
        poly = Polytope(np.vstack([square.a_mat, square.a_mat[0]]),
                        np.r_[square.b_vec, 1.0])
        on_face, v = np.array([1.0, 0.0]), np.array([3.0, 0.5])
        a_w = poly.a_mat[[0, 4]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a_w @ a_w.T, np.ones(2))
        cold = poly._group.project(v[None])[0]
        import scipy.optimize
        nnls, calls = scipy.optimize.nnls, []
        monkeypatch.setattr("scipy.optimize.nnls",
                            lambda *args: calls.append(1) or nnls(*args))
        for near in (on_face, cold):
            np.testing.assert_array_equal(poly._group.project(v[None], near[None])[0], cold)
        assert len(calls) == 2
        np.testing.assert_array_equal(cold, [1.0, 0.5])

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

    def test_partition_must_match_the_constraints(self):
        # constraint dims (0, 2): one entry per agent has the length r = 2
        # but another partition, which gave agent 1 the multiplier [2, 2]
        box = Polytope.box([-1.0, -1.0], [1.0, 1.0])
        problem = NlpProblem(agents=(
            quadratic_agent(np.eye(2), [-1.0, -1.0], [1.0, 1.0]),
            AgentSpec(cost=lambda x: float(x @ x), cost_grad=lambda x: 2.0 * x,
                      feasible_set=box, constraint=lambda x: x - 0.1,
                      constraint_jac=lambda x: np.eye(2), constraint_dim=2)))
        z = zvec([0.1, 0.2], [0.3, 0.4])
        wrong, right = MultiplierEstimate([[1.0], [2.0]]), MultiplierEstimate([[], [1.0, 2.0]])
        calls = [lambda mu: eval_block_gradient(problem, z, mu, 1.0, 1),
                 lambda mu: eval_aug_lagrangian(problem, z, mu, 1.0),
                 lambda mu: run_outer(problem, OuterConfig(rho0=1.0, beta=10.0, eps0=1.0,
                                                           eta=0.0, max_outer=1),
                                      InnerConfig(max_sweeps=1), z, mu)]
        for call in calls:
            with pytest.raises(StructureError, match="agent parts"):
                call(wrong)
            call(right)
        np.testing.assert_allclose(eval_block_gradient(problem, z, right, 1.0, 1), [1.8, 3.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_are_the_callers(self, bad):
        # a non-finite start multiplier is refused at the boundary, naming its
        # entry, not blamed on an evaluator
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=0)
        problem = generate_toy(params)
        z, mu = toy_initial_guess(params, problem)
        flat = mu.flatten()
        flat[2] = bad
        mu = MultiplierEstimate.from_flat(problem, flat)
        calls = [lambda: run_outer(problem, OuterConfig(rho0=1.0, beta=10.0, eps0=1.0,
                                                        eta=0.0, max_outer=1),
                                   InnerConfig(max_sweeps=1), z, mu),
                 lambda: eval_aug_lagrangian(problem, z, mu, 1.0),
                 lambda: eval_block_gradient(problem, z, mu, 1.0, 0),
                 lambda: criticality_residual(problem, z, mu, 1.0),
                 lambda: kkt_report(problem, z, mu, 1.0)]
        for call in calls:
            with pytest.raises(PreconditionError, match="^multiplier entry 2 is not finite"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_inner_loop_and_oracles_check_the_multiplier(self, bad):
        # run_inner once blamed block_gradients and fd_gradient_check returned
        # 0.0 (a pass)
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=1)
        problem = generate_toy(params)
        z, mu = toy_initial_guess(params, problem)
        flat = mu.flatten()
        flat[2] = bad
        mu = MultiplierEstimate.from_flat(problem, flat)
        calls = [lambda: run_inner(problem, z, mu, 1.0, InnerConfig(max_sweeps=1)),
                 lambda: fd_gradient_check(problem, z, mu, 1.0)]
        for call in calls:
            with pytest.raises(PreconditionError, match=r"^multiplier entry \d is not finite"):
                call()

    def test_oracle_checks_the_partition(self):
        # parts (2, 0, 1, 1) on constraints (1, 1, 1, 1) once made numpy's
        # matmul raise ValueError in fd_gradient_check
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=1)
        problem = generate_toy(params)
        z, _ = toy_initial_guess(params, problem)
        wrong = MultiplierEstimate([[0.1, 0.2], [], [0.3], [0.4]])
        with pytest.raises(StructureError, match="agent parts"):
            fd_gradient_check(problem, z, wrong, 1.0)
        # the layout check_multiplier compares is kept, not rebuilt per call
        assert problem.constraint_dims is problem.constraint_dims


def penalty_entry(name, rho):
    """The public entry ``name`` at penalty ``rho``, as a call: on the seed-1
    four-agent toy chain, the difference oracle on the one-agent problem."""
    params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=1)
    problem = generate_toy(params)
    z, mu = toy_initial_guess(params, problem)
    one = one_agent_problem()
    coloring = color_interaction_graph(problem.coupling, problem.n_agents)
    return {
        "eval_aug_lagrangian": lambda: eval_aug_lagrangian(problem, z, mu, rho),
        "eval_block_gradient": lambda: eval_block_gradient(problem, z, mu, rho, 0),
        "run_inner": lambda: run_inner(problem, z, mu, rho, InnerConfig(max_sweeps=1)),
        "bcd_sweep": lambda: bcd_sweep(problem, z, mu, rho, InnerConfig(), coloring),
        "criticality_residual": lambda: criticality_residual(problem, z, mu, rho),
        "kkt_report": lambda: kkt_report(problem, z, mu, rho),
        "dual_update": lambda: dual_update(mu, rho, np.zeros(problem.r)),
        "fd_gradient_check": lambda: fd_gradient_check(
            one, zvec([0.5]), MultiplierEstimate.zeros(one), rho),
    }[name]


class TestPenaltyGate:
    @pytest.mark.parametrize("entry", ["eval_aug_lagrangian", "eval_block_gradient",
                                       "run_inner", "bcd_sweep", "criticality_residual",
                                       "kkt_report", "dual_update", "fd_gradient_check"])
    def test_penalty_must_be_positive_and_finite(self, entry):
        # every entry once took some of these: nan and inf blamed an
        # evaluator or passed an oracle, 0 and -1 ran
        for rho in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(PreconditionError,
                               match="^penalty parameter must be positive and finite"):
                penalty_entry(entry, rho)()
        penalty_entry(entry, 1.0)()


class TestIdentity:
    def test_problem_parts_are_equal_only_to_themselves(self):
        # the generated __eq__ once compared numpy arrays: == raised
        # ValueError and hash TypeError
        box = Polytope.box([0.0], [1.0])
        assert box == box and box != Polytope.box([0.0], [1.0])
        assert CouplingSpec() != CouplingSpec()
        problem = two_agent_coupled()
        assert len({box, problem, problem.coupling, *problem.agents}) == 5
        copy = dataclasses.replace(problem)
        assert copy != problem and copy.agents is problem.agents


NAN = float("nan")

#: Per evaluator: the public call that reaches it, a wrongly shaped output,
#: a non-finite output and the agent its ``EvaluationError`` names (``None``
#: for the coupling's values).  See ``conftest.site_problem``.
EVALUATOR_SITES = {
    "cost": ("lagrangian", np.zeros(1), NAN, 1),
    "cost_grad": ("gradient", np.zeros(3), np.array([NAN, 0.0]), 1),
    "constraint": ("constraints", np.zeros(2), np.array([NAN]), 1),
    "constraint_jac": ("gradient", np.zeros((1, 1)), np.full((1, 2), NAN), 1),
    "coupling.term_cost": ("lagrangian", np.zeros(2), NAN, None),
    "coupling.term_cost_grad": ("gradient", np.zeros(3), np.array([0.0, NAN]), 1),
    "coupling.term_constraint": ("constraints", np.zeros(2), np.array([NAN]), None),
    "coupling.term_constraint_jac": ("gradient", np.zeros((1, 1)),
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

    @pytest.mark.parametrize("site", list(EVALUATOR_SITES))
    @pytest.mark.parametrize("kind", ["shape", "nan"])
    def test_sweep_and_residual_raise_as_the_direct_call(self, site, kind):
        # without hooks a sweep and the residual take every output of a call
        # first and check them at once; the error is the one a direct call
        # raises (the residual reads no cost)
        call, wrong, nan, _ = EVALUATOR_SITES[site]
        problem = site_problem(site, wrong if kind == "shape" else nan)
        with pytest.raises((StructureError, EvaluationError)) as direct:
            evaluate_site(problem, call)
        z = zvec([0.1, 0.2], [0.3, -0.4], [-0.5, 0.6])
        mu = MultiplierEstimate.zeros(problem)
        paths = [lambda: bcd_sweep(problem, z, mu, 1.0, InnerConfig(),
                                   color_interaction_graph(problem.coupling, 3))]
        if call != "lagrangian":
            paths.append(lambda: criticality_residual(problem, z, mu, 1.0))
        for path in paths:
            with pytest.raises(type(direct.value)) as err:
                path()
            assert type(err.value) is type(direct.value)
            assert str(err.value) == str(direct.value)
            assert getattr(err.value, "agent", None) == getattr(direct.value, "agent", None)

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

    def test_stacked_violations_equal_the_per_set_values(self):
        # one stacked kernel call per group of sets of one kind and shape: one
        # group of cut sets, or the four groups of the mixed problem
        for seed in range(6):
            for problem in (cut_chain(seed)[0], mixed_sets_problem(seed)):
                sizes = sorted(len(g.idx) for g in problem._set_groups)
                assert sizes in ([6], [1, 2, 2, 2])  # one group; four, one of them alone
                rng = np.random.default_rng(seed)
                for scale in (0.1, 1.0, 3.0, 1e3):
                    for _ in range(100):
                        z = BlockVector.from_flat(
                            scale * rng.standard_normal(problem.total_dim),
                            problem.block_dims)
                        per_set = [a.feasible_set.violation(x)
                                   for a, x in zip(problem.agents, z.blocks)]
                        assert problem._violations(z).tolist() == per_set
                        assert per_set == [float(np.max(a.feasible_set.a_mat @ x
                                                        - a.feasible_set.b_vec))
                                           for a, x in zip(problem.agents, z.blocks)]

    @pytest.mark.parametrize("kind", ["box", "cuts"])
    def test_feasible_reads_the_same_violations(self, kind):
        problem, z, _ = gate_chain(kind, 1e-6)
        assert np.max(problem._violations(z)) <= 2e-6
        assert not problem.feasible(z)
        assert problem.feasible(gate_chain(kind, FEAS_TOL / 2)[1])


def recording(problem, calls):
    """``problem`` whose coupling evaluators record ``(name, t, x)`` per call."""
    coup = problem.coupling

    def record(name):
        evaluator = getattr(coup, name)
        return lambda t, x: calls.append((name, t.copy(), [x_j.copy() for x_j in x])) \
            or evaluator(t, x)

    names = [n for n in ("term_cost", "term_cost_grad", "term_constraint",
                         "term_constraint_jac") if getattr(coup, n) is not None]
    return dataclasses.replace(problem, coupling=dataclasses.replace(
        coup, **{name: record(name) for name in names}))


def edge_row_chain(n_agents, length_sq=0.5, seed=3):
    """A toy chain without hooks whose coupling adds one constraint row per
    edge, ``||x_i - x_{i+1}||^2 - l^2``, with seeded multipliers."""
    params = ToyParams(n_agents=n_agents, block_dim=3, scale=2.0, seed=seed)
    chain = generate_toy(params)

    def rows(t, x):
        diff = x[0] - x[1]
        return (diff[:, None, :] @ diff[:, :, None])[:, 0] - length_sq

    def jac(t, x):
        diff = 2.0 * (x[0] - x[1])
        return diff[:, None, :], -diff[:, None, :]

    problem = NlpProblem(agents=chain.agents, coupling=dataclasses.replace(
        chain.coupling, term_constraint=rows, term_constraint_jac=jac, constraint_rows=1))
    z0, _ = toy_initial_guess(params, chain)
    rng = np.random.default_rng(seed)
    return problem, z0, mu_like(problem, rng.uniform(-1.0, 1.0, problem.r))


class TestCouplingTerms:
    """The coupling is a set of terms over agent tuples: the problem derives
    its structure from them, and every evaluator sees its terms' blocks only."""

    def test_evaluators_receive_only_their_terms_blocks(self):
        site = site_problem()
        cases = [(site, zvec([0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]),
                  mu_like(site, [0.5, -1.0, 2.0, 0.25])), edge_row_chain(6)]
        for base, z, mu in cases:
            calls = []
            problem = recording(base, calls)
            flat, trial = z.flat, np.clip(z.flat.reshape(-1, 2 if base is site else 3) + 0.05,
                                          -0.9, 0.9)
            eval_aug_lagrangian(problem, z, mu, 2.0)
            eval_constraints(problem, z)
            for i in range(problem.n_agents):
                eval_block_gradient(problem, z, mu, 2.0, i)
            criticality_residual(problem, z, mu, 2.0)
            kkt_report(problem, z, mu, 2.0)
            moved = np.arange(0, problem.n_agents, 2)
            model._block_values(problem, flat, mu, 2.0, moved, trial[moved])
            assert {name for name, _, _ in calls} == {
                "term_cost", "term_cost_grad", "term_constraint", "term_constraint_jac"}
            for name, t, x in calls:
                agents = problem.coupling.terms[t]
                assert len(x) == agents.shape[1]
                for j, x_j in enumerate(x):
                    for k, i in enumerate(agents[:, j].tolist()):
                        assert (x_j[k].tobytes() == z.block(i).tobytes()
                                or name in ("term_cost", "term_constraint") and i in moved
                                and x_j[k].tobytes() == trial[i].tobytes()), (name, k, j)

    def test_class_gradient_reads_each_members_terms_once(self):
        # one call per evaluator and one row per edge, at every chain length:
        # a member reads its own one or two edges, not a p x d Jacobian block
        seen = []
        for n_agents in (8, 32, 128):
            calls = []
            base, z, mu = edge_row_chain(n_agents)
            problem = recording(base, calls)
            odd = np.arange(1, n_agents, 2)
            grads = model._block_gradients(problem, z.flat, mu, 10.0, odd)
            assert grads.tobytes() == model._block_gradients(base, z.flat, mu, 10.0,
                                                             odd).tobytes()
            assert all(t.tolist() == list(range(n_agents - 1)) for _, t, _ in calls)
            seen.append(sorted(name for name, _, _ in calls))
        assert seen[0] == seen[1] == seen[2] == [
            "term_constraint", "term_constraint_jac", "term_cost_grad"]

    def test_edge_row_gradients_match_finite_differences(self):
        from dist_alm import fd_gradient_check

        problem, z, mu = edge_row_chain(5)
        assert problem.p == 4 and problem.coupling.constraint_dim == 4
        assert fd_gradient_check(problem, z, mu, rho=3.0) <= 1e-6

    @pytest.mark.parametrize("terms", [[(0, 1), (2, 2)], [(1, 0, 1)]])
    def test_repeated_agent_is_structural(self, terms):
        with pytest.raises(StructureError, match="distinct agents"):
            CouplingSpec(terms=terms)

    @pytest.mark.parametrize("terms", [[(0, 1), (1, 3)], [(-1, 0)]])
    def test_agent_outside_the_problem_is_structural(self, terms):
        agents = tuple(quadratic_agent(np.eye(1), [-1.0], [1.0]) for _ in range(3))
        with pytest.raises(StructureError, match="outside 0..2"):
            NlpProblem(agents=agents, coupling=CouplingSpec(terms=terms))

    def test_one_dimension_per_tuple_position(self):
        agents = (quadratic_agent(np.eye(1), [-1.0], [1.0]),
                  quadratic_agent(np.eye(2), [-1.0, -1.0], [1.0, 1.0]))
        NlpProblem(agents=agents, coupling=CouplingSpec(terms=[(0, 1)]))
        with pytest.raises(StructureError, match="one dimension"):
            NlpProblem(agents=agents, coupling=CouplingSpec(terms=[(0, 1), (1, 0)]))
