import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dist_alm import (AgentSpec, BlockVector, CouplingSpec, EvaluationError,
                      MultiplierEstimate, NlpProblem, Polytope, StructureError,
                      ToyParams, eval_aug_lagrangian, eval_block_gradient,
                      eval_constraints, generate_toy)
from conftest import mu_like, quadratic_agent, zvec


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

    def test_nonfinite_cost_carries_agent_index(self):
        bad = NlpProblem(agents=(
            AgentSpec(cost=lambda x: float("nan"),
                      cost_grad=lambda x: np.zeros(1),
                      feasible_set=Polytope.box([-1.0], [1.0])),
        ))
        with pytest.raises(EvaluationError) as err:
            eval_aug_lagrangian(bad, zvec([0.0]), MultiplierEstimate.zeros(bad), 1.0)
        assert err.value.agent == 0


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

    def test_unbounded_polytope_rejected_in_problem(self):
        half_plane = Polytope(a_mat=np.array([[1.0, 0.0]]), b_vec=np.array([1.0]))
        with pytest.raises(StructureError):
            NlpProblem(agents=(
                AgentSpec(cost=lambda x: 0.0, cost_grad=lambda x: np.zeros(2),
                          feasible_set=half_plane),
            ))


class TestBatchedGradientHook:
    def test_needs_one_block_dimension(self):
        agents = (quadratic_agent(np.eye(2), [-1, -1], [1, 1]),
                  quadratic_agent(np.eye(1), [-1], [1]))
        NlpProblem(agents=agents)
        with pytest.raises(StructureError):
            NlpProblem(agents=agents, block_gradients=lambda x, mu, rho, idx: x[idx])


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
