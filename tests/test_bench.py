import json
import logging

import numpy as np
import pytest

from dist_alm import bench
from dist_alm import (ConfigurationError, ConvergenceError, EvaluationError,
                      ToyParams, brute_force_min,
                      eval_constraints, generate_toy, run_statistics,
                      toy_initial_guess, write_stats_csv)
from dist_alm.bench import _split_budget


class TestToyFamily:
    def test_reference_dimensions(self):
        params = ToyParams(n_agents=20, block_dim=3, scale=2.0, seed=5)
        problem = generate_toy(params)
        assert problem.total_dim == 60
        assert problem.m == 20 and problem.p == 0 and problem.r == 20
        assert params.sphere_radius == pytest.approx(np.sqrt(2.0))
        assert params.box_bound == 1.2
        box = problem.agents[0].feasible_set
        np.testing.assert_array_equal(box.upper, [1.2, 1.2, 1.2])

    def test_same_seed_is_bitwise_identical(self):
        params = ToyParams(n_agents=6, block_dim=3, scale=2.0, seed=77)
        p1, p2 = generate_toy(params), generate_toy(params)
        rng = np.random.default_rng(0)
        for _ in range(5):
            blocks = [rng.uniform(-1.2, 1.2, 3) for _ in range(6)]
            for i in range(6):
                assert p1.agents[i].cost(blocks[i]) == p2.agents[i].cost(blocks[i])
                np.testing.assert_array_equal(p1.agents[i].cost_grad(blocks[i]),
                                              p2.agents[i].cost_grad(blocks[i]))
            assert p1.coupling.cost(blocks) == p2.coupling.cost(blocks)

    def test_different_seeds_differ(self):
        base = ToyParams(n_agents=4, block_dim=2, scale=2.0, seed=1)
        other = ToyParams(n_agents=4, block_dim=2, scale=2.0, seed=2)
        x = np.array([0.5, -0.5])
        assert generate_toy(base).agents[0].cost(x) != \
            generate_toy(other).agents[0].cost(x)

    def test_chain_edges_and_coloring(self):
        from dist_alm import color_interaction_graph

        params = ToyParams(n_agents=7, block_dim=2, scale=2.0, seed=0)
        problem = generate_toy(params)
        assert problem.coupling.edges == frozenset((i, i + 1) for i in range(6))
        colors = color_interaction_graph(problem.coupling, 7)
        assert set(colors.tolist()) == {0, 1}

    def test_small_instance_usable_with_brute_force(self):
        params = ToyParams(n_agents=2, block_dim=1, scale=4.0, seed=3)
        problem = generate_toy(params)
        z_best, value = brute_force_min(problem, grid_step=1e-3,
                                        feasibility_band=1e-2)
        h = eval_constraints(problem, z_best)
        assert np.max(np.abs(h)) <= 1e-2
        assert np.isfinite(value)

    def test_initial_guess_feasible_and_seeded(self):
        params = ToyParams(n_agents=5, block_dim=3, scale=2.0, seed=11)
        problem = generate_toy(params)
        z1, mu1 = toy_initial_guess(params, problem)
        z2, mu2 = toy_initial_guess(params, problem)
        np.testing.assert_array_equal(z1.flatten(), z2.flatten())
        np.testing.assert_array_equal(mu1.flatten(), mu2.flatten())
        assert np.max(problem._violations(z1)) <= 1e-12
        assert mu1.total_dim == problem.r

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ToyParams(n_agents=1)
        with pytest.raises(ConfigurationError):
            ToyParams(scale=-1.0)

    def test_definite_draw_diagnostic(self):
        from dist_alm import toy_definite_count

        params = ToyParams(n_agents=30, block_dim=3, scale=2.0, seed=5)
        count = toy_definite_count(params)
        assert 0 <= count <= 30
        # the symmetric uniform ensemble is almost never definite at d=3
        assert count <= 3


class TestChainHooks:
    """Row ``k`` of a chain hook's output depends only on ``idx[k]`` (and
    ``trial[k]``): the inner loop takes rows of a call over all agents in
    place of a call over a colour class."""

    @pytest.mark.parametrize("n_agents", [2, 7, 40, 320])
    @pytest.mark.parametrize("rho", [0.1, 10.0, 1e3])
    def test_rows_do_not_depend_on_the_batch(self, n_agents, rho):
        params = ToyParams(n_agents=n_agents, block_dim=3, scale=2.0, seed=n_agents)
        problem = generate_toy(params)
        z, mu = toy_initial_guess(params, problem)
        x = z.flat.reshape(n_agents, 3)
        rng = np.random.default_rng(n_agents)
        moved = np.clip(x + rng.uniform(-0.1, 0.1, x.shape), -1.2, 1.2)
        everyone = np.arange(n_agents)
        batches = [everyone[0::2], everyone[1::2]]  # the colour classes
        batches += [np.array([i]) for i in everyone]
        grads = problem.block_gradients(x, mu.flat, rho, everyone)
        values = {name: problem.block_values(x, mu.flat, rho, everyone, trial)
                  for name, trial in (("own", x), ("moved", moved))}
        for idx in batches:
            got = problem.block_gradients(x, mu.flat, rho, idx)
            assert got.tobytes() == grads[idx].tobytes(), idx
            for name, trial in (("own", x), ("moved", moved)):
                local, coupling = problem.block_values(x, mu.flat, rho, idx, trial[idx])
                assert local.tobytes() == values[name][0][idx].tobytes(), (name, idx)
                assert coupling.tobytes() == values[name][1][idx].tobytes(), (name, idx)

    @pytest.mark.parametrize("n_agents", [2, 7, 40, 320])
    def test_stacked_points_equal_single_point_calls(self, n_agents):
        params = ToyParams(n_agents=n_agents, block_dim=3, scale=2.0, seed=n_agents)
        problem = generate_toy(params)
        z, mu = toy_initial_guess(params, problem)
        x = z.flat.reshape(n_agents, 3)
        rng = np.random.default_rng(n_agents)
        stack = np.clip(x + rng.uniform(-0.1, 0.1, (5,) + x.shape), -1.2, 1.2)
        everyone = np.arange(n_agents)
        for idx in (everyone[0::2], everyone[1::2], everyone):
            got = problem.block_gradients(stack, mu.flat, 10.0, idx)
            assert got.shape == (5, idx.shape[0], 3)
            for p, point in enumerate(stack):
                single = problem.block_gradients(point, mu.flat, 10.0, idx)
                assert got[p].tobytes() == single.tobytes(), (idx, p)


class TestSplitBudget:
    def test_even_split(self):
        assert _split_budget(100, 5) == [20, 20, 20, 20, 20]

    def test_remainder_goes_to_early_iterations(self):
        assert _split_budget(7, 5) == [2, 2, 1, 1, 1]

    def test_zero(self):
        assert _split_budget(0, 5) == [0, 0, 0, 0, 0]


@pytest.fixture(scope="module")
def small_stats():
    params = ToyParams(n_agents=6, block_dim=3, scale=2.0, seed=40)
    return run_statistics(params, instances=6, budgets=[0, 20, 60],
                          tolerances=[1e-2, 1e-3, 1e-6])


class TestRunStatistics:
    def test_fractions_are_probabilities(self, small_stats):
        assert np.all(small_stats.fractions >= 0.0)
        assert np.all(small_stats.fractions <= 1.0)

    def test_zero_budget_rarely_feasible(self, small_stats):
        assert small_stats.fractions[0].max() <= 0.2

    def test_tolerance_nesting(self, small_stats):
        for row in small_stats.fractions:
            assert np.all(np.diff(row) <= 1e-12)  # tighter tol, lower fraction

    def test_deterministic_given_seed(self):
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=41)
        s1 = run_statistics(params, instances=3, budgets=[10], tolerances=[1e-3])
        s2 = run_statistics(params, instances=3, budgets=[10], tolerances=[1e-3])
        np.testing.assert_array_equal(s1.fractions, s2.fractions)
        np.testing.assert_array_equal(s1.feasibility, s2.feasibility)

    def test_csv_format_and_stability(self, small_stats, tmp_path):
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_stats_csv(small_stats, path_a)
        write_stats_csv(small_stats, path_b)
        content = path_a.read_bytes()
        assert content == path_b.read_bytes()
        lines = content.decode().strip().split("\n")
        assert lines[0] == "budget,tolerance,fraction,instances"
        assert len(lines) == 1 + 3 * 3
        first = lines[1].split(",")
        assert first == ["0", "0.01", "0.0", "6"]
        for line in lines[1:]:
            budget, tol, fraction, count = line.split(",")
            assert 0.0 <= float(fraction) <= 1.0 and count == "6"

    def test_trace_jsonl(self, tmp_path):
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=42)
        trace_path = tmp_path / "trace.jsonl"
        run_statistics(params, instances=2, budgets=[10], tolerances=[1e-3],
                       trace_path=trace_path)
        rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert len(rows) == 2 * 5  # instances x outer iterations
        assert {"instance", "seed", "budget", "k", "rho", "h_inf",
                "cum_sweeps"} <= set(rows[0])

    def test_threaded_matches_sequential(self):
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=43)
        seq = run_statistics(params, instances=4, budgets=[15], tolerances=[1e-3])
        par = run_statistics(params, instances=4, budgets=[15], tolerances=[1e-3],
                             threads=3)
        np.testing.assert_array_equal(seq.feasibility, par.feasibility)

    def test_input_validation(self):
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=0)
        with pytest.raises(ConfigurationError):
            run_statistics(params, instances=0, budgets=[10], tolerances=[1e-3])
        with pytest.raises(ConfigurationError):
            run_statistics(params, instances=1, budgets=[], tolerances=[1e-3])
        with pytest.raises(ConfigurationError):
            run_statistics(params, instances=1, budgets=[-5], tolerances=[1e-3])


class TestInstanceFailures:
    @pytest.mark.parametrize("error", [EvaluationError("non-finite", agent=1),
                                       ConvergenceError("cap reached")])
    def test_solver_failure_counts_as_infeasible(self, monkeypatch, caplog, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(bench, "run_outer", failing)
        params = ToyParams(n_agents=3, block_dim=2, scale=2.0, seed=44)
        with caplog.at_level(logging.ERROR, logger="dist_alm.bench"):
            stats = run_statistics(params, instances=2, budgets=[5, 10],
                                   tolerances=[1e-3])
        assert np.all(np.isinf(stats.feasibility))
        assert np.all(stats.fractions == 0.0)
        failed = [r for r in caplog.records if "failed under budget" in r.getMessage()]
        assert len(failed) == 4 and all(r.exc_info[1] is error for r in failed)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("malformed block_gradients hook")

        monkeypatch.setattr(bench, "run_outer", broken)
        params = ToyParams(n_agents=3, block_dim=2, scale=2.0, seed=45)
        with pytest.raises(TypeError):
            run_statistics(params, instances=1, budgets=[5], tolerances=[1e-3])
