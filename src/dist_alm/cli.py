"""Command-line front end: solve a builtin instance, run the benchmark,
or run the self-check suite; outputs are bit-stable for a fixed seed.

Every flag comes from its mode's table of defaults (``_MODES``) and has a
config-file equivalent (a flat JSON object keyed by the flag name with
dashes replaced by underscores); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .bench import ToyParams, _default_inner, _default_outer, generate_toy, \
    one_agent_problem, run_statistics, toy_initial_guess, write_stats_csv
from .errors import ConfigurationError, RefusalError
from .inner_bcd import FixedScaled, InnerConfig
from .model import (FEAS_TOL, AgentSpec, BlockVector, MultiplierEstimate,
                    NlpProblem, Polytope)
from .outer_mm import OuterConfig, run_outer
from .verify import brute_force_min, enumerate_projection, fd_gradient_check

# solve defaults to a small solvable demonstration instance; at scale 2 a
# one-dimensional block cannot reach its sphere inside the box, so the
# default scale is 4 (bench keeps the experiment value 2).
_SOLVE_DEFAULTS = {
    "n": 2, "d": 1, "r": 4.0, "seed": 0, "rho0": 1.0, "beta": 10.0,
    "eps0": 1e-1, "eta": 1e-6, "max_outer": 25, "tau": 1e-12,
    "max_sweeps": 4000, "b_scale": 30.0, "out": None,
}
# bench defaults to the criterion-7 experiment, read from the library
_TOY, _OUTER, _INNER = ToyParams(), _default_outer(5), _default_inner()
_BENCH_DEFAULTS = {
    "n": _TOY.n_agents, "d": _TOY.block_dim, "r": _TOY.scale, "seed": 0,
    "rho0": _OUTER.rho0, "beta": _OUTER.beta,
    "instances": 50, "outer_iters": _OUTER.max_outer,
    "budgets": "10,25,50,100,200", "tolerances": "1e-3,1e-4,1e-6",
    "out": "stats.csv", "trace": None, "b_scale": _INNER.b_strategy.scale,
}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config file {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return data


def _resolve(args, config, defaults):
    """Flag > config file > default; a file value must have its flag's type
    (a float flag also takes an integer, a ``None`` default a string)."""
    unknown = set(config) - set(defaults) - {"mode"}
    if unknown:
        raise ConfigurationError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    merged = {}
    for key, fallback in defaults.items():
        value = config.get(key, fallback)
        kinds = ((str, type(None)) if fallback is None else
                 (int, float) if type(fallback) is float else (type(fallback),))
        if type(value) not in kinds:
            raise ConfigurationError(f"config key {key} has the wrong type: {value!r}")
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else value
    return merged

def _parse_float_list(text, key):
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"{key} must be a comma-separated list: {exc}") \
            from exc
    if not values:
        raise ConfigurationError(f"{key} must not be empty")
    return values


def _cmd_solve(opts) -> int:
    params = ToyParams(n_agents=opts["n"], block_dim=opts["d"],
                       scale=opts["r"], seed=opts["seed"])
    problem = generate_toy(params)
    z0, mu0 = toy_initial_guess(params, problem)
    outer_cfg = OuterConfig(rho0=opts["rho0"], beta=opts["beta"],
                            eps0=opts["eps0"], eta=opts["eta"],
                            max_outer=opts["max_outer"])
    inner_cfg = InnerConfig(tau=opts["tau"], max_sweeps=opts["max_sweeps"],
                            b_strategy=FixedScaled(opts["b_scale"]))
    state, status = run_outer(problem, outer_cfg, inner_cfg, z0, mu0,
                              with_certificates=False)
    last = state.trace[-1]
    print(f"status={status} outer_iterations={state.k} "
          f"total_sweeps={last.cum_sweeps}")
    print(f"feasibility_inf={last.h_inf:.6e} feasibility_two={last.h_two:.6e} "
          f"criticality_residual={last.residual:.6e}")
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            for t in state.trace:
                fh.write(json.dumps(t.as_dict(), sort_keys=True) + "\n")
        print(f"trace written to {opts['out']}")
    return 0 if status == "converged" else 1


def _cmd_bench(opts) -> int:
    params = ToyParams(n_agents=opts["n"], block_dim=opts["d"],
                       scale=opts["r"], seed=opts["seed"])
    budgets = _parse_float_list(opts["budgets"], "budgets")
    if not all(b >= 1 and b.is_integer() for b in budgets):
        raise ConfigurationError(f"budgets must be positive integers: {opts['budgets']}")
    tolerances = _parse_float_list(opts["tolerances"], "tolerances")
    outer_cfg = replace(_default_outer(opts["outer_iters"]), rho0=opts["rho0"],
                        beta=opts["beta"])
    inner_cfg = replace(_default_inner(), b_strategy=FixedScaled(opts["b_scale"]))
    stats = run_statistics(params, opts["instances"], [int(b) for b in budgets],
                           tolerances, outer_cfg=outer_cfg, inner_cfg=inner_cfg,
                           outer_iters=opts["outer_iters"], trace_path=opts["trace"])
    write_stats_csv(stats, opts["out"])
    print(f"stats written to {opts['out']} "
          f"({stats.instances} instances, {len(budgets)} budgets)")
    return 0


def _cmd_verify(opts) -> int:
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        failures += 0 if ok else 1

    # finite-difference agreement of the block gradients
    params = ToyParams(n_agents=5, block_dim=3, scale=2.0, seed=opts["seed"])
    problem = generate_toy(params)
    rng = np.random.default_rng(opts["seed"] + 1)
    worst = 0.0
    b = params.box_bound
    for _ in range(20):
        z = BlockVector([rng.uniform(-0.9 * b, 0.9 * b, 3) for _ in range(5)])
        mu = MultiplierEstimate.from_flat(problem, rng.uniform(-1, 1, problem.r))
        worst = max(worst, fd_gradient_check(problem, z, mu, rho=3.0))
    report("gradient finite differences", worst <= 1e-5, f"worst {worst:.2e}")

    # one-agent analytic KKT point
    one = one_agent_problem()
    state, status = run_outer(
        one,
        OuterConfig(rho0=1.0, beta=10.0, eps0=1e-1, eta=1e-8, max_outer=30),
        InnerConfig(tau=1e-12, max_sweeps=5000),
        BlockVector([np.array([2.0])]), MultiplierEstimate.zeros(one),
        with_certificates=False,
    )
    x = float(state.z.block(0)[0])
    mu = float(state.mu.part(0)[0])
    ok = status == "converged" and abs(abs(x) - 1.0) <= 1e-6 and abs(mu + 1.0) <= 1e-4
    report("one-agent KKT point", ok, f"x={x:.8f} mu={mu:.6f}")

    # the solver's box update against a brute-force grid: the Newton point
    # -g / diag(M) of the diagonal quadratic, clipped by Polytope.project
    box = Polytope.box([-0.3, -0.3], [0.3, 0.3])
    agent = AgentSpec(
        cost=lambda x: float(1.5 * x[0] ** 2 + 0.5 * x[1] ** 2 + 0.3 * x[0]),
        cost_grad=lambda x: np.array([3.0 * x[0] + 0.3, x[1]]),
        feasible_set=box,
    )
    _, grid_val = brute_force_min(NlpProblem(agents=(agent,)), grid_step=1e-3)
    x_box = box.project(-agent.cost_grad(np.zeros(2)) / np.array([3.0, 1.0]))
    report("QP vs grid oracle", abs(agent.cost(x_box) - grid_val) <= 1e-3,
           f"qp {agent.cost(x_box):.6f} grid {grid_val:.6f}")

    # polytope projection (the block update) against the enumeration oracle
    # on a block QP at M = 3e8 I over [-1.2, 1.2]^3 as the rows [-I; I] (no
    # box: NNLS), centred on the face x_1 = 1.2, a gradient pushing through it
    eye = np.eye(3)
    poly = Polytope(np.vstack([-eye, eye]), np.full(6, 1.2))
    g = 3e8 * np.array([-5e-4, -1e-3, 3e-4])
    newton = np.array([0.6, 1.2, -0.4]) - g / 3e8
    x_proj = poly.project(newton)
    gap = float(np.max(np.abs(x_proj - enumerate_projection(poly, newton))))
    viol = poly.violation(x_proj)
    report("polytope projection vs enumeration oracle at M=3e8 I",
           gap <= 1e-9 * float(np.max(np.abs(x_proj))) and viol <= FEAS_TOL,
           f"gap {gap:.1e} violation {viol:.1e}")

    return 0 if failures == 0 else 1


#: Per mode: its help line, its flags' defaults and its command.
_MODES = {
    "solve": ("solve one builtin chain instance", _SOLVE_DEFAULTS, _cmd_solve),
    "bench": ("run the feasibility statistics", _BENCH_DEFAULTS, _cmd_bench),
    "verify": ("run the oracle self-checks", {"seed": 0}, _cmd_verify),
}
_HELP = {
    "config": "JSON file with flag defaults", "n": "number of agents",
    "d": "block dimension", "r": "instance scale R",
    "out": "output path (solve: outer-iteration trace as JSON lines; bench: CSV)",
    "budgets": "comma-separated total sweep budgets",
    "tolerances": "comma-separated feasibility tolerances",
    "trace": "per-run trace JSON-lines path",
}


def build_parser() -> argparse.ArgumentParser:
    """Per mode, ``--config`` and per key of its defaults a flag ``--key`` of
    the default's type (``str`` for ``None``), ``None`` unless given."""
    parser = argparse.ArgumentParser(
        prog="dist-alm",
        description="Two-level augmented-Lagrangian solver for block-structured "
                    "nonconvex programs.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (text, defaults, _) in _MODES.items():
        flags = sub.add_parser(mode, help=text)
        for key, default in {"config": None, **defaults}.items():
            flags.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                               type=str if default is None else type(default),
                               help=_HELP.get(key))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _, defaults, command = _MODES[args.mode]
        return command(_resolve(args, _load_config(args.config), defaults))
    except (ConfigurationError, RefusalError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver failures
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
