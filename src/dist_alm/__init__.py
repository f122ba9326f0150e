"""Two-level augmented-Lagrangian solver for block-structured nonconvex
programs: an outer method of multipliers around a proximal-regularised
block-coordinate-descent inner loop, with per-sweep certificates, oracle
checks, and a reproducible benchmark harness."""

from .bench import (RunStats, ToyParams, generate_toy, run_statistics,
                    toy_definite_count, toy_initial_guess, write_stats_csv)
from .errors import (ConfigurationError, ConvergenceError, EvaluationError,
                     PreconditionError, RefusalError, StructureError)
from .inner_bcd import (Backtracking, FixedScaled, HessianBand, Hint,
                        InnerConfig, InnerResult, Sampled, SweepCertificate,
                        bcd_sweep, color_interaction_graph, run_inner)
from .model import (AgentSpec, BlockVector, CouplingSpec, MultiplierEstimate,
                    NlpProblem, Polytope, eval_aug_lagrangian,
                    eval_block_gradient, eval_constraints)
from .outer_mm import (IterTrace, OuterConfig, OuterState, default_start,
                       dual_update, run_outer)
from .subqp import ProxQp, solve_prox_qp
from .verify import (KktReport, brute_force_min, criticality_residual,
                     enumerate_projection, fd_gradient_check, kkt_report,
                     regularity_check)

__version__ = "0.1.0"

__all__ = [
    "AgentSpec", "Backtracking", "BlockVector", "ConfigurationError",
    "ConvergenceError", "CouplingSpec", "EvaluationError", "FixedScaled",
    "HessianBand", "Hint", "InnerConfig", "InnerResult", "IterTrace",
    "KktReport", "MultiplierEstimate", "NlpProblem", "OuterConfig",
    "OuterState", "Polytope", "PreconditionError", "ProxQp", "RefusalError",
    "RunStats", "Sampled", "StructureError", "SweepCertificate", "ToyParams",
    "bcd_sweep", "brute_force_min", "color_interaction_graph",
    "criticality_residual", "default_start", "dual_update",
    "enumerate_projection", "eval_aug_lagrangian",
    "eval_block_gradient", "eval_constraints", "fd_gradient_check",
    "generate_toy", "kkt_report", "regularity_check", "run_inner",
    "run_outer", "run_statistics", "solve_prox_qp", "toy_definite_count",
    "toy_initial_guess", "write_stats_csv",
]
