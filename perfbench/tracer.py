"""Per-layer spans recorded from the benchmark's side of each layer boundary.

The solver modules call one another through module globals (``bench`` calls
``run_outer``, ``outer_mm`` calls ``run_inner``, ``inner_bcd`` calls
``bcd_sweep``, ``_block_gradient``, ``solve_prox_qp`` ...).  A span replaces
such a global, in every ``dist_alm`` module that binds the same function,
with a wrapper that counts calls and measures self time: the span's
duration minus the time covered by the spans it caused.  Self times of
nested spans therefore add up to the duration of the outermost one.

A name that no module binds any more is reported as not measured; the run
goes on without it.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_perf = time.perf_counter


@dataclass(frozen=True)
class Layer:
    """One traced function: metric name, defining module, attribute path."""

    metric: str
    module: str
    attr: str  # "name" or "Class.method"


#: Layers in the order they are reported; the module is the one that
#: defines the function, the metric name drops its leading underscore.
LAYERS = (
    Layer("bench.run_statistics", "dist_alm.bench", "run_statistics"),
    Layer("bench.generate_toy", "dist_alm.bench", "generate_toy"),
    Layer("outer_mm.run_outer", "dist_alm.outer_mm", "run_outer"),
    Layer("outer_mm.dual_update", "dist_alm.outer_mm", "dual_update"),
    Layer("model.eval_constraints", "dist_alm.model", "eval_constraints"),
    Layer("model.eval_aug_lagrangian", "dist_alm.model", "eval_aug_lagrangian"),
    Layer("inner_bcd.run_inner", "dist_alm.inner_bcd", "run_inner"),
    Layer("inner_bcd.initial_c_bounds", "dist_alm.inner_bcd", "_initial_c_bounds"),
    Layer("inner_bcd.bcd_sweep", "dist_alm.inner_bcd", "bcd_sweep"),
    Layer("model.block_gradient", "dist_alm.model", "_block_gradient"),
    Layer("model.agent_local_value", "dist_alm.model", "_agent_local_value"),
    Layer("model.coupling_value", "dist_alm.model", "_coupling_value"),
    Layer("model.aug_lagrangian", "dist_alm.model", "_aug_lagrangian"),
    Layer("subqp.prox_qp_build", "dist_alm.subqp", "ProxQp"),
    Layer("subqp.solve_prox_qp", "dist_alm.subqp", "solve_prox_qp"),
    Layer("verify.criticality_residual", "dist_alm.verify", "criticality_residual"),
    Layer("model.polytope_is_bounded", "dist_alm.model", "Polytope.is_bounded"),
    Layer("model.chebyshev_center", "dist_alm.model", "Polytope.chebyshev_center"),
)


def _bindings(layer: Layer):
    """``(owner, name, original)`` for every place the function is bound."""
    home = sys.modules.get(layer.module)
    if home is None:
        return []
    if "." in layer.attr:
        cls_name, meth = layer.attr.split(".")
        cls = getattr(home, cls_name, None)
        original = None if cls is None else cls.__dict__.get(meth)
        return [] if original is None else [(cls, meth, original)]
    original = getattr(home, layer.attr, None)
    if original is None:
        return []
    return [(mod, layer.attr, original)
            for name, mod in sorted(sys.modules.items())
            if name.startswith("dist_alm") and mod is not None
            and getattr(mod, layer.attr, None) is original]


@contextmanager
def patched(replacements):
    """Set ``(owner, name, value)`` triples for the duration of the block."""
    saved = [(owner, name, owner.__dict__[name] if isinstance(owner, type)
              else getattr(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Calls and self time per layer.

    Counters observed at the same boundaries: curvature-bound doublings and
    failed agent certificates (from ``bcd_sweep``), and inner calls that met
    their target (from ``run_inner``).
    """

    def __init__(self):
        self.stats = {}
        self.counts = {"c_doublings": 0, "cert_failed_agent_sweeps": 0,
                       "inner_calls": 0, "inner_target_met": 0}
        self.missing = []
        self._stack = []

    def _observe(self, metric, kwargs, result, before):
        if metric == "inner_bcd.bcd_sweep":
            if before is not None:
                ratio = np.asarray(kwargs["c_bounds"]) / before
                self.counts["c_doublings"] += int(np.rint(
                    np.log2(ratio[ratio > 0]).sum()))
            cert = result[1]
            if cert is not None:
                self.counts["cert_failed_agent_sweeps"] += int(
                    np.count_nonzero(~cert.agent_pass))
        else:
            self.counts["inner_calls"] += 1
            self.counts["inner_target_met"] += int(result.achieved_target)

    def _wrap(self, metric, fn, stat):
        stack = self._stack
        observe = (self._observe if metric in ("inner_bcd.bcd_sweep",
                                               "inner_bcd.run_inner") else None)

        def span(*args, **kwargs):
            before = None
            if observe is not None and kwargs.get("c_bounds") is not None:
                before = np.array(kwargs["c_bounds"], dtype=float)
            stack.append(0.0)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - t0
                children = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(metric, kwargs, result, before)
            return result

        return span

    @contextmanager
    def active(self):
        """Trace every layer that can be found while the block runs."""
        replacements, missing = [], []
        for layer in LAYERS:
            found = _bindings(layer)
            if not found:
                missing.append(layer.metric)
                continue
            stat = self.stats.setdefault(layer.metric, _Stat())
            wrapper = self._wrap(layer.metric, found[0][2], stat)
            replacements.extend((owner, name, wrapper) for owner, name, _ in found)
        self.missing = missing
        with patched(replacements):
            yield self

    def self_seconds(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def metrics(self, rounds: int) -> dict:
        """Per-layer values for one set-up and one round of operations."""
        out = {}
        for layer in LAYERS:
            stat = self.stats.get(layer.metric)
            if stat is None:
                continue
            out[layer.metric + ".calls"] = (stat.calls / rounds, "count")
            out[layer.metric + ".self_s"] = (stat.self_s / rounds, "s")
        counts = self.counts
        out["inner_bcd.c_doublings"] = (counts["c_doublings"] / rounds, "count")
        out["inner_bcd.cert_failed_agent_sweeps"] = (
            counts["cert_failed_agent_sweeps"] / rounds, "count")
        if counts["inner_calls"]:
            out["inner_bcd.target_met_ratio"] = (
                counts["inner_target_met"] / counts["inner_calls"], "ratio")
        return out
