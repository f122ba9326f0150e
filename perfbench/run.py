"""Benchmark of the two-level solver: one workload per run.

    python3 perfbench/run.py --workload stats --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the solver is imported from
``src/``.  The run repeats whole rounds for at least ``--seconds``
seconds; a round builds the workload's inputs from ``--seed`` (timed as
set-up) and solves each once on one thread.  It then checks the outputs
against values recomputed apart from the library and prints one JSON
object as its last line.  With ``--trace 0`` it holds the end-to-end metrics; with
``--trace 1`` every layer boundary is traced and it holds the per-layer
metrics instead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.dont_write_bytecode = True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stats", "certified", "polytope"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_solver():
    """Import ``dist_alm`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "dist_alm" / "__init__.py").is_file():
        sys.exit(f"error: no solver sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dist_alm

    if SRC not in Path(dist_alm.__file__).resolve().parents:
        sys.exit(f"error: dist_alm was imported from {dist_alm.__file__}")


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[workload_name]()
    spans = Tracer() if trace else None

    setup_times, rounds = [], []
    with spans.active() if spans else nullcontext():
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            inputs = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)
            rounds.append(workload.run_round(inputs))
    problems = workload.sample_check(inputs, rounds[0])
    for rnd in rounds:
        problems += rnd.problems
    problems += _repeatable(rounds)
    return workload, spans, setup_times, rounds, problems


def _repeatable(rounds) -> list:
    """Every round gives the same outcome for the same operation."""
    def outcome(op):
        if op.error is not None:
            return f"{type(op.error).__name__}: {op.error}"
        return [t.h_inf for t in op.state.trace]

    first = [outcome(op) for op in rounds[0].ops]
    return [f"round {r}: outcomes differ from round 0"
            for r, rnd in enumerate(rounds[1:], 1)
            if [outcome(op) for op in rnd.ops] != first]


def best_round(workload, rounds):
    """Time of one round from each operation's fastest repeat.

    Every round repeats the same operations, so each has one duration per
    round; the round's own time outside them (``run_statistics`` beyond its
    solves) is taken at its fastest too.  On a machine shared with other
    work the fastest repeat is the steadiest estimate of the solver's own
    cost.  Returns the best round time, the solves completed and block
    updates made in one round, and the fastest time of each completed solve.
    """
    first = rounds[0].ops
    fastest = [min(rnd.ops[k].seconds for rnd in rounds) for k in range(len(first))]
    outside = min(rnd.solver_seconds - sum(op.seconds for op in rnd.ops)
                  for rnd in rounds)
    done = [k for k, op in enumerate(first) if op.error is None]
    updates = sum(workload.block_updates(first[k]) for k in done)
    return (sum(fastest) + max(outside, 0.0), len(done), updates,
            [fastest[k] for k in done])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_solver()
    import workloads

    workload, spans, setup_times, rounds, problems = run(
        args.workload, args.seed, args.seconds, bool(args.trace))

    ops = [op for rnd in rounds for op in rnd.ops]
    done = [op for op in ops if op.error is None]
    failures = {}
    for op in ops:
        if op.error is not None:
            kind = workloads.classify(op.error)
            failures.setdefault(kind, [0, f"{op.key}: {op.error}"])[0] += 1
    unexpected = sorted(set(failures) - set(workloads.KNOWN_FAULTS))
    solver_s = sum(rnd.solver_seconds for rnd in rounds)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"solves {len(ops)}  failed {len(ops) - len(done)}  "
          f"solver time {solver_s:.2f} s  trace {args.trace}")
    for kind, (count, example) in sorted(failures.items()):
        known = "known fault" if kind in workloads.KNOWN_FAULTS else "UNEXPECTED"
        print(f"failed {count} x {kind} ({known}); e.g. {example}")
    for problem in problems[:20]:
        print("CHECK FAILED " + problem)

    metrics = {}
    round_s, solves, updates, best = best_round(workload, rounds)
    if spans is None:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["solves_per_s"] = (solves / round_s, "1/s")
        metrics["block_updates_per_s"] = (updates / round_s, "1/s")
        metrics["solve_ms.p50"] = (statistics.median(best) * 1e3 if best else 0.0,
                                   "ms")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        times_ms = [op.seconds * 1e3 for op in done]
        if len(times_ms) >= 100:
            print(f"solve_ms over all {len(times_ms)} solves: "
                  f"p50 {percentile(times_ms, 50):.4f}, p90 {percentile(times_ms, 90):.4f}")
    else:
        metrics.update(spans.metrics(len(rounds)))
        metrics["trace.solves_per_s"] = (solves / round_s, "1/s")
        metrics["trace.self_coverage"] = (spans.self_seconds() / (solver_s + sum(setup_times)),
                                          "ratio")
        if spans.missing:
            print("not measured (name not found): " + ", ".join(spans.missing))

    result = {
        "correct": not problems and not unexpected and bool(done),
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
