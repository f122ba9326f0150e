"""SHA-256 digests of the solver outputs that a refactor must keep bitwise.

    python3 tools/output_digest.py

Run from anywhere inside a source checkout; the solver is imported from the
checkout's ``src/`` and the workload generators from its ``perfbench/``
(read only).  One line per output:

* ``criterion7.csv`` and ``criterion7.feasibility``: the ``write_stats_csv``
  bytes and the ``feasibility`` matrix of the criterion-7 statistics run
  (N=20, d=3, seed 7, 50 instances, budgets 10..400);
* ``<workload> seed <s>``: every ``IterTrace`` row, final iterate and final
  multiplier of one round of the ``stats`` and ``certified`` workloads at
  seeds 1-3 and of ``polytope`` at seeds 1-8;
* ``certified certificates chain <c>``: every certificate of the seed-1
  ``certified`` chains, with the iterates around it.

Two checkouts whose lines agree give the same outputs bit for bit.

    python3 tools/output_digest.py --against FILE

compares the lines with a listing saved from an earlier run (its standard
output) instead of printing them: it prints each line that differs, as
``- saved`` and ``+ now``, a line missing on either side included, then a
count, and exits with status 1 on any difference and 0 when every line
matches.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True

import workloads  # noqa: E402
from dist_alm.bench import ToyParams, run_statistics, write_stats_csv  # noqa: E402


def _feed(h, obj):
    """Hash ``obj`` by its exact bits: arrays with dtype and shape, floats by
    ``float.hex``, dataclasses and containers item by item."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(f"<{key}>".encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    else:
        h.update(repr(obj).encode())


def digest(*objs) -> str:
    h = hashlib.sha256()
    _feed(h, objs)
    return h.hexdigest()


def _state(state):
    return [t.as_dict() for t in state.trace], state.z.flat, state.mu.flat


def criterion_7():
    params = ToyParams(n_agents=20, block_dim=3, scale=2.0, seed=7)
    stats = run_statistics(params, instances=50, budgets=[10, 25, 50, 100, 200, 400],
                           tolerances=[1e-3, 1e-4, 1e-6])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stats.csv"
        write_stats_csv(stats, path)
        csv = path.read_bytes()
    yield "criterion7.csv", hashlib.sha256(csv).hexdigest()
    yield "criterion7.feasibility", digest(stats.feasibility)


def rounds():
    for name, seeds in (("stats", range(1, 4)), ("certified", range(1, 4)),
                        ("polytope", range(1, 9))):
        workload = workloads.WORKLOADS[name]()
        for seed in seeds:
            ops = workload.run_round(workload.setup(seed)).ops
            yield f"{name} seed {seed}", digest(
                [op.key for op in ops],
                [repr(op.error) if op.error else _state(op.state) for op in ops])


def certificates():
    workload = workloads.Certified()
    for p, problem, z0, mu0 in workload.setup(1):
        state, seen = workloads.captured_solve(problem, workload.outer, workload.inner,
                                               z0, mu0, **workload._solve_kwargs())
        yield f"certified certificates chain {p.seed}", digest(seen.sweeps, _state(state))


def lines():
    for part in (criterion_7, rounds, certificates):
        for label, value in part():
            yield f"{label:40s} {value}"


def compare(saved: list, now: list) -> int:
    """Print the lines of ``saved`` and ``now`` that differ, matched by
    label, and a count; the number of labels that differ."""
    by_label = {line.rsplit(" ", 1)[0].rstrip(): line for line in saved if line.strip()}
    differ = 0
    for line in now:
        old = by_label.pop(line.rsplit(" ", 1)[0].rstrip(), None)
        if old != line:
            differ += 1
            print(*([f"- {old}"] if old is not None else []), f"+ {line}", sep="\n")
    for old in by_label.values():
        differ += 1
        print(f"- {old}")
    print(f"{differ} of {len(now) + len(by_label)} lines differ" if differ
          else f"all {len(now)} lines match")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="compare with a saved listing; exit 1 on any difference")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.CRITICAL)
    if args.against is None:
        for line in lines():
            print(line, flush=True)
        return 0
    saved = Path(args.against).read_text().splitlines()
    return 1 if compare(saved, list(lines())) else 0


if __name__ == "__main__":
    sys.exit(main())
