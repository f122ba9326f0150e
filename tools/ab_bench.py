"""Alternating A/B runs of the benchmark: a base revision against this checkout.

    python3 tools/ab_bench.py BASE_REV --workload W --seed S --pairs N --seconds T

Run from anywhere inside a git checkout.  ``BASE_REV`` is exported with
``git archive`` into a temporary directory (removed afterwards), and each of
the ``N`` pairs runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in that copy and once in this checkout, each from its own
root, the base first in even pairs and last in odd ones.  It then prints,
per end-to-end metric that ``BENCHMARK.json`` declares, the base median with
its quartiles, the change's median, the pairs the change won (better in the
metric's direction, strictly) and the relative change of the medians::

    solves_per_s  101.9 [98.2-104.1] -> 126.4  (10/10, +24.0%)

and a last line with the runs that were not ``correct`` and the failed
operations, per side.  Exits with status 1 if any run did not finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(base: list, change: list, declared: list) -> list:
    """The report lines for paired runs: ``base[i]`` and ``change[i]`` are the
    ``{metric: value}`` of pair ``i``, ``declared`` the ``end_to_end`` entries
    of ``BENCHMARK.json`` (``name`` and ``better``)."""
    lines = []
    width = max(len(m["name"]) for m in declared)
    for metric in declared:
        name = metric["name"]
        pairs = [(b[name], c[name]) for b, c in zip(base, change) if name in b and name in c]
        if not pairs:
            lines.append(f"{name:{width}s}  not reported")
            continue
        olds, news = [b for b, _ in pairs], [c for _, c in pairs]
        q1, mid, q3 = (statistics.quantiles(olds, n=4, method="inclusive")
                       if len(olds) > 1 else olds * 3)
        now = statistics.median(news)
        sign = 1.0 if metric["better"] == "higher" else -1.0
        won = sum(sign * (c - b) > 0 for b, c in pairs)
        rel = f"{100.0 * (now - mid) / mid:+.1f}%" if mid else "n/a"
        lines.append(f"{name:{width}s}  {mid:.4g} [{q1:.4g}-{q3:.4g}] -> {now:.4g}  "
                     f"({won}/{len(pairs)}, {rel})")
    return lines


def run_once(checkout: Path, args) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its parsed last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.base_rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        checkouts = {"base": Path(tmp), "change": ROOT}
        try:
            for pair in range(args.pairs):
                for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                    results[side].append(run_once(checkouts[side], args))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    values = {side: [{k: m["value"] for k, m in r["metrics"].items()} for r in runs]
              for side, runs in results.items()}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s, "
          f"base {args.base_rev} -> this checkout; median [base quartiles], pairs won")
    print(*summarize(values["base"], values["change"], declared), sep="\n")
    print("runs not correct, failed operations: " + ", ".join(
        f"{side} {sum(not r['correct'] for r in runs)}, {sum(r['failed'] for r in runs)}"
        for side, runs in results.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
