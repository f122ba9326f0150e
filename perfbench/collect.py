"""Collect sets of benchmark runs and compare two sets within the bounds.

    python3 perfbench/collect.py run --out .bench_results/a.json --seeds 1-10
    python3 perfbench/collect.py summary .bench_results/a.json
    python3 perfbench/collect.py compare .bench_results/a.json .bench_results/b.json

``run`` executes ``run.py`` once per workload and seed, one process at a
time, and writes the results with the machine's description.  ``compare``
applies the bounds of ``BENCHMARK.json``: on every workload each
end-to-end metric's median in the second set may be worse than in the
first by at most its bound, each metric's spread (quartile distance over
median) stays within its bound in both sets (set-up time excepted), every
run is correct, and the share of failed operations is the same in every
run.  It exits with 1 when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True


def machine_info() -> dict:
    """CPU, cores, interpreter and library versions, and the source revision."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git": git_revision(ROOT)}


def git_revision(root: Path) -> str:
    """Commit of the checkout read from ``.git`` ("unknown" outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args) -> int:
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for name in names:
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            runs.append({"workload": name, "seed": seed, "trace": args.trace,
                         "wall_s": wall, "result": result})
            print(f"{name:10s} seed {seed:3d}  {wall:6.1f} s  "
                  f"correct={result['correct']}  "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": machine_info(), "seconds": seconds,
                               "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


def _values(data, workload, metric, trace=0):
    return [r["result"]["metrics"][metric]["value"] for r in data["runs"]
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def _workloads(data):
    return sorted({r["workload"] for r in data["runs"]})


def cmd_summary(args) -> int:
    """Medians and spreads of the merged runs of one or more files."""
    spec = load_spec()
    data = {"runs": []}
    for path in args.files:
        part = json.loads(Path(path).read_text())
        machine = part["machine"]
        print(f"# {path}: {machine['cpu']}, {machine['nproc']} cores, Python "
              f"{machine['python']}, numpy {machine['numpy']}, scipy "
              f"{machine['scipy']}, git {machine['git'][:12]}, {part['seconds']} s runs")
        data["runs"].extend(part["runs"])
    for name in _workloads(data):
        runs = [r for r in data["runs"] if r["workload"] == name]
        print(f"{name}: {len(runs)} runs, failed/attempted "
              + ", ".join(sorted({f"{r['result']['failed']}/{r['result']['attempted']}"
                                  for r in runs})))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            for trace in (0, 1):
                values = _values(data, name, metric["name"], trace)
                if values:
                    print(f"  {metric['name']:38s} median "
                          f"{statistics.median(values):12.6g} {metric['unit']:6s}"
                          f" spread {spread(values):6.3f}  n={len(values)}")
        plain = _values(data, name, "solves_per_s")
        traced = _values(data, name, "trace.solves_per_s", 1)
        if plain and traced:
            overhead = statistics.median(plain) / statistics.median(traced) - 1.0
            print(f"  tracing overhead {overhead:+.1%} (median solves/s, "
                  f"untraced over traced)")
    return 0


def cmd_compare(args) -> int:
    spec = load_spec()
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    bad = []
    for data, label in ((base, "base"), (new, "new")):
        for r in data["runs"]:
            if not r["result"]["correct"]:
                bad.append(f"{label} {r['workload']} seed {r['seed']}: not correct")
    for name in sorted(set(_workloads(base)) | set(_workloads(new))):
        shares = {(r["result"]["failed"], r["result"]["attempted"])
                  for data in (base, new) for r in data["runs"]
                  if r["workload"] == name and r["trace"] == 0}
        if len({Fraction(f, a) for f, a in shares}) > 1:
            bad.append(f"{name}: failed shares differ: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = _values(base, name, key), _values(new, name, key)
            if not a or not b:
                bad.append(f"{name} {key}: missing")
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            verdict = "ok"
            if worse > bound:
                verdict = "WORSE"
                bad.append(f"{name} {key}: {worse:+.1%} worse, bound {bound:.0%}")
            if key != "setup_s" and max(sa, sb) > bound:
                verdict = "SPREAD"
                bad.append(f"{name} {key}: spread {max(sa, sb):.3f} > bound {bound}")
            print(f"{name:10s} {key:22s} {ma:12.6g} -> {mb:12.6g} {metric['unit']:5s}"
                  f" worse {worse:+7.2%} (bound {bound:.0%})  spread {sa:.3f}/{sb:.3f}"
                  f"  {verdict}")
    for line in bad:
        print("FAIL " + line)
    print("agree within bounds" if not bad else f"{len(bad)} failures")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads over seeds, one at a time")
    run.add_argument("--out", required=True)
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    run.add_argument("--workloads", default="", help="comma list (default all)")
    run.add_argument("--seconds", type=int, default=0,
                     help="run length (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.set_defaults(func=cmd_run)
    summary = sub.add_parser("summary", help="medians and spreads of result sets")
    summary.add_argument("files", nargs="+")
    summary.set_defaults(func=cmd_summary)
    compare = sub.add_parser("compare", help="check two result sets agree")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
