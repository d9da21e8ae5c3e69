#!/usr/bin/env python3
"""Benchmark records: run perfbench on a checkout into BENCH_<n>.json, and
compare two records.

    python tools/bench.py record BENCH_31.json --root ../parent --label parent \
        --root . --label change
    python tools/bench.py compare BENCH_31.json:parent BENCH_31.json:change

`record` runs each checkout's perfbench/run.py (one --root with a --label
each) as a subprocess for every workload BENCHMARK.json declares, with SEED
and SECONDS, in three series; with several checkouts their runs alternate,
so that the host's drift falls on each alike:

* `untraced`: --trace 0, the end-to-end metrics;
* `traced`: --trace 1, the per-layer metrics;
* `traced_fixed_malloc`: --trace 1 with MALLOC_MMAP_THRESHOLD_ and
  MALLOC_TRIM_THRESHOLD_ fixed, so that glibc's dynamic mmap threshold, which
  the largest array freed so far sets, does not show as layer time.

It stores each run's JSON result and `record` line under its --label in
the file, which may hold several, with the commit (None outside a git
checkout), the SHA-256 of the files under src/, which names the code
measured either way, nproc, the Python and numpy versions, `blas_threads`
and the thread variables. `blas_threads` is the OpenBLAS thread count in
effect in the jobs, as the first job of the first untraced run read it; the
package starts OpenBLAS on one thread unless a thread variable is set. The
variables are OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS as
the recording process holds them (None where unset), which the jobs inherit.
`numtheory.z_eval_s` and `numtheory.z_evals` count scalar
`riemann_siegel_Z` calls only; the batched Z route is not in them.

`compare A B` takes FILE or FILE:LABEL (a file of one label needs none) and
prints each metric's ratio B / A, flagging

* BOUND: an end-to-end metric worse than its BENCHMARK.json bound,
* SLOWER: a layer's time more than 10% slower (not the trace.* figures),
* CORRECT: a run whose `correct` differs.

It exits 1 when anything is flagged and 0 otherwise. A single run per side
is noisy: jobs on one host drift by up to a quarter, so a claimed gain needs
alternating pairs of perfbench runs, not one record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SERIES = {
    "untraced": (0, {}),
    "traced": (1, {}),
    "traced_fixed_malloc": (1, {"MALLOC_MMAP_THRESHOLD_": "8388608",
                                "MALLOC_TRIM_THRESHOLD_": "67108864"}),
}
SEED = 1  # perfbench's job seed, the same for every run
SECONDS = 10.0  # each run's length
LAYER_SLOWER = 1.10  # the largest ratio a layer's time may show unflagged
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def src_digest(root: Path) -> str:
    """SHA-256 over the paths and bytes of every .py file under src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def perfbench(root: Path, workload: str, trace: int, env: dict) -> dict:
    """One perfbench/run.py run: its JSON result plus its record line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=root, env=dict(os.environ, **env), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench/run.py --workload {workload} failed:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("record "):
            result["record"] = json.loads(line[len("record "):])
    return result


def checkout(root: Path) -> dict:
    """A run's header: what was measured, and where."""
    git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "commit": git.stdout.strip() if git.returncode == 0 else None,
        "src_sha256": src_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }


def record(args: argparse.Namespace) -> int:
    roots = [Path(r).resolve() for r in args.root]
    labels = args.label or []
    if len(labels) != len(roots):
        raise SystemExit("give one --label per --root")
    runs = [checkout(root) for root in roots]
    declared = json.loads((roots[0] / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in declared["workloads"]):
        for series, (trace, env) in SERIES.items():
            for root, run in zip(roots, runs):
                print(f"{root.name}: {workload} {series} ...", file=sys.stderr)
                result = perfbench(root, workload, trace, env)
                run["workloads"].setdefault(workload, {})[series] = dict(
                    result, env=env)
    out = Path(args.file)
    data = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    for label, run in zip(labels, runs):
        first = next(iter(run["workloads"].values()))["untraced"]["record"]
        run.update(python=first["python"], numpy=first["numpy"],
                   blas_threads=first["blas_threads"])
        data["runs"][label] = run
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def load_run(spec: str) -> tuple[str, dict]:
    path, _, label = spec.partition(":")
    runs = json.loads(Path(path).read_text())["runs"]
    if not label:
        if len(runs) != 1:
            raise SystemExit(f"{path} holds {', '.join(sorted(runs))}; "
                             "name one as FILE:LABEL")
        label = next(iter(runs))
    if label not in runs:
        raise SystemExit(f"{path} holds no run labelled {label!r}")
    return f"{path}:{label}", runs[label]


def flag(metric: dict, ratio: float | None) -> str:
    """BOUND or SLOWER when ratio B / A breaks the metric's limit; the
    tracer's own trace.* figures are not layers."""
    if ratio is None or metric["name"].startswith("trace."):
        return ""
    if metric["better"] == "higher":
        ratio = 1.0 / ratio if ratio else float("inf")
    if "bound" in metric:
        return "BOUND" if ratio > 1.0 + metric["bound"] else ""
    return "SLOWER" if metric["unit"] == "s" and ratio > LAYER_SLOWER else ""


def compare(args: argparse.Namespace) -> int:
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m
               for m in declared["end_to_end"] + declared["per_layer"]}
    (name_a, a), (name_b, b) = load_run(args.a), load_run(args.b)
    print(f"B / A, A = {name_a} ({a['commit']}), B = {name_b} ({b['commit']})")
    flagged = 0
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        for series in SERIES:
            ra = a["workloads"].get(workload, {}).get(series)
            rb = b["workloads"].get(workload, {}).get(series)
            if ra is None or rb is None:
                print(f"{workload} {series}: only in one record")
                continue
            correct = "" if ra["correct"] == rb["correct"] else "CORRECT"
            flagged += bool(correct)
            print(f"{workload} {series}: correct {ra['correct']} -> "
                  f"{rb['correct']}, failed {ra['failed']}/{ra['attempted']}"
                  f" -> {rb['failed']}/{rb['attempted']} {correct}".rstrip())
            for name in sorted(set(ra["metrics"]) & set(rb["metrics"])):
                va = ra["metrics"][name]["value"]
                vb = rb["metrics"][name]["value"]
                ratio = vb / va if va else (1.0 if vb == va else None)
                mark = flag(metrics[name], ratio) if name in metrics else ""
                flagged += bool(mark)
                shown = "-" if ratio is None else f"{ratio:.3f}"
                print(f"  {name:<32} {va:>12.6g} {vb:>12.6g} {shown:>7} "
                      f"{mark}".rstrip())
    print(f"{flagged} flagged")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run perfbench into a BENCH file")
    rec.add_argument("file")
    rec.add_argument("--root", action="append", required=True,
                     help="checkout to benchmark; give several to interleave "
                     "their runs")
    rec.add_argument("--label", action="append",
                     help="run name, one per --root")
    cmp = sub.add_parser("compare", help="ratios B / A of two runs")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
