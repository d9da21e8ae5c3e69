#!/usr/bin/env python3
"""zetaspectra benchmark: one workload in a closed loop, one job at a time,
each job in a fresh interpreter.

    python3 perfbench/run.py --workload zeros-3000 --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout; the jobs import the package from ./src.
A run

1. imports zetaspectra.cli once untimed, which warms the file and bytecode
   caches;
2. runs jobs while the next one is expected to end within --seconds (at least
   one job, two when traced), and takes wall_s, cpu_s and peak_rss_mb from
   each untraced job's own process. After each job it imports
   zetaspectra.cli once more in a fresh interpreter; that import and the one
   in every job are the setup_s samples, spread over the whole run;
3. checks every job's outputs against golden.json and, once per run outside
   the timed jobs, the zeros workload's zero count against mpmath.nzeros;
4. prints every metric with its unit and sample count, the run record, and
   as its last line the JSON result.

With --trace 1 the jobs alternate traced and untraced, and the result holds
the median of each per-layer figure over the traced jobs. The
workloads' inputs are fixed, so that golden data can check every output;
--seed is only recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # a run ends within 180 s whatever --seconds says
EVENTS_LINE = re.compile(r"^(\d+) events on a grid", re.M)


def child(root: Path, argv: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run job.py in a fresh interpreter; returns its figures (None if it
    failed) and its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "job.py"), *argv],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr
    figures = json.loads(lines[-1])
    src = (root / "src").resolve()
    if not Path(figures["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"job imported {figures['module']}, not the package "
                         f"under {src}")
    return figures, proc.stderr


def sha256(path: Path) -> str:
    with path.open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def describe(out_dir: Path, manifest: dict, stderr: str) -> dict:
    """The facts about one job's outputs that golden.json records.

    The manifest's check values are left out: fixing the periodicity check
    is meant to change them.
    """
    match = EVENTS_LINE.search(stderr)
    with (out_dir / "series.csv").open() as fh:
        marks = sum(1 for row in fh if row.rstrip("\n").endswith(",1"))
    return {
        "N": manifest["config_echo"]["length"],
        "events": int(match.group(1)) if match else None,
        "marks": marks,
        "checks": [c["name"] for c in manifest["checks"]],
        "files": manifest["files"],
        "sha256": {p.name: sha256(p) for p in sorted(out_dir.iterdir())
                   if p.name != "manifest.json"},
    }


def golden_diffs(seen: dict, golden: dict) -> list[str]:
    diffs = [key for key in golden if key != "sha256" and seen[key] != golden[key]]
    names = sorted(set(seen["sha256"]) | set(golden["sha256"]))
    diffs += [name for name in names
              if seen["sha256"].get(name) != golden["sha256"].get(name)]
    return diffs


def largest_prime_factor(n: int) -> int:
    factor, largest = 2, 1
    while factor * factor <= n:
        while n % factor == 0:
            largest, n = factor, n // factor
        factor += 1
    return max(largest, n)


def tail(samples: list[float]) -> str:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if len(samples) * (100 - p) >= 1000:
            value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            return f"p{p} {value:.4f}"
    return "no tail percentile (needs 20 jobs for p50)"


class Run:
    """One benchmark run: its jobs, their checks and the figures to report."""

    def __init__(self, root: Path, args: argparse.Namespace):
        self.root = root
        self.args = args
        self.size = "tiny" if args.tiny else "full"
        self.job: Job = WORKLOADS[args.workload][self.size]
        golden = json.loads((HERE / "golden.json").read_text())
        self.golden = golden[self.size][args.workload]
        self.out_root = root / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.setup: list[float] = []
        self.jobs: list[dict] = []
        self.failed = 0
        self.correct = True
        self.record: dict = {}
        self.notes: list[str] = []

    def probe(self) -> float:
        figures, stderr = child(self.root, ["--import-only"],
                                self.deadline - time.perf_counter())
        if figures is None:
            raise SystemExit(f"cannot import zetaspectra.cli:\n{stderr}")
        return figures["setup_s"]

    def run_job(self, traced: bool) -> bool:
        """Run and check one job; returns False if it produced no figures."""
        out_dir = self.out_root / f"job{len(self.jobs)}"
        argv = ["--workload", self.args.workload, "--size", self.size,
                "--out", str(out_dir)] + (["--trace"] if traced else [])
        figures, stderr = child(self.root, argv,
                                self.deadline - time.perf_counter())
        if figures is None or not (out_dir / "manifest.json").is_file():
            self.failed += 1
            self.correct = False
            self.jobs.append({"traced": traced, "crashed": True})
            self.notes.append(f"job {len(self.jobs)} crashed:\n{stderr[-2000:]}")
            return figures is not None
        manifest = json.loads((out_dir / "manifest.json").read_text())
        seen = describe(out_dir, manifest, stderr)
        diffs = golden_diffs(seen, self.golden)
        failing = [(c["name"], c["max_error"] / manifest["config_echo"]["tol"])
                   for c in manifest["checks"] if not c["pass"]]
        if diffs:
            self.correct = False
            self.notes.append(f"job {len(self.jobs) + 1} differs from golden: "
                              f"{', '.join(diffs)}")
        if diffs or failing or figures["status"] != 0:
            self.failed += 1
        if not self.jobs:
            self.first_job(seen, figures, failing)
        if traced:  # CSV only: the manifest echoes the output directory
            figures["layers"]["emit.bytes"] = sum(
                p.stat().st_size for p in out_dir.glob("*.csv"))
        shutil.rmtree(out_dir)
        self.setup.append(figures["setup_s"])
        self.jobs.append(dict(figures, traced=traced, crashed=False))
        return True

    def first_job(self, seen: dict, figures: dict, failing: list) -> None:
        """Run record and zero-count oracle, once per run, untimed."""
        self.record = {
            "workload": self.args.workload, "size": self.size,
            "seed": self.args.seed, "python": platform.python_version(),
            "numpy": figures["numpy"], "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": figures["blas_threads"], "N": seen["N"],
            "N_largest_prime_factor": largest_prime_factor(seen["N"]),
            "events": seen["events"], "marks": seen["marks"],
        }
        for name, margin in failing:
            self.notes.append(f"check {name} failed: error/tol {margin:.4g}")
        if self.job.zeros_t_max:
            import mpmath
            expected = int(mpmath.nzeros(self.job.zeros_t_max))
            self.record["zeros_oracle"] = expected
            if seen["events"] != expected:
                self.correct = False
                self.notes.append(f"found {seen['events']} zeros, mpmath.nzeros "
                                  f"gives {expected}")

    def execute(self) -> None:
        if not self.args.tiny:
            self.probe()  # untimed: warms the file and bytecode caches
        min_jobs = 2 if self.args.trace else 1
        start = time.perf_counter()
        costs = []
        while True:
            began = time.perf_counter()
            if not self.run_job(self.args.trace and len(self.jobs) % 2 == 0):
                break
            if not self.args.tiny:
                self.setup.append(self.probe())
            costs.append(time.perf_counter() - began)
            now = time.perf_counter()
            expected = statistics.median(costs)
            if now + expected > self.deadline:
                break
            if len(self.jobs) >= min_jobs and now - start + expected > self.args.seconds:
                break

    def samples(self) -> dict[str, list[float]]:
        """Samples of each end-to-end metric; wall, CPU and RSS come from
        untraced jobs only."""
        plain = [j for j in self.jobs if not j["traced"] and not j["crashed"]]
        out = {"setup_s": self.setup}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            out[name] = [j[name] for j in plain]
        return {name: values for name, values in out.items() if values}

    def per_layer(self) -> dict[str, float]:
        """Median of each per-layer figure over the traced jobs.

        trace.overhead_s is the mean of (traced − untraced) wall time over
        adjacent pairs of jobs. Jobs differ by several percent between
        themselves, which is more than the tracer costs, so the figure bounds
        that cost from above rather than measuring it, and it can read
        negative.
        """
        traced = [j for j in self.jobs if j["traced"] and not j["crashed"]]
        if not traced:
            return {}
        layers = {name: statistics.median(j["layers"][name] for j in traced)
                  for name in traced[0]["layers"]}
        pairs = [(a["wall_s"] - b["wall_s"])
                 for a, b in zip(self.jobs[::2], self.jobs[1::2])
                 if a["traced"] and not a["crashed"] and not b["crashed"]]
        if pairs:
            layers["trace.overhead_s"] = statistics.fmean(pairs)
        return layers


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="harness check at toy sizes; never a result")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    root = Path.cwd()
    if not (root / "src" / "zetaspectra" / "__init__.py").is_file():
        print(f"run.py: {root} holds no src/zetaspectra; run from the root "
              "of a zetaspectra checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    run = Run(root, args)
    try:
        run.execute()
    finally:
        shutil.rmtree(run.out_root, ignore_errors=True)
        try:
            run.out_root.parent.rmdir()
        except OSError:
            pass

    samples = run.samples()
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    print(f"{args.workload}: {len(run.jobs)} jobs, closed loop of one client, "
          f"trace {args.trace}{' (tiny sizes, not a result)' if args.tiny else ''}")
    for name, values in samples.items():
        extra = f", {tail(values)}" if name == "wall_s" else ""
        print(f"  {name:<12} {statistics.median(values):.4f} {units[name]}  "
              f"(median of {len(values)}{extra})")
    print(f"  {'fail_ratio':<12} {run.failed / len(run.jobs):.4f} 1  "
          f"({run.failed} of {len(run.jobs)} jobs failed)")
    section = "per_layer" if args.trace else "end_to_end"
    figures = run.per_layer() if args.trace else {
        name: statistics.median(values) for name, values in samples.items()}
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in declared[section] if m["name"] in figures}
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    for note in run.notes:
        print(f"  {note}")
    print(f"record {json.dumps(run.record)}")
    correct = run.correct and len(metrics) == len(declared[section])
    print(json.dumps({"correct": correct, "attempted": len(run.jobs),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
