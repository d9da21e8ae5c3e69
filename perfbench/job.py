"""One benchmark job in a fresh interpreter.

Times `import zetaspectra.cli` as the set-up, then runs one job and takes
its wall time, its CPU time (user + sys, all threads) and the process's
peak RSS from its own getrusage. Prints the figures as one JSON line.
run.py starts it with PYTHONPATH pointing at the checkout's src/.

    python3 perfbench/job.py --import-only
    python3 perfbench/job.py --workload zeros-3000 --size full --out DIR [--trace]
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS will use, read without changing it."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import zetaspectra.cli
    result = {"setup_s": time.perf_counter() - start,
              "module": zetaspectra.cli.__file__}
    if args.import_only:
        print(json.dumps(result))
        return 0
    if not (args.workload and args.out):
        parser.error("a job needs --workload and --out")

    job = workloads.WORKLOADS[args.workload][args.size]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    cpu0 = cpu_seconds()
    start = time.perf_counter()
    status = workloads.run_job(job, Path(args.out))
    wall = time.perf_counter() - start
    result.update(
        wall_s=wall,
        cpu_s=cpu_seconds() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        status=status,
        numpy=sys.modules["numpy"].__version__,
        blas_threads=blas_threads(),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
