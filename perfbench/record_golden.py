#!/usr/bin/env python3
"""Record golden.json: what one job of every workload writes, at both sizes.

    python3 perfbench/record_golden.py

Run it from the root of a checkout whose outputs are known to be right; it
takes about half a minute. The record holds N, the event and mark counts,
the check names, the manifest's files block and the SHA-256 of every CSV.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import HERE, child, describe
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd()
    out = root / ".bench_out" / "golden"
    golden = {"full": {}, "tiny": {}}
    try:
        for size in golden:
            for name in WORKLOADS:
                out_dir = out / f"{size}-{name}"
                figures, stderr = child(root, ["--workload", name, "--size", size,
                                               "--out", str(out_dir)], 600.0)
                if figures is None:
                    print(f"{name} ({size}) failed:\n{stderr}", file=sys.stderr)
                    return 1
                manifest = json.loads((out_dir / "manifest.json").read_text())
                golden[size][name] = describe(out_dir, manifest, stderr)
                print(f"{size} {name}: N {golden[size][name]['N']}, "
                      f"{figures['wall_s']:.1f} s")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()
        except OSError:
            pass
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
