"""The benchmark's workloads and the job each one runs.

Every input is fixed: a workload names one scenario whose outputs are
recorded in golden.json. The "tiny" size of each workload exercises the
harness in the smoke test and is never reported as a result.

This module imports nothing from zetaspectra at load time, so job.py can
import it before it times the package import.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Job:
    cli_args: tuple[str, ...]  # arguments to `zetaspectra run`
    skip_periodicity: bool = False  # replace the literal-sum check by a no-op
    zeros_t_max: float = 0.0  # zeros job: height whose zero count mpmath checks


WORKLOADS = {
    "zeros-3000": {
        "full": Job(("--t-max", "3000"), zeros_t_max=3000.0),
        "tiny": Job(("--t-max", "60"), zeros_t_max=60.0),
    },
    # The literal-sum periodicity check would take minutes at this N, so the
    # job runs the CLI with that one check switched off.
    "library-primes-3e5": {
        "full": Job(("--source", "primes", "--limit", "300000"),
                    skip_periodicity=True),
        "tiny": Job(("--source", "primes", "--limit", "3000"),
                    skip_periodicity=True),
    },
}


def run_job(job: Job, out_dir: Path) -> int:
    """Run one job, writing into out_dir; returns the CLI's exit status.

    The switch goes in after the traced run's wrappers, so the check's span
    never runs and reports 0.
    """
    from zetaspectra import cli
    if job.skip_periodicity:
        cli.periodicity_check = lambda *args, **kwargs: []
    return cli.main(["run", *job.cli_args, "--out", str(out_dir)])
