"""The package starts OpenBLAS on one thread unless numpy was imported first
or the user set a thread variable; each case runs in a fresh interpreter,
since OpenBLAS reads its thread count once, when numpy loads it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# the count is read through the OpenBLAS getter, by the benchmark's own
# reader, which sets nothing
CHILD = """
import json, os, sys
sys.path.insert(0, {perfbench!r})
from job import blas_threads
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps({{"threads": blas_threads(),
                  "set": "OPENBLAS_NUM_THREADS" in os.environ}}))
"""


def threads(*imports, **env):
    """OpenBLAS's thread count, and whether OPENBLAS_NUM_THREADS is in
    os.environ, in a fresh interpreter that imports `imports` in order with
    no thread variable but those in `env`."""
    child_env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    child_env.update(env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(perfbench=str(ROOT / "perfbench")),
         *imports], env=child_env, capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    if got["threads"] is None:
        pytest.skip("no OpenBLAS thread getter in numpy's bundled libraries")
    return got["threads"], got["set"]


def test_one_openblas_thread_by_default_and_os_environ_left_as_it_was():
    assert threads("zetaspectra") == (1, False)


# on a 1-vCPU host OpenBLAS's default is 1 anyway; a count of 2 tells a
# user's setting apart from the package's
@pytest.mark.parametrize("var", THREAD_VARS)
def test_a_thread_variable_the_user_set_wins(var):
    # OpenBLAS ranks OPENBLAS_NUM_THREADS above OMP_NUM_THREADS, so setting
    # it by default would override a user's OMP_NUM_THREADS
    assert threads("zetaspectra", **{var: "2"}) == (
        2, var == "OPENBLAS_NUM_THREADS")


def test_numpy_imported_first_is_left_alone():
    assert threads("numpy", "zetaspectra") == threads("numpy")
