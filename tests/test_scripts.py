"""The experiment scripts stay runnable, and neither loads mpmath: each
runs in a process where importing mpmath raises ImportError."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

#: Runs the script named by argv[1] as __main__, with the rest of argv as
#: its own, in a process where mpmath cannot be imported.
RUN_WITHOUT_MPMATH = """
import runpy, sys
sys.modules["mpmath"] = None
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def run_script(name: str, *argv: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_MPMATH, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return result.stdout


def test_threshold_scan():
    out = run_script("threshold_scan.py", "--points", "5", "--tol", "1e-6")
    lines = out.strip().split("\n")
    assert lines[0] == "q,sum_lo,sum_hi,bound_hi,verdict"
    assert len(lines) == 6
    assert lines[1].endswith("below-1")


def test_decay_profile():
    out = run_script("decay_profile.py", "--N", "3", "--qq", "0.2", "--n-max", "4")
    assert "series converges" in out
    assert out.count("\n") >= 7
