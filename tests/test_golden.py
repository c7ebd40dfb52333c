"""Golden corpus: the stdout of the README CLI examples, byte for byte.

Each case below names a file under ``tests/golden/`` holding the exact
stdout of ``qclassfun <argv>`` with ``QCLASSFUN_BITS`` unset.  An output
that changes on purpose is regenerated with

    PYTHONPATH=src python tests/test_golden.py

and the diff is explained in CHANGES.md.

The same commands also run in a process where numpy cannot be imported
(numpy is a test-only dependency), and each in a fresh process of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qclassfun.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

CASES = {
    "dims_oplus": ["dims", "--family", "o-plus", "--N", "3", "--qq", "0.2", "--max", "10"],
    "dims_uplus_csv": ["dims", "--family", "u-plus", "--dim", "2", "--qq", "0.1",
                       "--word-len", "4", "--format", "csv"],
    "dims_so3": ["dims", "--family", "so3", "--N", "4", "--dimq", "5", "--max", "6"],
    # Labels past 10, where the exact dimensions come from a long recursion.
    "dims_oplus_max60": ["dims", "--family", "o-plus", "--N", "4", "--qq", "15/97",
                         "--max", "60"],
    "dims_so3_max60": ["dims", "--family", "so3", "--N", "5", "--dimq", "71/10", "--max", "60"],
    "series_oplus": ["series", "--family", "o-plus", "--N", "3", "--qq", "0.2"],
    "series_uplus": ["series", "--family", "u-plus", "--dim", "2", "--qq", "0.22"],
    "threshold_dim2": ["threshold", "--which", "dim2", "--tol", "1e-4"],
    "threshold_ratio3": ["threshold", "--which", "ratio3"],
    "threshold_remark": ["threshold", "--which", "remark", "--tol", "1e-4"],
    "moments_so3": ["moments", "--family", "so3", "--N", "4", "--k-max", "8"],
    # The largest inputs the moment oracles serve.
    "moments_oplus_k24": ["moments", "--family", "o-plus", "--N", "2", "--k-max", "24"],
    "moments_uplus_k24": ["moments", "--family", "u-plus", "--dim", "2", "--k-max", "24"],
    "spectral": ["spectral", "--rho-ladder", "1", "--q", "0.5", "--b", "-0.25"],
    "jacobi": ["jacobi", "--M", "8", "--q", "0.5"],
    "bicrossed": ["bicrossed", "--q", "1/2", "--mode", "irrational",
                  "--t", "0,1", "--t", "5/3,2"],
    "report": ["report"],
    # Non-default precisions: each enclosure must be computed at --bits.
    "report_bits64": ["report", "--bits", "64"],
    "series_uplus_bits256": ["series", "--family", "u-plus", "--dim", "2", "--qq", "0.22",
                             "--bits", "256"],
    "series_so3_bits96": ["series", "--family", "so3", "--N", "4", "--dimq", "5",
                          "--bits", "96"],
    "threshold_dim2_bits64": ["threshold", "--which", "dim2", "--tol", "1e-4", "--bits", "64"],
    "threshold_remark_bits256": ["threshold", "--which", "remark", "--tol", "1e-4",
                                 "--bits", "256"],
    "spectral_bits256": ["spectral", "--rho-ladder", "3", "--q", "1/3", "--b", "-0.25",
                         "--t", "1/3", "--bits", "256"],
    "dims_uplus_bits64": ["dims", "--family", "u-plus", "--dim", "2", "--qq", "0.1",
                          "--word-len", "3", "--bits", "64"],
    # A tolerance finer than the starting precision: the bracket is enclosed
    # at an escalated precision.
    "threshold_dim2_bits32": ["threshold", "--which", "dim2", "--tol", "1e-18", "--bits", "32"],
    "threshold_remark_bits32": ["threshold", "--which", "remark", "--tol", "1e-18",
                                "--bits", "32"],
}


def _stdout(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch):
    monkeypatch.delenv("QCLASSFUN_BITS", raising=False)
    code, out = _stdout(CASES[name])
    assert code == 0
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert out == expected


def test_dims_runs_where_the_int_to_str_limit_cannot_be_read(monkeypatch):
    # Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits
    monkeypatch.delenv("QCLASSFUN_BITS", raising=False)
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    code, out = _stdout(CASES["dims_oplus_max60"])
    assert code == 0
    assert out == (GOLDEN / "dims_oplus_max60.out").read_text(encoding="utf-8")


#: Runs the {name: argv} cases read from stdin with numpy unimportable and
#: prints {name: [exit code, stdout]}.
RUN_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from qclassfun.cli import main
results = {}
for name, argv in json.load(sys.stdin).items():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    results[name] = [code, buffer.getvalue()]
json.dump(results, sys.stdout)
"""


def _env() -> dict:
    env = dict(os.environ)
    env.pop("QCLASSFUN_BITS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(code: str, stdin: str = "") -> str:
    return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          text=True, env=_env(), timeout=300, check=True).stdout


def test_golden_commands_run_without_numpy():
    results = json.loads(_python(RUN_WITHOUT_NUMPY, json.dumps(CASES)))
    for name in CASES:
        code, out = results[name]
        assert code == 0, name
        assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), name


def test_golden_commands_in_fresh_processes():
    # Each command in its own interpreter, as a user runs it: a handler that
    # relies on a module imported by an earlier command fails here.
    for name, argv in CASES.items():
        run = subprocess.run([sys.executable, "-m", "qclassfun.cli", *argv], capture_output=True,
                             env=_env(), timeout=300)
        assert run.returncode == 0, (name, run.stderr)
        assert run.stdout == (GOLDEN / f"{name}.out").read_bytes(), name


def test_cli_leaves_numpy_unimported():
    out = _python("import sys, qclassfun.cli\n"
                  "loaded = ['numpy' in sys.modules]\n"
                  "qclassfun.cli.main(['jacobi', '--M', '8', '--q', '0.5'])\n"
                  "print(loaded + ['numpy' in sys.modules])")
    assert out.endswith("[False, False]\n")


if __name__ == "__main__":
    os.environ.pop("QCLASSFUN_BITS", None)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out = _stdout(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
