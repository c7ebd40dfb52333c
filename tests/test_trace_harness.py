"""The per-layer trace harness still runs and wraps the layers it names.

``perfbench/traced.py`` rebinds library names from outside; a deletion in
``src/`` that removes one of them would break the harness silently.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("QCLASSFUN_BITS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=300)


@pytest.mark.parametrize("argv, layer", [
    (["series", "--family", "o-plus", "--N", "3", "--qq", "0.2"], "cli.handler.series"),
    (["threshold", "--which", "remark", "--tol", "1e-4"], "criteria.threshold"),
    (["report"], "acceptance.criterion_5"),
    (["jacobi", "--M", "8", "--q", "0.5"], "spectral.krylov_rank"),
])
def test_traced_run_matches_untraced(tmp_path, argv, layer):
    spans = tmp_path / "spans.json"
    plain = _run(["-m", "qclassfun.cli", *argv])
    traced = _run([str(TRACED), "--spans", str(spans), "--", *argv])
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert layer in json.loads(spans.read_text(encoding="utf-8"))["names"]
