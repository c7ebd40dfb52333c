"""Fuzzed exit-code contract of the CLI.

Argument vectors come from a token grammar.  Each starts from a valid
invocation of one subcommand and takes a few mutations: a malformed,
out-of-range, duplicated or conflicting flag, a dropped flag, an unknown
flag, or flags moved into a ``--config`` file (which may itself be broken).
Whatever the input, ``cli.main`` must exit 0, 2 or 3, print no traceback,
leave stdout empty unless it exits 0, and finish within the deadline.
Valid values come from cheap ranges, so costly values reach only the
validators; ``report`` runs a stub grid, since the real one takes seconds at
any precision.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclassfun import acceptance
from qclassfun.cli import main

DEADLINE_S = 3.0

BAD_RATIONAL = ["abc", "nan", "inf", "1/0", "", "1e", "--"]
BAD_COUNT = ["-1", "x", "3.5", "1e3", "99999999999", ""]

#: flag -> (cheap valid values, malformed or out-of-range values)
VALUES = {
    "--family": (["o-plus", "so3", "u-plus"], ["sp4"]),
    "--N": (["3", "4", "5"], ["2", "1", "-1", *BAD_COUNT]),
    "--dim": (["2", "3"], ["1", *BAD_COUNT]),
    "--qq": (["0.1", "1/5", "0.25"], ["1", "0", "-1/2", "2", *BAD_RATIONAL]),
    "--dimq": (["6", "13/2", "12"], ["3", "2", *BAD_RATIONAL]),
    "--max": (["0", "3", "8"], ["401", *BAD_COUNT]),
    "--word-len": (["1", "3"], ["0", "13", *BAD_COUNT]),
    "--tol": (["1e-3", "1e-5"], ["0", "-1e-6", *BAD_RATIONAL]),
    "--n-max": (["0", "5", "50"], ["1001", *BAD_COUNT]),
    "--max-terms": (["50", "10000"], ["0", "50001", *BAD_COUNT]),
    "--which": (["dim2", "ratio3", "remark"], ["dim3"]),
    "--k-max": (["0", "4", "6"], ["25", *BAD_COUNT]),
    "--rho-ladder": (["0", "2", "5"], ["5001", *BAD_COUNT]),
    "--b": (["-1/4", "0", "1/2"], BAD_RATIONAL),
    "--M": (["2", "4", "12"], ["1", "769", "1500", *BAD_COUNT]),
    "--phase": (["0", "3/7", "-2"], BAD_RATIONAL),
    "--mode": (["rational", "irrational"], ["both"]),
    "--ratio": (["1/3", "2"], ["0", *BAD_RATIONAL]),
    "--bits": (["32", "64", "128"], ["0", "-5", "1025", "abc"]),
    "--format": (["json"], ["csv", "xml"]),
}
#: flags whose values depend on the subcommand
SPECTRAL_Q = (["0.5", "1/3", "1"], ["0", "2", *BAD_RATIONAL])
JACOBI_Q = (["0.5", "3/10"], ["1", "0", "-1/2", *BAD_RATIONAL])
BICROSSED_Q = (["1/2", "-1/3"], ["0", "1", "2", *BAD_RATIONAL])
SPECTRAL_T = (["1/3", "0", "-2"], BAD_RATIONAL)
SCALING_T = (["0,1", "5/3,2", "-1,0"], ["1", "a,b", "1,2,3", "1/0,1"])

FAMILY = ["--family", "--N", "--dim", "--qq", "--dimq"]
OPTIONAL = {
    "dims": [*FAMILY, "--max", "--word-len", "--bits", "--format"],
    "series": [*FAMILY, "--tol", "--n-max", "--max-terms", "--bits", "--format"],
    "threshold": ["--which", "--tol", "--bits", "--format"],
    "moments": [*FAMILY, "--k-max", "--format"],
    "spectral": ["--rho-ladder", "--q", "--b", "--t", "--bits", "--format"],
    "jacobi": ["--M", "--q", "--phase", "--format"],
    "bicrossed": ["--q", "--mode", "--ratio", "--t", "--format"],
    "report": ["--bits", "--format"],
}


def _values(command: str, flag: str) -> tuple[list[str], list[str]]:
    if flag == "--q":
        return {"spectral": SPECTRAL_Q, "jacobi": JACOBI_Q}.get(command, BICROSSED_Q)
    if flag == "--t":
        return SPECTRAL_T if command == "spectral" else SCALING_T
    return VALUES[flag]


@st.composite
def _family(draw) -> list[tuple[str, str]]:
    family = draw(st.sampled_from(VALUES["--family"][0]))
    if family == "o-plus":
        rest = [("--N", draw(st.sampled_from(["3", "4"]))),
                ("--qq", draw(st.sampled_from(VALUES["--qq"][0])))]
    elif family == "so3":
        rest = [("--N", draw(st.sampled_from(["3", "4"]))),
                ("--dimq", draw(st.sampled_from(VALUES["--dimq"][0])))]
    else:
        rest = [("--dim", draw(st.sampled_from(VALUES["--dim"][0]))),
                ("--qq", draw(st.sampled_from(VALUES["--qq"][0])))]
    return [("--family", family), *rest]


@st.composite
def _valid(draw, command: str) -> list[tuple[str, str]]:
    """A valid invocation of `command` as (flag, value) pairs."""
    pairs = draw(_family()) if command in ("dims", "series", "moments") else []
    pairs += {
        "threshold": [("--which", draw(st.sampled_from(VALUES["--which"][0])))],
        "spectral": [("--rho-ladder", "2"), ("--q", "0.5")],
        "jacobi": [("--M", "6"), ("--q", "0.5")],
        "bicrossed": [("--q", "1/2")] + draw(st.sampled_from(
            [[("--mode", "irrational")], [("--mode", "rational"), ("--ratio", "1/3")]])),
    }.get(command, [])
    extra = draw(st.lists(st.sampled_from(OPTIONAL[command]), max_size=2, unique=True))
    for flag in extra:
        if flag in FAMILY or flag in ("--ratio", "--mode"):
            continue  # chosen above, and only valid in combination
        pairs.append((flag, draw(st.sampled_from(_values(command, flag)[0]))))
    if command in ("dims", "moments") and draw(st.booleans()):
        pairs.append(("--format", "csv"))
    return pairs


@st.composite
def invocations(draw):
    """(argv, config as a dict, a text or None, QCLASSFUN_BITS value or None)."""
    command = draw(st.sampled_from(list(OPTIONAL)))
    pairs = draw(_valid(command))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["bad", "bad", "other", "drop", "unknown"]))
        if kind == "drop" and pairs:
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        elif kind == "unknown":
            pairs.append(draw(st.sampled_from([("--nope", "1"), ("--bits", "64"),
                                               ("--max-terms", "5"), ("--config", "")])))
        else:
            flag = draw(st.sampled_from(OPTIONAL[command]))
            valid, bad = _values(command, flag)
            pairs.append((flag, draw(st.sampled_from(bad if kind == "bad" else valid))))
    config = None
    if pairs and draw(st.integers(0, 3)) == 0:
        moved = draw(st.lists(st.integers(0, len(pairs) - 1), max_size=3, unique=True))
        config = {pairs[i][0].lstrip("-"): pairs[i][1] for i in moved}
        pairs = [pair for i, pair in enumerate(pairs) if i not in moved]
        config.update(draw(st.dictionaries(
            st.sampled_from(["t", "max_terms", "no-such-key", "qq"]),
            st.sampled_from([None, True, 3.5, -2, ["0,1", "5/3,2"], "abc"]), max_size=1)))
        if draw(st.integers(0, 5)) == 0:
            config = draw(st.sampled_from(["[1, 2]", "{not json", ""]))
    argv = [draw(st.sampled_from([command] * 9 + ["frobnicate"]))]
    argv += [token for pair in pairs for token in pair]
    env_bits = draw(st.sampled_from([None, None, None, "64", "abc", "0"]))
    return argv, config, env_bits


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@settings(max_examples=600, derandomize=True, deadline=None)
@given(invocations())
def test_every_argv_exits_0_2_or_3_without_traceback(config_path, invocation):
    argv, config, env_bits = invocation
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        config_path.write_text(text, encoding="utf-8")
        argv = argv + ["--config", str(config_path)]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acceptance, "run_all", lambda bits: {"bits_seen": bits})
        if env_bits is None:
            patch.delenv("QCLASSFUN_BITS", raising=False)
        else:
            patch.setenv("QCLASSFUN_BITS", env_bits)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == "", argv
    assert elapsed < DEADLINE_S, (argv, elapsed)


@pytest.mark.parametrize("argv", [
    ["dims", "--family", "o-plus", "--N", "100000000000", "--max", "400"],
    ["dims", "--family", "o-plus", "--N", "9" * 1000],
    ["dims", "--family", "u-plus", "--dim", "9" * 400, "--word-len", "12", "--format", "csv"],
], ids=["N=1e11", "N=1000 nines", "u-plus dim=400 nines"])
def test_dims_past_the_int_to_str_limit_is_a_budget_error(argv):
    # max·log10(N) (word_len·log10(dim)) bounds the digits of the largest
    # classical dimension; past 4,300 its int cell could not be printed.
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1 and "budget of 4300" in err.getvalue()
    assert err.getvalue().startswith("budget error: ")


@pytest.mark.parametrize("argv", [
    ["series", "--family", "o-plus", "--N", "9" * 1000, "--n-max", "1000"],
    ["series", "--family", "o-plus", "--N", "9" * 4000, "--n-max", "1000"],
    ["series", "--family", "so3", "--N", "9" * 1000, "--n-max", "201"],
], ids=["o-plus N=1000 nines", "o-plus N=4000 nines", "so3 N=1000 nines"])
def test_series_scan_past_its_digit_budget_is_a_budget_error(argv):
    # n_max·log10(a), for dim_q = a/b, bounds the digits of the largest exact
    # ladder dimension of the intertwiner scan; the first call stepped a
    # ladder of up to 1,000,000 digits for 11 s before the budget
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1 and "budget of 200000" in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["series", "--family", "o-plus", "--N", "3", "--qq", "1e-23", "--n-max", "1000"],
    ["series", "--family", "o-plus", "--N", "9" * 1000],
    ["series", "--family", "u-plus", "--dim", "9" * 4000, "--n-max", "1000"],
], ids=["qq=1e-23 n-max=1000", "N=1000 nines default n-max", "u-plus"])
def test_series_scan_budget_admits_its_largest_inputs(argv, monkeypatch):
    # the largest rational the flags admit scans about 46,000 digits, a
    # 1000-digit Kac fundamental 50,000 by default; u-plus has no ladder scan
    from qclassfun import criteria

    class Reached(Exception):
        pass

    def masa_verdict(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(criteria, "masa_verdict", masa_verdict)
    with pytest.raises(Reached), contextlib.redirect_stderr(io.StringIO()):
        main(argv)


def test_dims_budget_follows_the_int_to_str_limit_in_force():
    # 400 labels of N = 100000 may reach 2,000 digits: within the default
    # budget of 4,300, past the limit of 640 that the environment sets here
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
    env.pop("QCLASSFUN_BITS", None)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["dims", "--family", "o-plus", "--N", "100000", "--max", "400"]
    done = subprocess.run([sys.executable, "-m", "qclassfun.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and "budget of 640" in done.stderr


def test_spectral_checks_q_exactly_before_rounding_it(monkeypatch):
    # at --bits 8 an enclosure of q = 1 - 1e-22 reaches 1, and of
    # q = 1 + 1e-20 touches 1: the exact value decides, not the rounded one
    monkeypatch.delenv("QCLASSFUN_BITS", raising=False)
    for q, expected in (("0.9999999999999999999999", 0), ("1.00000000000000000001", 3)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["spectral", "--rho-ladder", "2", "--q", q, "--bits", "8"])
        assert code == expected, (q, err.getvalue())
        if expected:
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1 and f"got {q}\n" in err.getvalue()
        else:
            assert json.loads(out.getvalue())["inputs"]["q"] == q
