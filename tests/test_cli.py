"""CLI behavior: output schema, determinism, exit codes, formats."""

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qclassfun import fusion
from qclassfun.cli import build_parser, main
from qclassfun.errors import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_without_arguments(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_usage_error_missing_family(capsys):
    code, _, err = run_cli(capsys, "dims")
    assert code == 2
    assert "family" in err


def test_usage_error_unknown_flag(capsys):
    code, _, _ = run_cli(capsys, "dims", "--nope")
    assert code == 2


SERIES = ("series", "--family", "o-plus", "--N", "3", "--qq", "0.2")
DIMS = ("dims", "--family", "o-plus", "--N", "3", "--qq", "0.2")


@pytest.mark.parametrize("argv, env_bits, config", [
    (SERIES + ("--tol", "abc"), None, None),
    (SERIES + ("--tol", "nan"), None, None),
    (SERIES + ("--tol", "0"), None, None),
    (SERIES + ("--tol=-1e-6",), None, None),
    (("threshold", "--which", "dim2", "--tol", "0"), None, None),
    (("threshold", "--which", "remark", "--tol", "inf"), None, None),
    (DIMS + ("--bits", "-5"), None, None),
    (DIMS + ("--bits", "0"), None, None),
    (SERIES + ("--bits", "2048"), None, None),
    (DIMS, "-3", None),
    (DIMS, "0", None),
    (("threshold", "--which", "ratio3"), "2048", None),
    (DIMS, None, {"bits": "abc"}),
    (SERIES, None, {"tol": "abc"}),
    (("series", "--family", "so3", "--N", "2", "--dimq", "5/2"), None, None),
    (("series", "--family", "so3", "--N", "2"), None, None),
    (DIMS + ("--max", "-3"), None, None),
    (("dims", "--family", "u-plus", "--dim", "2", "--word-len", "0"), None, None),
    (("moments", "--family", "o-plus", "--N", "2", "--k-max", "-2"), None, None),
    (SERIES + ("--n-max", "-1"), None, None),
    (SERIES + ("--max-terms", "0"), None, None),
    (SERIES, None, {"max_terms": "x"}),
    (DIMS, None, {"max": "x"}),
    (("moments", "--family", "o-plus", "--N", "2"), None, {"k_max": 3.5}),
    (DIMS, None, {"max": -3}),
    (("dims", "--family", "o-plus", "--qq", "0.2"), None, {"N": True}),
    (("dims", "--family", "o-plus", "--N", "3"), None, {"qq": ["0.1", "0.2"]}),
    (("moments", "--family", "o-plus", "--N", "2", "--bits", "64"), None, None),
    (DIMS + ("--max-terms", "5"), None, None),
    (("jacobi", "--M", "8", "--q", "0.5"), None, {"bits": 64}),
    (("jacobi", "--M", "8", "--q", "abc"), None, None),
    (("jacobi", "--M", "8", "--q", "0.5", "--phase", "nan"), None, None),
    (("jacobi", "--M", "8", "--q", "1/0"), None, None),
])
def test_invalid_tol_bits_and_family_are_usage_errors(
        capsys, monkeypatch, tmp_path, argv, env_bits, config):
    if env_bits is None:
        monkeypatch.delenv("QCLASSFUN_BITS", raising=False)
    else:
        monkeypatch.setenv("QCLASSFUN_BITS", env_bits)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ("--config", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


# One case per flag budget: the smallest value above each range.
@pytest.mark.parametrize("argv", [
    DIMS + ("--max", "401"),
    ("dims", "--family", "u-plus", "--dim", "2", "--qq", "0.2", "--word-len", "13"),
    SERIES + ("--n-max", "1001"),
    SERIES + ("--max-terms", "50001"),
    ("moments", "--family", "o-plus", "--N", "2", "--k-max", "25"),
    ("spectral", "--rho-ladder", "5001", "--q", "0.5"),
    ("jacobi", "--M", "769", "--q", "0.5"),
    ("jacobi", "--M", "1", "--q", "0.5"),
    ("jacobi", "--M", "1500", "--q", "0.5"),
    # Rational flags: 25 digits, an exponent e-n counting as n digits.
    ("dims", "--family", "o-plus", "--N", "3", "--qq", "1e-1000000", "--max", "2"),
    ("dims", "--family", "o-plus", "--N", "3", "--qq", "1e-24"),
    ("dims", "--family", "so3", "--N", "3", "--dimq", "1234567890123456789012345"),
    SERIES[:-1] + ("1/123456789012345678901234",),
    ("threshold", "--which", "dim2", "--tol", "1e-100000"),
    ("threshold", "--which", "remark", "--tol", "9e-24"),
    ("spectral", "--rho-ladder", "1", "--q", "0.5", "--b", "1e24"),
    ("bicrossed", "--q", "1/2", "--mode", "irrational", "--t", "0,1e-24"),
])
def test_values_above_a_flag_budget_are_usage_errors(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and "must be in" in err


# The largest values the README and the benchmark workloads use, at or
# below each budget.
@pytest.mark.parametrize("argv", [
    DIMS + ("--max", "400"),
    ("dims", "--family", "u-plus", "--dim", "2", "--word-len", "12"),
    ("dims", "--family", "u-plus", "--dim", "2", "--word-len", "9"),
    SERIES + ("--n-max", "1000", "--max-terms", "50000"),
    SERIES + ("--max-terms", "1500"),
    SERIES + ("--max-terms", "10000"),
    ("moments", "--family", "u-plus", "--dim", "2", "--k-max", "24"),
    ("spectral", "--rho-ladder", "5000", "--q", "0.5"),
    ("jacobi", "--M", "768", "--q", "0.5"),
    ("jacobi", "--M", "32", "--q", "0.3", "--phase", "3/7"),
    ("dims", "--family", "o-plus", "--N", "3", "--qq", "1e-23"),
    ("dims", "--family", "so3", "--N", "3", "--dimq", "123456789012345678901234"),
    SERIES[:-1] + ("123456789012/987654321098",),
    ("threshold", "--which", "dim2", "--tol", "0.00000000000000000000001"),
    ("threshold", "--which", "dim2", "--tol", "9e-20"),
    ("threshold", "--which", "remark", "--tol", "9e-20"),
    ("bicrossed", "--q", "1/2", "--mode", "irrational", "--t", "0,1e-23"),
])
def test_values_within_the_flag_budgets_parse(argv):
    build_parser().parse_args(list(argv))


def riordan(n: int) -> int:
    """Riordan numbers by their closed three-term recurrence, a route that
    shares nothing with the first-block count of the moments oracle."""
    r = [1, 0]
    for m in range(2, n + 1):
        r.append((m - 1) * (2 * r[m - 1] + 3 * r[m - 2]) // (m + 1))
    return r[n]


# so3 moments above 10 points, where the enumerating oracle once exited 3.
@pytest.mark.parametrize("k_max", ["11", "24"])
def test_so3_moments_match_the_riordan_numbers(capsys, k_max):
    payload = run_json(capsys, "moments", "--family", "so3", "--N", "3", "--k-max", k_max)
    rows = payload["results"]["table"]
    assert [row["k"] for row in rows] == list(range(int(k_max) + 1))
    for row in rows:
        assert row["match"] is True
        assert row["multiplicity"] == row["oracle"] == riordan(row["k"])


def test_so3_moments_above_ten_points_exit_0(capsys):
    code, out, err = run_cli(capsys, "moments", "--family", "so3", "--N", "3",
                             "--k-max", "11")
    assert code == 0
    assert err == ""
    assert json.loads(out)["results"]["table"][-1]["k"] == 11


# Powers of about 2^(|4b+1| n log2(1/q)) that once ended in a MemoryError,
# a hang, an OverflowError or a decimal.Overflow after 35 s.
@pytest.mark.parametrize("argv", [
    ("spectral", "--rho-ladder", "1", "--q", "1/2", "--b", "1e12"),
    ("spectral", "--rho-ladder", "1", "--q", "1/2", "--b", "1e9"),
    ("spectral", "--rho-ladder", "1", "--q", "1e-23", "--b", "1e23"),
    ("spectral", "--rho-ladder", "1", "--q", "1/2", "--b", "1e6"),
    ("spectral", "--rho-ladder", "1", "--q", "1/2", "--b=-131073"),
    ("spectral", "--rho-ladder", "5000", "--q", "1/2", "--b", "26"),
    # n+1 eigenvalues of up to n log2(1/q) bits: 39 s for the first.
    ("spectral", "--rho-ladder", "1600", "--q", "1e-23"),
    ("spectral", "--rho-ladder", "5000", "--q", "1e-23"),
    ("spectral", "--rho-ladder", "5000", "--q", "1/10000"),
    ("spectral", "--rho-ladder", "5000", "--q", "1/6"),
    # n+1 exact eigenvalues of |n-2k| log2(r) bits for q = p/r: 12 to 23
    # digits near 1 took 14-55 s and up to 308 MB at --rho-ladder 5000.
    ("spectral", "--rho-ladder", "5000", "--q", "0.99999999999999999999999"),
    ("spectral", "--rho-ladder", "520", "--q", "0.99999999999999999999999"),
    ("spectral", "--rho-ladder", "803", "--q", "0.999999999999"),
])
def test_spectral_power_above_the_magnitude_budget_exit_3(capsys, monkeypatch, argv):
    def unreachable(*args):
        raise AssertionError("the spectrum was built before the budget check")

    monkeypatch.setattr(fusion, "rho_spectrum", unreachable)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "exceeds the budget of 524288" in err and "Traceback" not in err


def test_spectral_power_at_the_magnitude_budget_is_computed(capsys, monkeypatch):
    def reached(*args):
        raise DomainError("reached")

    monkeypatch.setattr(fusion, "rho_spectrum", reached)
    # |4b+1| = 524285 bits at n = 1, q = 1/2
    code, _, err = run_cli(capsys, "spectral", "--rho-ladder", "1", "--q", "1/2",
                           "--b", "131071")
    assert code == 3
    assert "reached" in err


# The largest spectra of the README, the tests and the benchmark workloads,
# and --q 1/5, the smallest unit fraction that --rho-ladder 5000 accepts.
@pytest.mark.parametrize("argv", [
    ("--rho-ladder", "5000", "--q", "0.5"),
    ("--rho-ladder", "5000", "--q", "1/5"),
    ("--rho-ladder", "5", "--q", "1/5", "--b=-1/2"),
    ("--rho-ladder", "5", "--q", "1/5", "--b", "1/4", "--t", "1/3"),
    # the largest ladders that a q of 12 and of 23 digits near 1 admit
    ("--rho-ladder", "802", "--q", "0.999999999999"),
    ("--rho-ladder", "519", "--q", "0.99999999999999999999999"),
])
def test_spectral_eigenvalues_within_the_magnitude_budget_are_computed(capsys, monkeypatch,
                                                                       argv):
    def reached(*args):
        raise DomainError("reached")

    monkeypatch.setattr(fusion, "rho_spectrum", reached)
    code, _, err = run_cli(capsys, "spectral", *argv)
    assert code == 3
    assert "reached" in err


#: CPU seconds a worst-case `spectral` run may take in its child process,
#: which RLIMIT_CPU stops there.  At the budget the slowest admitted run,
#: the last case below, takes about 2.1 s on a 2-vCPU VM; before the budget
#: counted the exact eigenvalues, the first case took 47 s and 278 MB.
SPECTRAL_CPU_SECONDS = 20


@pytest.mark.parametrize("argv", [
    ("--rho-ladder", "5000", "--q", "0.99999999999999999999999", "--b=1/4", "--bits", "1024"),
    # the slowest admitted run at an integer 4b
    ("--rho-ladder", "5000", "--q", "4/5", "--b=1/4", "--bits", "1024"),
    # with --t and a non-integer 4b: one log q, then a cosine and a sine per |2k - n|
    ("--rho-ladder", "5000", "--q", "1/5", "--b=1/3", "--t", "7/3", "--bits", "1024"),
])
def test_spectral_worst_cases_end_within_the_cpu_bound(argv):
    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (SPECTRAL_CPU_SECONDS, SPECTRAL_CPU_SECONDS))

    env = dict(os.environ)
    env.pop("QCLASSFUN_BITS", None)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "qclassfun.cli", "spectral", *argv],
                          capture_output=True, text=True, env=env, preexec_fn=limit,
                          timeout=10 * SPECTRAL_CPU_SECONDS)
    assert done.returncode in (0, 3), done.stderr
    assert "Traceback" not in done.stderr


def test_spectral_norm_at_a_huge_exponent_stays_in_its_cell(capsys):
    # -4b-1 = -(4e23+1): the norm is about e^4 / 2 at q = 1 - 1e-23
    payload = run_json(capsys, "spectral", "--rho-ladder", "1",
                       "--q", "0.99999999999999999999999", "--b=100000000000000000000000")
    norm = payload["results"]["norm_sq"]
    assert Fraction("27.30823283601648662920280830958297365503") <= Fraction(norm["lo"])
    assert Fraction(norm["hi"]) <= Fraction("27.30823283601648662920280830958297365513")


@pytest.mark.parametrize("flag, config, env, expected", [
    (("--bits", "192"), {"bits": 64}, "96", 192),
    ((), {"bits": 64}, "96", 64),
    ((), None, "96", 96),
    ((), None, None, 128),
    ((), {"bits": 64}, "abc", 64),
    (("--bits", "192"), None, "abc", 192),
])
def test_precision_precedence_flag_config_env_default(
        capsys, monkeypatch, tmp_path, flag, config, env, expected):
    if env is None:
        monkeypatch.delenv("QCLASSFUN_BITS", raising=False)
    else:
        monkeypatch.setenv("QCLASSFUN_BITS", env)
    argv = ("threshold", "--which", "ratio3") + flag
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ("--config", str(path))
    assert run_json(capsys, *argv)["meta"]["bits"] == expected


def test_domain_error_exits_3(capsys):
    # quantum dimension 2 below classical dimension 3 defines no family
    code, _, err = run_cli(capsys, "dims", "--family", "o-plus", "--N", "3", "--qq", "1")
    assert code == 3
    assert "domain error" in err


def test_diverges_is_an_answer_with_exit_0(capsys):
    payload = run_json(capsys, "series", "--family", "o-plus", "--N", "2", "--qq", "1")
    assert payload["results"]["series"]["verdict"] == "diverges"
    assert payload["results"]["masa_verdict"] == "no conclusion"


def test_undetermined_is_an_answer_with_exit_0(capsys):
    # slow ratio decay exhausts a tiny term budget
    payload = run_json(capsys, "series", "--family", "o-plus", "--N", "2",
                       "--qq", "0.9", "--max-terms", "20")
    assert payload["results"]["series"]["verdict"] == "undetermined"
    assert payload["results"]["masa_verdict"] == "no conclusion"


def test_budget_capped_series_near_kac_is_undetermined(capsys):
    # the benchmark's capped call: its majorant still exceeds tol after the
    # budget, so the answer is undetermined at the budget of 1500 + 1 labels
    payload = run_json(capsys, "series", "--family", "o-plus", "--N", "3",
                       "--dimq", "3007/1000", "--max-terms", "1500")
    series = payload["results"]["series"]
    assert (series["verdict"], series["terms_used"]) == ("undetermined", 1501)


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("argv", [
    ("dims", "--family", "o-plus", "--N", "3", "--qq", "0.2", "--max", "6"),
    ("series", "--family", "u-plus", "--dim", "2", "--qq", "0.05"),
    ("threshold", "--which", "ratio3"),
    ("moments", "--family", "so3", "--N", "4", "--k-max", "5"),
    ("jacobi", "--M", "6", "--q", "0.5"),
    ("bicrossed", "--q", "1/2", "--mode", "irrational", "--t", "0,1", "--t", "5/3,2"),
])
def test_byte_identical_reports(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# dims


def test_dims_ladder_row_count(capsys):
    payload = run_json(capsys, "dims", "--family", "o-plus", "--N", "3",
                       "--qq", "0.2", "--max", "10")
    table = payload["results"]["table"]
    assert len(table) == 11
    assert table[0]["label"] == "0" and table[0]["dim"] == 1
    assert table[2]["dim"] == 8  # 3*3 - 1


def test_dims_word_row_count(capsys):
    payload = run_json(capsys, "dims", "--family", "u-plus", "--dim", "2",
                       "--qq", "0.1", "--word-len", "4")
    table = payload["results"]["table"]
    assert len(table) == 2 + 4 + 8 + 16
    by_label = {row["label"]: row for row in table}
    assert by_label["AB"]["dim"] == 3
    assert by_label["ABBA"]["dim"] == 9


def test_dims_kac_ratios_are_unit(capsys):
    payload = run_json(capsys, "dims", "--family", "o-plus", "--N", "2",
                       "--qq", "1", "--max", "3")
    for row in payload["results"]["table"]:
        assert float(row["ratio"]["lo"]) <= 1 <= float(row["ratio"]["hi"])


def test_dims_so3_requires_dimq(capsys):
    code, _, err = run_cli(capsys, "dims", "--family", "so3", "--N", "4",
                           "--qq", "0.3")
    assert code == 2 and "dimq" in err


# ---------------------------------------------------------------------------
# series / threshold / moments


def test_series_ladder_converges(capsys):
    payload = run_json(capsys, "series", "--family", "o-plus", "--N", "3", "--qq", "0.2")
    results = payload["results"]
    assert results["series"]["verdict"] == "converges"
    assert results["masa_verdict"] == "not a MASA"
    assert results["kac_part"] == [0]
    assert float(results["series"]["tail_bound"]["hi"]) <= 1e-6


def test_series_free_unitary_escalates_to_separate_exact_input(capsys):
    # q_q and q_c agree to about 20 digits: 64 bits cannot separate them, so
    # the kernel escalates like the ladder families instead of rejecting
    # the exact input, and answers as it does at 128 bits
    argv = ("series", "--family", "u-plus", "--dim", "3", "--dimq", "3.00000000000000000001")
    low = run_json(capsys, *argv, "--bits", "64")["results"]
    default = run_json(capsys, *argv)["results"]
    assert low["block_sum"] == default["block_sum"]
    assert low["block_sum"]["verdict"] == "undetermined"
    assert low["masa_verdict"] == default["masa_verdict"] == "no conclusion"


def test_series_free_unitary_reports_block_sum(capsys):
    payload = run_json(capsys, "series", "--family", "u-plus", "--dim", "2", "--qq", "0.22")
    results = payload["results"]
    assert results["block_sum"]["verdict"] == "converges"
    assert float(results["block_sum"]["sum"]["lo"]) > 1
    assert results["series"]["verdict"] == "diverges"


def test_threshold_dim2(capsys):
    # the true unit crossing is ~0.08617, just above the published 0.0861;
    # at width 1e-4 the enclosure stays inside (0.086, 0.0862)
    payload = run_json(capsys, "threshold", "--which", "dim2", "--tol", "1e-4")
    enclosure = payload["results"]["enclosure"]
    assert 0.086 < float(enclosure["lo"]) <= 0.08617 <= float(enclosure["hi"]) < 0.0863
    assert float(enclosure["hi"]) - float(enclosure["lo"]) <= 1e-4 * 1.01


@pytest.mark.parametrize("which", ["dim2", "remark"])
@pytest.mark.parametrize("bits", ["16", "32"])
def test_threshold_printed_bracket_within_tol_from_low_starting_bits(capsys, which, bits):
    # the bracket is enclosed at an escalated precision and printed at its digits
    payload = run_json(capsys, "threshold", "--which", which, "--tol", "1e-18", "--bits", bits)
    enclosure = payload["results"]["enclosure"]
    assert Fraction(enclosure["hi"]) - Fraction(enclosure["lo"]) <= Fraction(1, 10**18)
    assert payload["meta"] == {"bits": int(bits), "digits": 17}


def test_threshold_ratio3(capsys):
    payload = run_json(capsys, "threshold", "--which", "ratio3")
    enclosure = payload["results"]["enclosure"]
    assert abs(float(enclosure["mid"]) - 0.230685) < 1e-5


def test_threshold_remark(capsys):
    payload = run_json(capsys, "threshold", "--which", "remark", "--tol", "1e-4")
    enclosure = payload["results"]["enclosure"]
    assert float(enclosure["lo"]) <= 0.2134 <= float(enclosure["hi"])


def test_moments_table(capsys):
    payload = run_json(capsys, "moments", "--family", "o-plus", "--N", "2", "--k-max", "4")
    table = payload["results"]["table"]
    assert [row["multiplicity"] for row in table] == [1, 0, 1, 0, 2]
    assert all(row["match"] for row in table)


def test_moments_odd_ladder_vanishes(capsys):
    payload = run_json(capsys, "moments", "--family", "o-plus", "--N", "2", "--k-max", "7")
    assert all(row["multiplicity"] == 0
               for row in payload["results"]["table"] if row["k"] % 2 == 1)


# ---------------------------------------------------------------------------
# spectral / jacobi / bicrossed


def test_spectral_quarter_twist(capsys):
    payload = run_json(capsys, "spectral", "--rho-ladder", "1", "--q", "0.5",
                       "--b", "-0.25")
    norm = payload["results"]["norm_sq"]
    assert float(norm["lo"]) <= 0.8 <= float(norm["hi"])
    assert payload["results"]["trace_balanced"] is True


def test_jacobi_report(capsys):
    payload = run_json(capsys, "jacobi", "--M", "8", "--q", "0.5")
    results = payload["results"]
    assert results["krylov_rank"] == 8
    assert results["commutant_dim"] == 8
    assert float(results["interior_residual"]) <= 1e-12
    off_diagonal = [float(entry) for entry in results["off_diagonal"]]
    assert len(off_diagonal) == 7 and all(0 < entry < 1 for entry in off_diagonal)


def test_bicrossed_report(capsys):
    payload = run_json(capsys, "bicrossed", "--q", "1/2", "--mode", "irrational",
                       "--t", "0,1")
    row = payload["results"]["table"][0]
    assert row["trivial"] is True and row["inner"] is True
    assert payload["results"]["center"]["trivial"] is True
    assert "II-infinity" in payload["results"]["factor"]["description"]


def test_bicrossed_rational_mode_needs_ratio(capsys):
    code, _, err = run_cli(capsys, "bicrossed", "--q", "1/2", "--mode", "rational",
                           "--t", "0,1")
    assert code == 2 and "ratio" in err


# ---------------------------------------------------------------------------
# formats, config, environment


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "moments", "--family", "u-plus", "--dim", "2",
                           "--k-max", "2", "--format", "csv")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "k,label,multiplicity,oracle,match"
    assert lines[1] == "0,e,1,1,true"
    assert "\r" not in out


def test_csv_rejected_for_nontabular(capsys):
    code, _, err = run_cli(capsys, "threshold", "--which", "ratio3", "--format", "csv")
    assert code == 2 and "csv" in err


def test_config_supplies_defaults_flags_override(tmp_path, capsys):
    config = tmp_path / "family.json"
    config.write_text(json.dumps(
        {"family": "o-plus", "N": 2, "qq": "0.5", "max": 3}), encoding="utf-8")
    payload = run_json(capsys, "dims", "--config", str(config))
    assert payload["inputs"]["qq"] == "0.5"
    assert len(payload["results"]["table"]) == 4
    override = run_json(capsys, "dims", "--config", str(config), "--qq", "0.25")
    assert override["inputs"]["qq"] == "0.25"


def test_config_list_feeds_a_repeatable_flag(tmp_path, capsys):
    config = tmp_path / "times.json"
    config.write_text(json.dumps({"t": ["0,1", "5/3,2"]}), encoding="utf-8")
    from_config = run_json(capsys, "bicrossed", "--q", "1/2", "--mode", "irrational",
                           "--config", str(config))
    from_flags = run_json(capsys, "bicrossed", "--q", "1/2", "--mode", "irrational",
                          "--t", "0,1", "--t", "5/3,2")
    assert from_config == from_flags


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"no-such-flag": 1}), encoding="utf-8")
    code, _, err = run_cli(capsys, "dims", "--config", str(config))
    assert code == 2 and "no-such-flag" in err


def test_env_precision_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv("QCLASSFUN_BITS", "64")
    payload = run_json(capsys, "threshold", "--which", "ratio3")
    assert payload["meta"]["bits"] == 64
    flagged = run_json(capsys, "threshold", "--which", "ratio3", "--bits", "192")
    assert flagged["meta"]["bits"] == 192


def test_env_absent_gives_default(capsys, monkeypatch):
    monkeypatch.delenv("QCLASSFUN_BITS", raising=False)
    payload = run_json(capsys, "threshold", "--which", "ratio3")
    assert payload["meta"]["bits"] == 128
