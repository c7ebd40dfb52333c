"""Semantic output checks with oracles independent of the program.

Nothing here compares against stored bytes: a later change that legitimately
narrows an enclosure still passes.  Each check returns a :class:`Verdict`
with the reason for a failure.

Oracles:

* series and block sums are re-summed from the closed form
  ``[m]_t = (t^-m - t^m)/(t^-1 - t)`` in mpmath at 50 digits, until a term
  falls below 1e-36; for o-plus with N = 2 that oracle is ``1 +`` the
  dimension-2 block sum, the cross-route identity of the two engines;
* thresholds are roots found by ``mpmath.findroot`` from the closed forms;
* dimensions are rebuilt with exact integer and rational recursions from the
  fusion rules;
* moments are compared with the Catalan and Riordan numbers.

Enclosures are parsed from their decimal strings into exact fractions, and an
oracle value counts as contained when ``[v - 1e-34, v + 1e-34]`` meets
``[lo, hi]``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import mpmath

mpmath.mp.dps = 50
ORACLE_EPS = mpmath.mpf("1e-34")
ORACLE_STOP = mpmath.mpf("1e-36")
MAX_ORACLE_TERMS = 200_000


@dataclass
class Verdict:
    ok: bool
    reason: str | None = None
    series_ops: int = 0
    undetermined: int = 0


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# number helpers


def exact(text: str) -> Fraction:
    return Fraction(Decimal(text))


def bounds(enclosure) -> tuple[Fraction, Fraction]:
    """(lo, hi) of a CLI ``{"lo", "hi", "mid"}`` triple or a sweep ``[lo, hi]`` pair."""
    if isinstance(enclosure, dict):
        return exact(enclosure["lo"]), exact(enclosure["hi"])
    return exact(enclosure[0]), exact(enclosure[1])


def mpf_of(value: Fraction) -> mpmath.mpf:
    return mpmath.mpf(value.numerator) / value.denominator


def contains(enclosure, value, what: str) -> None:
    lo, hi = bounds(enclosure)
    require(lo <= hi, f"{what}: inverted enclosure")
    v = mpmath.mpf(value)
    require(mpf_of(lo) <= v + ORACLE_EPS and v - ORACLE_EPS <= mpf_of(hi),
            f"{what}: [{float(lo)!r}, {float(hi)!r}] misses oracle {mpmath.nstr(v, 20)}")


def root_of(d) -> mpmath.mpf:
    """Root in (0, 1] of ``t + 1/t = d`` for ``d >= 2``."""
    d = mpmath.mpf(d)
    return 2 / (d + mpmath.sqrt(d * d - 4))


def qint(m: int, t: mpmath.mpf) -> mpmath.mpf:
    """Deformed integer [m]_t; equals m at t = 1."""
    if t == 1:
        return mpmath.mpf(m)
    return (t ** (-m) - t**m) / (1 / t - t)


def _to_mpf(value) -> mpmath.mpf:
    return mpf_of(Fraction(value)) if isinstance(value, (Fraction, int)) else mpmath.mpf(value)


# ---------------------------------------------------------------------------
# series oracles


def deformed_ratio_sum(x, y, step: int, first: int) -> mpmath.mpf:
    """``sum sqrt([m]_x / [m]_y)`` over ``m = first, first + step, ...`` for ``y < x <= 1``.

    With ``[m]_t = (1 - t^(2m)) / (t^(m-1) (1 - t^2))`` (and m at t = 1), the
    powers are carried from term to term; the sum stops once a term is below
    1e-36, where the geometric tail is below the enclosure widths checked.
    """
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    total = mpmath.mpf(0)
    xm, ym = x**first, y**first
    xs, ys = x**step, y**step
    scale = (1 - y * y) / y if x == 1 else (1 - y * y) / y * x / (1 - x * x)
    for k in range(MAX_ORACLE_TERMS):
        m = first + k * step
        top = m if x == 1 else (1 - xm * xm) / xm
        term = mpmath.sqrt(top * ym / (1 - ym * ym) * scale)
        total += term
        if term < ORACLE_STOP and k > 5:
            return total
        xm *= xs
        ym *= ys
    raise CheckFailed("oracle series did not settle")


@lru_cache(maxsize=4096)
def block_sum_oracle(q_c, q_q) -> mpmath.mpf:
    """``sum_{n >= 1} sqrt([n+1]_{q_c} / [n+1]_{q_q})`` (q_c = 1 gives n+1)."""
    return deformed_ratio_sum(_to_mpf(q_c), _to_mpf(q_q), 1, 2)


def ladder_roots(kind: str, n_fund: int, dimq: Fraction) -> tuple[mpmath.mpf, mpmath.mpf, int]:
    """Deformation roots of the classical and quantum sides and the step of m.

    o-plus: dim(n) = [n+1]_t with t + 1/t = d.  so3: dim(n) = [2n+1]_r with
    r^2 + r^-2 = d - 1, from ``1 (x) n = (n-1) + n + (n+1)``.
    """
    if kind == "o-plus":
        return root_of(n_fund), root_of(mpf_of(dimq)), 1
    return mpmath.sqrt(root_of(n_fund - 1)), mpmath.sqrt(root_of(mpf_of(dimq) - 1)), 2


@lru_cache(maxsize=4096)
def ladder_sum_oracle(kind: str, n_fund: int, dimq: Fraction) -> mpmath.mpf:
    """``sum_{n >= 0} sqrt(dim(n) / dim_q(n))`` over a ladder family."""
    x, y, step = ladder_roots(kind, n_fund, dimq)
    return deformed_ratio_sum(x, y, step, 1)


@lru_cache(maxsize=None)
def threshold_root(which: str) -> mpmath.mpf:
    if which == "dim2":
        def f(q):
            r = mpmath.sqrt(q)
            return r * (2 - r) / (mpmath.sqrt(1 + q * q) * (1 - r) ** 2) - 1
        return mpmath.findroot(f, mpmath.mpf("0.086"))
    if which == "remark":
        def g(x):
            return mpmath.sqrt(2 / (x + 1 / x)) + mpmath.sqrt(3 / (x * x + 1 + 1 / (x * x))) - 1
        return mpmath.findroot(g, mpmath.mpf("0.2134"))
    return (1 + mpmath.sqrt((3 * mpmath.sqrt(5) + 5) / 10)) ** (-2)


# ---------------------------------------------------------------------------
# shared result checks


def check_series_result(series: dict, oracle, tol: Fraction, what: str) -> None:
    """A converged certified sum: small tail, kept lower endpoint, true value inside."""
    _, tail_hi = bounds(series["tail_bound"])
    require(tail_hi <= tol, f"{what}: tail bound {float(tail_hi)!r} exceeds tol {float(tol)!r}")
    partial_lo, _ = bounds(series["partial_sum"])
    sum_lo, _ = bounds(series["sum"])
    if sum_lo > partial_lo:
        raise CheckFailed(f"endpoint-53bit: {what} sum_enclosure lower endpoint lies "
                          f"{float(sum_lo - partial_lo):.3g} above the certified partial sum")
    contains(series["sum"], oracle, what)


def check_threshold(enclosure, which: str, tol: Fraction | None) -> None:
    lo, hi = bounds(enclosure)
    if tol is not None:
        require(hi - lo <= tol, f"threshold width {float(hi - lo)!r} exceeds tol {float(tol)!r}")
    contains(enclosure, threshold_root(which), f"threshold {which}")


def free_total(s: mpmath.mpf) -> mpmath.mpf:
    return 1 + 2 * s / (1 - s)


# ---------------------------------------------------------------------------
# CLI checks


TRACEBACK = "Traceback (most recent call last)"


def check_cli(op: dict, rc: int | None, stdout: str, stderr: str) -> Verdict:
    try:
        return _check_cli(op, rc, stdout, stderr)
    except CheckFailed as exc:
        return Verdict(False, str(exc), **_failed_series(op))
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return Verdict(False, f"malformed output: {type(exc).__name__}: {exc}", **_failed_series(op))


def _failed_series(op: dict) -> dict:
    """A failed series operation still counts among the series operations."""
    return {"series_ops": 1} if op["argv"][0] == "series" and op["expect_exit"] == 0 else {}


def _check_cli(op: dict, rc, stdout: str, stderr: str) -> Verdict:
    require(rc is not None, "timeout: killed after the per-operation limit")
    require(TRACEBACK not in stderr, "traceback on stderr")
    require(rc == op["expect_exit"], f"exit {rc}, expected {op['expect_exit']}")
    if op["expect_exit"] != 0:
        require(stdout == "", "a rejected invocation printed to stdout")
        return Verdict(True)
    argv = op["argv"]
    if _flag(argv, "--format") == "csv":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        return CLI_CHECKS[argv[0]](op, {"results": {"table": rows}})
    payload = json.loads(stdout)
    canonical = json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    require(canonical == stdout, "JSON output is not canonical")
    require(payload["command"] == argv[0], "wrong command in report")
    return CLI_CHECKS[argv[0]](op, payload)


def _argv_flags(argv: list[str]) -> dict:
    """Flag values of an argv, accepting both ``--name value`` and ``--name=value``."""
    out = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("--"):
            name, sep, value = token.partition("=")
            out.setdefault(name, value if sep else next(tokens, None))
    return out


def _flag(argv: list[str], name: str, default=None):
    value = _argv_flags(argv).get(name)
    return default if value is None else value


def _family_dims(argv: list[str]):
    """(kind, classical fundamental dimension, exact quantum fundamental dimension)."""
    kind = _flag(argv, "--family")
    n_fund = int(_flag(argv, "--N") if kind != "u-plus" else _flag(argv, "--dim"))
    if _flag(argv, "--qq") is not None:
        qq = Fraction(_flag(argv, "--qq"))
        dimq = qq + 1 / qq
    elif _flag(argv, "--dimq") is not None:
        dimq = Fraction(_flag(argv, "--dimq"))
    else:
        dimq = Fraction(n_fund)
    return kind, n_fund, dimq


def ladder_dims(kind: str, d1, count: int) -> list:
    """Dimensions 0..count-1 from ``d1 d_n = d_(n-1) + d_(n+1)`` (o-plus)
    or ``d1 d_n = d_(n-1) + d_n + d_(n+1)`` (so3)."""
    shift = 1 if kind == "so3" else 0
    dims = [Fraction(1), Fraction(d1)]
    while len(dims) < count:
        dims.append((d1 - shift) * dims[-1] - dims[-2])
    return dims[:count]


def word_dim(word: str, d1) -> Fraction:
    """Product over maximal alternating blocks of the Chebyshev value of the block length."""
    cheb = ladder_dims("o-plus", d1, len(word) + 2)
    value = Fraction(1)
    block = 0
    for i, letter in enumerate(word):
        if i and letter == word[i - 1]:
            value *= cheb[block]
            block = 0
        block += 1
    return value * cheb[block] if word else value


def _check_dims(op: dict, payload: dict) -> Verdict:
    argv = op["argv"]
    kind, n_fund, dimq = _family_dims(argv)
    rows = payload["results"]["table"]
    if kind == "u-plus":
        length = int(_flag(argv, "--word-len", 4))
        labels = [w for n in range(1, length + 1) for w in _words(n)]
    else:
        labels = [str(n) for n in range(int(_flag(argv, "--max", 10)) + 1)]
        classical = ladder_dims(kind, n_fund, len(labels))
        quantum = ladder_dims(kind, dimq, len(labels))
    require([str(r["label"]) for r in rows] == labels, "dims table has the wrong labels")
    for i, row in enumerate(rows):
        if kind == "u-plus":
            c, q = word_dim(labels[i], n_fund), word_dim(labels[i], dimq)
        else:
            c, q = classical[i], quantum[i]
        require(int(row["dim"]) == c, f"classical dimension of {labels[i]} is {row['dim']}, expected {c}")
        if "dim_q" in row:
            dq, rt = row["dim_q"], row["ratio"]
        else:
            dq = (row["dim_q_lo"], row["dim_q_hi"])
            rt = (row["ratio_lo"], row["ratio_hi"])
        contains(dq, mpf_of(q), f"dim_q({labels[i]})")
        contains(rt, mpf_of(c / q), f"ratio({labels[i]})")
    return Verdict(True)


def _words(n: int) -> list[str]:
    return ["".join("AB"[(k >> (n - 1 - i)) & 1] for i in range(n)) for k in range(2**n)]


def riordan(n: int) -> int:
    r = [1, 0]
    for m in range(2, n + 1):
        r.append((m - 1) * (2 * r[m - 1] + 3 * r[m - 2]) // (m + 1))
    return r[n]


def _check_moments(op: dict, payload: dict) -> Verdict:
    argv = op["argv"]
    kind = _flag(argv, "--family")
    rows = payload["results"]["table"]
    k_max = int(_flag(argv, "--k-max", 8))
    require(len(rows) == k_max + 1, "moments table has the wrong length")
    for k, row in enumerate(rows):
        require(row["match"] in (True, "true"), f"moment k={k} does not match its oracle")
        if kind == "so3":
            expected = riordan(k)
        else:
            expected = math.comb(k, k // 2) // (k // 2 + 1) if k % 2 == 0 else 0
        require(int(row["multiplicity"]) == expected,
                f"moment k={k} is {row['multiplicity']}, expected {expected}")
    return Verdict(True)


def _check_series(op: dict, payload: dict) -> Verdict:
    argv = op["argv"]
    kind, n_fund, dimq = _family_dims(argv)
    tol = Fraction(_flag(argv, "--tol", "1e-6"))
    results = payload["results"]
    series = results["series"]
    if kind == "u-plus":
        block = results["block_sum"]
        undetermined = block["verdict"] == "undetermined"
        if not undetermined:
            require(block["verdict"] == "converges", f"block sum {block['verdict']}")
            q_q = root_of(mpf_of(dimq))
            q_c = 1 if n_fund == 2 else root_of(n_fund)
            s = block_sum_oracle(q_c, q_q)
            check_series_result(block, s, tol, "block sum")
            if s < 1:
                require(series["verdict"] == "converges", "block sum below 1 but total not converged")
                contains(series["sum"], free_total(s), "free total")
                require(results["masa_verdict"].startswith("quasi-split"), "wrong verdict text")
            else:
                require(series["verdict"] == "diverges", "block sum above 1 but total not divergent")
                require(results["masa_verdict"] == "no conclusion", "wrong verdict text")
    else:
        undetermined = series["verdict"] == "undetermined"
        require(results["kac_part"] == [0], "non-Kac ladder with nontrivial Kac part")
        if undetermined:
            require(results["masa_verdict"] == "no conclusion", "undetermined sum with a verdict")
        else:
            require(series["verdict"] == "converges", f"ladder series {series['verdict']}")
            check_series_result(series, ladder_sum_oracle(kind, n_fund, dimq), tol, "ladder sum")
            require(results["masa_verdict"] == "not a MASA", "wrong verdict text")
    return Verdict(True, series_ops=1, undetermined=int(undetermined))


def _check_threshold(op: dict, payload: dict) -> Verdict:
    argv = op["argv"]
    which = _flag(argv, "--which")
    tol = None if which == "ratio3" else Fraction(_flag(argv, "--tol", "1e-4"))
    check_threshold(payload["results"]["enclosure"], which, tol)
    return Verdict(True)


def _check_spectral(op: dict, payload: dict) -> Verdict:
    argv = op["argv"]
    n = int(_flag(argv, "--rho-ladder"))
    q = mpf_of(Fraction(_flag(argv, "--q")))
    b = Fraction(_flag(argv, "--b", "0"))
    results = payload["results"]
    lams = [q ** (-n + 2 * k) for k in range(n + 1)]
    require(results["trace_balanced"] is True, "spectrum not trace balanced")
    for enc, lam in zip(results["rho"], lams, strict=True):
        contains(enc, lam, "rho eigenvalue")
    exponent = mpf_of(-4 * b - 1)
    contains(results["norm_sq"], sum(lam**exponent for lam in lams) / sum(lams), "norm_sq")
    if _flag(argv, "--t") is not None:
        t = mpf_of(Fraction(_flag(argv, "--t")))
        for pair, lam in zip(results["eigencoefficients"], lams, strict=True):
            angle = 2 * t * mpmath.log(lam)
            contains(pair["re"], mpmath.cos(angle), "eigencoefficient re")
            contains(pair["im"], mpmath.sin(angle), "eigencoefficient im")
    return Verdict(True)


def _check_jacobi(op: dict, payload: dict) -> Verdict:
    argv = op["argv"]
    size = int(_flag(argv, "--M"))
    q = float(Fraction(_flag(argv, "--q")))
    results = payload["results"]
    require(results["commutant_dim"] == size, "commutant is larger than the polynomials")
    numpy_repr = False
    for k, entry in enumerate(results["off_diagonal"]):
        if entry.startswith("np.float64(") and entry.endswith(")"):
            numpy_repr, entry = True, entry[len("np.float64("):-1]
        require(math.isclose(float(entry), math.sqrt(1 - q ** (2 * (k + 1))), rel_tol=1e-12),
                f"off-diagonal entry {k} is wrong")
    require(float(results["min_eigenvalue_gap"]) > 0, "degenerate spectrum")
    if size >= 4:
        require(float(results["interior_residual"]) < 1e-9, "interior relation residual too large")
    # A Jacobi matrix with positive off-diagonal entries always has e0 cyclic.
    require(results["krylov_rank"] == size,
            f"krylov-rank: rank {results['krylov_rank']} < M = {size} although e0 is cyclic")
    require(not numpy_repr, "numpy-repr: off_diagonal entries are printed as np.float64(...)")
    return Verdict(True)


def _check_bicrossed(op: dict, payload: dict) -> Verdict:
    """Scaling time t = r nu + s pi/log|q|: trivial iff in (pi/log|q|) Z,
    inner iff in nu Q + (pi/log|q|) Z; a declared rational ratio collapses
    both onto the rationals."""
    argv = op["argv"]
    ratio = Fraction(_flag(argv, "--ratio")) if _flag(argv, "--mode") == "rational" else None
    results = payload["results"]
    times = [tuple(Fraction(x) for x in raw.split(",")) for raw in
             [argv[i + 1] for i, a in enumerate(argv) if a == "--t"]]
    require(len(results["table"]) == len(times), "bicrossed table has the wrong length")
    for (r, s), row in zip(times, results["table"]):
        if ratio is None:
            trivial, inner = r == 0 and s.denominator == 1, s.denominator == 1
        else:
            trivial, inner = (r * ratio + s).denominator == 1, True
        require(row["trivial"] is trivial and row["inner"] is inner, f"wrong scaling class for {r},{s}")
    center = results["center"]
    require(center["trivial"] is (ratio is None), "wrong center")
    if ratio is not None:
        require(Fraction(center["generator"]) == abs(1 / ratio), "wrong center generator")
    require(results["factor"]["is_factor"] is (ratio is None), "wrong factor type")
    return Verdict(True)


def _check_report(op: dict, payload: dict) -> Verdict:
    results = payload["results"]
    require(len(results["criteria"]) == 11, "report does not hold 11 criteria")
    failed = [str(c.get("name", i + 1)) for i, c in enumerate(results["criteria"]) if not c["passed"]]
    require(results["all_passed"] is True and not failed, f"criteria failed: {failed}")
    return Verdict(True)


CLI_CHECKS = {
    "dims": _check_dims,
    "series": _check_series,
    "threshold": _check_threshold,
    "moments": _check_moments,
    "spectral": _check_spectral,
    "jacobi": _check_jacobi,
    "bicrossed": _check_bicrossed,
    "report": _check_report,
}


# ---------------------------------------------------------------------------
# library-call checks (sweep)


def check_lib(op: dict, record: dict | None) -> Verdict:
    call, args = op["call"], op["args"]
    series_ops = int(call in ("block_sum_S", "masa_verdict"))
    try:
        require(record is not None, "no result: the sweep process ended early")
        require("error" not in record, f"raised {record.get('error')}")
        undetermined = _check_lib(call, args, record["result"])
        return Verdict(True, series_ops=series_ops, undetermined=int(undetermined))
    except CheckFailed as exc:
        return Verdict(False, str(exc), series_ops=series_ops)
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return Verdict(False, f"malformed output: {type(exc).__name__}: {exc}", series_ops=series_ops)


def _q_c_oracle(raw: str):
    return root_of(int(raw[5:])) if raw.startswith("fund:") else Fraction(raw)


def _check_lib(call: str, args: dict, result: dict) -> bool:
    """Check one library result; returns whether it is an undetermined series."""
    if call == "block_sum_S":
        if result["verdict"] == "undetermined":
            return True
        require(result["verdict"] == "converges", f"block sum {result['verdict']}")
        s = block_sum_oracle(_q_c_oracle(args["q_c"]), Fraction(args["q_q"]))
        check_series_result(result, s, Fraction(args["tol"]), "block sum")
    elif call == "bound_S_dim2":
        q = mpf_of(Fraction(args["q"]))
        r = mpmath.sqrt(q)
        contains(result["bound"], r * (2 - r) / (mpmath.sqrt(1 + q * q) * (1 - r) ** 2), "bound_S_dim2")
        require(mpf_of(bounds(result["bound"])[1]) >= block_sum_oracle(1, Fraction(args["q"])),
                "closed-form bound below the block sum")
    elif call in ("threshold_dim2", "threshold_remark"):
        check_threshold(result["enclosure"], call.split("_")[1], Fraction(args["tol"]))
    elif call == "masa_verdict":
        tol = Fraction(1, 10**6)
        if args["kind"] == "u-plus":
            q = Fraction(args["q"])
            s = block_sum_oracle(1 if args["N"] == 2 else root_of(args["N"]), q)
            if result["block_sum"]["verdict"] == "undetermined":
                return True
            check_series_result(result["block_sum"], s, tol, "block sum")
            require(s < 1, "easy free-unitary input has a block sum above 1")
            contains(result["series"]["sum"], free_total(s), "free total")
            require(result["verdict_text"].startswith("quasi-split"), "wrong verdict text")
        else:
            if result["series"]["verdict"] == "undetermined":
                return True
            dimq = (Fraction(args["q"]) + 1 / Fraction(args["q"]) if "q" in args
                    else Fraction(args["dimq"]))
            check_series_result(result["series"], ladder_sum_oracle(args["kind"], args["N"], dimq),
                                tol, "ladder sum")
            require(result["verdict_text"] == "not a MASA", "wrong verdict text")
    else:
        raise CheckFailed(f"unknown call {call}")
    return False
