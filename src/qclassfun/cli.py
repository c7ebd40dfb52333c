"""Command-line front end emitting canonical machine-readable reports.

Every subcommand prints one :class:`~qclassfun.report.Report` to stdout
(JSON by default, CSV for tabular commands) and sends diagnostics to
stderr.  Identical invocations produce byte-identical output.

Exit codes: 0 for computed answers (including Diverges/Undetermined, which
are answers), 2 for usage errors, 3 for domain errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from fractions import Fraction
from typing import Callable

from . import acceptance, bicrossed, criteria, fusion, intervals, noncrossing, report, spectral
from .errors import BudgetError, DomainError
from .fusion import FusionFamily

ENV_BITS = "QCLASSFUN_BITS"
DEFAULT_TOL = {"threshold": "1e-4", "series": "1e-6"}
TABULAR_COMMANDS = ("dims", "moments")

#: --family value -> (constructor, flag giving the classical fundamental
#: dimension, whether --qq applies).
FAMILIES = {
    "o-plus": (fusion.su2_ladder, "N", True),
    "so3": (fusion.so3_ladder, "N", False),
    "u-plus": (fusion.free_unitary, "dim", True),
}


class UsageError(Exception):
    pass


def _fraction_flag(raw: str, flag: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} expects a rational like 1/3 or 0.25, got {raw!r}") from exc


def _tol_flag(raw) -> Fraction:
    """A --tol value: a positive rational such as 1e-6 or 1/1000."""
    tol = _fraction_flag(str(raw), "--tol")
    if tol <= 0:
        raise UsageError(f"--tol must be positive, got {raw!r}")
    return tol


def _count(minimum: int) -> Callable[[str], int]:
    """Type of a count flag: an integer of at least `minimum`."""
    def count(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def _bits_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bits", type=int, default=None,
                     help=f"working precision in bits (default 128, or ${ENV_BITS})")


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["json", "csv"], default=None,
                     help="output format (csv for tabular commands only)")
    sub.add_argument("--config", default=None,
                     help="JSON file supplying flag defaults; explicit flags win")


def _family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=list(FAMILIES), default=None)
    sub.add_argument("--N", type=int, default=None, dest="N",
                     help="classical dimension of the fundamental (ladder families)")
    sub.add_argument("--dim", type=int, default=None,
                     help="classical dimension of the fundamental (u-plus)")
    sub.add_argument("--qq", default=None,
                     help="deformation parameter in (0,1]; dim_q = qq + 1/qq")
    sub.add_argument("--dimq", default=None,
                     help="quantum dimension of the fundamental, given directly")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclassfun",
        description="Fusion rings, quantum dimensions and certified summability "
                    "criteria for class-function algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dims = sub.add_parser("dims", help="Dimension and ratio table for a family")
    _family_flags(dims)
    dims.add_argument("--max", type=_count(0), default=None, help="largest ladder label")
    dims.add_argument("--word-len", type=_count(1), default=None, help="largest word length (u-plus)")
    _bits_flag(dims)
    _common_flags(dims)

    series = sub.add_parser("series", help="Certified summability run with verdict")
    _family_flags(series)
    series.add_argument("--tol", default=None, help="tail tolerance (default 1e-6)")
    series.add_argument("--n-max", type=_count(0), default=None,
                        help="label range scanned for trivial intertwiners (default 50)")
    series.add_argument("--max-terms", type=_count(1), default=None,
                        help="series term budget (default 10000)")
    _bits_flag(series)
    _common_flags(series)

    threshold = sub.add_parser("threshold", help="Certified threshold constants")
    threshold.add_argument("--which", choices=["dim2", "ratio3", "remark"], required=True)
    threshold.add_argument("--tol", default=None, help="enclosure width (default 1e-4)")
    _bits_flag(threshold)
    _common_flags(threshold)

    moments = sub.add_parser("moments", help="Invariant multiplicities vs combinatorial oracles")
    _family_flags(moments)
    moments.add_argument("--k-max", type=_count(0), default=None)
    _common_flags(moments)

    spectral_cmd = sub.add_parser("spectral", help="Modular-twisted character norms")
    spectral_cmd.add_argument("--rho-ladder", type=int, default=None,
                              help="ladder index of the spectrum")
    spectral_cmd.add_argument("--q", default=None, help="spectral parameter in (0,1]")
    spectral_cmd.add_argument("--b", default=None,
                              help="imaginary part of the modular parameter (default 0)")
    spectral_cmd.add_argument("--t", default=None,
                              help="real time: also emit the unit-circle coefficients")
    _bits_flag(spectral_cmd)
    _common_flags(spectral_cmd)

    jacobi = sub.add_parser("jacobi", help="Finite weighted-shift model checks")
    jacobi.add_argument("--M", type=int, default=None, dest="M")
    jacobi.add_argument("--q", default=None)
    jacobi.add_argument("--phase", default=None, help="phase of the diagonal generator, radians")
    _common_flags(jacobi)

    bi = sub.add_parser("bicrossed", help="Scaling-time and classification arithmetic")
    bi.add_argument("--q", default=None, help="deformation parameter, rational in (-1,1), nonzero")
    bi.add_argument("--mode", choices=["rational", "irrational"], default=None)
    bi.add_argument("--ratio", default=None,
                    help="declared rational value of nu*log|q|/pi (rational mode)")
    bi.add_argument("--t", action="append", default=None,
                    help="scaling time as 'r,s' meaning t = r*nu + s*pi/log|q| (repeatable)")
    _common_flags(bi)

    rep = sub.add_parser("report", help="Run the full verification grid")
    _bits_flag(rep)
    _common_flags(rep)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str],
                  args: argparse.Namespace) -> argparse.Namespace:
    """Parse `argv` again with the values of the config file as leading flags.

    Each config value is read as the text of its flag, so it passes the same
    type and choice checks as the flag; a list gives one flag per item, and
    only a repeatable flag takes one.  Flags given explicitly win.
    """
    if not args.config:
        return args
    try:
        with open(args.config, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    tokens: list[str] = []
    listed: list[str] = []
    for key, value in data.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, attr) is not None or value is None:
            continue
        items = value if isinstance(value, list) else [value]
        if isinstance(value, list):
            listed.append(key)
        tokens += [f"--{attr.replace('_', '-')}={item}" for item in items]
    try:
        merged = parser.parse_args([args.command, *tokens, *argv[1:]])
    except SystemExit as exc:
        raise UsageError(f"invalid value in config {args.config}") from exc
    for key in listed:
        if not isinstance(getattr(merged, key.replace("-", "_")), list):
            raise UsageError(f"config key {key!r} takes one value, got a list")
    return merged


def _resolve_bits(args: argparse.Namespace) -> int:
    if args.bits is not None:
        raw, source = args.bits, "--bits"
    elif os.environ.get(ENV_BITS) is not None:
        raw, source = os.environ[ENV_BITS], f"${ENV_BITS}"
    else:
        return intervals.DEFAULT_BITS
    try:
        bits = int(raw)
    except ValueError:
        bits = 0
    if not 1 <= bits <= criteria.MAX_BITS:
        raise UsageError(f"{source} must be an integer in 1..{criteria.MAX_BITS}, got {raw!r}")
    return bits


def _build_family(args: argparse.Namespace) -> tuple[FusionFamily, dict]:
    if args.family is None:
        raise UsageError("--family is required")
    if args.qq is not None and args.dimq is not None:
        raise UsageError("give either --qq or --dimq, not both")
    build, size_flag, takes_qq = FAMILIES[args.family]
    size = getattr(args, size_flag)
    if size is None:
        raise UsageError(f"--{size_flag} is required for --family {args.family}")
    if args.qq is not None and not takes_qq:
        raise UsageError(f"{args.family} families take --dimq (quantum dimension), not --qq")
    if args.family == "so3" and size < 3:
        raise UsageError(f"so3 families need --N >= 3, got {size}")
    inputs: dict = {"family": args.family, size_flag: size}
    if args.qq is not None:
        inputs["qq"] = args.qq
        return build(size, q=_fraction_flag(args.qq, "--qq")), inputs
    if args.dimq is not None:
        inputs["dimq"] = args.dimq
        return build(size, dim_q_fund=_fraction_flag(args.dimq, "--dimq")), inputs
    return build(size), inputs


def _label_str(label) -> str:
    if label == "":
        return "e"
    return str(label)


def _series_payload(result: criteria.SeriesResult, digits: int) -> dict:
    payload: dict = {"verdict": result.verdict.value, "terms_used": result.terms_used}
    if result.verdict is criteria.Verdict.CONVERGES:
        payload["partial_sum"] = report.enclosure_payload(result.partial_sum, digits)
        payload["tail_bound"] = report.enclosure_payload(result.tail_bound, digits)
        payload["sum"] = report.enclosure_payload(result.sum_enclosure(), digits)
    return payload


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_dims(args: argparse.Namespace) -> report.Report:
    bits = args.bits
    digits = intervals.decimal_digits(bits)
    family, inputs = _build_family(args)
    rows = []
    with intervals.precision(bits):
        if family.is_ladder:
            n_max = args.max if args.max is not None else 10
            inputs["max"] = n_max
            labels = list(range(n_max + 1))
        else:
            word_len = args.word_len if args.word_len is not None else 4
            inputs["word_len"] = word_len
            labels = list(fusion.all_words(word_len, min_len=1))
        for label in labels:
            rows.append({
                "label": _label_str(label),
                "dim": fusion.dim(label, family, "classical"),
                "dim_q": report.enclosure_payload(
                    intervals.make(fusion.dim(label, family, "quantum")), digits),
                "ratio": report.enclosure_payload(criteria.ratio(label, family), digits),
            })
    return report.Report("dims", inputs, {"table": rows}, {"bits": bits, "digits": digits})


def cmd_series(args: argparse.Namespace) -> report.Report:
    bits = args.bits
    digits = intervals.decimal_digits(bits)
    max_terms = args.max_terms if args.max_terms is not None else criteria.DEFAULT_MAX_TERMS
    family, inputs = _build_family(args)
    tol = args.tol if args.tol is not None else DEFAULT_TOL["series"]
    n_max = args.n_max if args.n_max is not None else 50
    inputs.update({"tol": tol, "n_max": n_max})
    verdict = criteria.masa_verdict(
        family, tol=_tol_flag(tol), n_max=n_max, bits=bits, max_terms=max_terms)
    results: dict = {
        "series": _series_payload(verdict.series, digits),
        "quasi_split": verdict.quasi_split.value,
        "all_nontrivial_rho_nontrivial": verdict.all_nontrivial_rho_nontrivial,
        "masa_verdict": verdict.verdict_text,
    }
    if verdict.block_sum is not None:
        results["block_sum"] = _series_payload(verdict.block_sum, digits)
    if family.is_ladder:
        results["kac_part"] = criteria.kac_part(family, min(n_max, 20))
    return report.Report("series", inputs, results,
                         {"bits": bits, "digits": digits, "max_terms": max_terms})


def cmd_threshold(args: argparse.Namespace) -> report.Report:
    bits = args.bits
    digits = intervals.decimal_digits(bits)
    tol = args.tol if args.tol is not None else DEFAULT_TOL["threshold"]
    inputs = {"which": args.which, "tol": tol}
    tol_value = _tol_flag(tol)
    if args.which == "dim2":
        enclosure = criteria.threshold_dim2(tol_value, bits=bits)
    elif args.which == "remark":
        enclosure = criteria.threshold_remark(tol_value, bits=bits)
    else:
        enclosure = criteria.threshold_ratio_dimge3(bits=bits)
    with intervals.precision(bits):
        results = {
            "enclosure": report.enclosure_payload(enclosure, digits),
            "width": str(float(intervals.width(enclosure))),
        }
    return report.Report("threshold", inputs, results, {"bits": bits, "digits": digits})


def cmd_moments(args: argparse.Namespace) -> report.Report:
    family, inputs = _build_family(args)
    k_max = args.k_max if args.k_max is not None else 8
    inputs["k_max"] = k_max
    rows = []
    for k in range(k_max + 1):
        if family.is_ladder:
            labels = [1] * k
            word = None
        else:
            word = fusion.alternating_word(k)
            labels = list(word)
        multiplicity = fusion.invariant_multiplicity(labels, family)
        if family.kind is fusion.FamilyKind.SU2_LADDER:
            oracle = noncrossing.count_noncrossing_matchings(k)
            oracle_name = "noncrossing matchings"
        elif family.kind is fusion.FamilyKind.SO3_LADDER:
            oracle = noncrossing.count_nosingleton_noncrossing(k)
            oracle_name = "no-singleton noncrossing partitions"
        else:
            oracle = noncrossing.count_ab_matchings(word)
            oracle_name = "opposite-letter noncrossing matchings"
        rows.append({
            "k": k,
            "label": _label_str(word) if word is not None else f"[1]*{k}",
            "multiplicity": multiplicity,
            "oracle": oracle,
            "match": multiplicity == oracle,
        })
    return report.Report("moments", inputs, {"table": rows, "oracle": oracle_name})


def cmd_spectral(args: argparse.Namespace) -> report.Report:
    bits = args.bits
    digits = intervals.decimal_digits(bits)
    if args.rho_ladder is None or args.q is None:
        raise UsageError("spectral requires --rho-ladder and --q")
    n = args.rho_ladder
    q = _fraction_flag(args.q, "--q")
    b = _fraction_flag(args.b, "--b") if args.b is not None else Fraction(0)
    inputs = {"rho_ladder": n, "q": str(args.q), "b": str(b)}
    with intervals.precision(bits):
        rho = fusion.rho_spectrum(n, q)
        results: dict = {
            "norm_sq": report.enclosure_payload(spectral.modular_norm_sq(rho, b), digits),
            "trace_balanced": spectral.trace_balanced(rho),
            "rho": [report.enclosure_payload(lam, digits) for lam in rho],
        }
        if args.t is not None:
            t = _fraction_flag(args.t, "--t")
            inputs["t"] = str(args.t)
            results["eigencoefficients"] = [
                {"re": report.enclosure_payload(re, digits),
                 "im": report.enclosure_payload(im, digits)}
                for re, im in spectral.modular_eigencoefficients(rho, t)
            ]
    return report.Report("spectral", inputs, results, {"bits": bits, "digits": digits})


def cmd_jacobi(args: argparse.Namespace) -> report.Report:
    if args.M is None or args.q is None:
        raise UsageError("jacobi requires --M and --q")
    size = args.M
    q = float(Fraction(args.q))
    phase_angle = float(Fraction(args.phase)) if args.phase is not None else 0.0
    inputs = {"M": size, "q": str(args.q), "phase": str(args.phase or "0")}
    op = spectral.build_jacobi(size, q)
    results: dict = {
        "krylov_rank": spectral.krylov_rank(op),
        "commutant_dim": spectral.commutant_dim(op),
        "min_eigenvalue_gap": repr(spectral.min_eigenvalue_gap(op)),
        "off_diagonal": [repr(x) for x in op.off_diagonal],
    }
    if size >= 4:
        lam = cmath.exp(1j * phase_angle)
        results["interior_residual"] = repr(spectral.suq2_relation_residuals(size, q, lam))
    return report.Report("jacobi", inputs, results)


def cmd_bicrossed(args: argparse.Namespace) -> report.Report:
    if args.q is None or args.mode is None:
        raise UsageError("bicrossed requires --q and --mode")
    q = _fraction_flag(args.q, "--q")
    if args.mode == "rational":
        if args.ratio is None:
            raise UsageError("rational mode requires --ratio")
        mode = bicrossed.RatioRational(_fraction_flag(args.ratio, "--ratio"))
    else:
        if args.ratio is not None:
            raise UsageError("--ratio only applies to rational mode")
        mode = bicrossed.RatioIrrational()
    params = bicrossed.BicrossedParams(q, mode)
    times = []
    for raw in args.t or ["0,1"]:
        parts = raw.split(",")
        if len(parts) != 2:
            raise UsageError(f"--t expects 'r,s', got {raw!r}")
        times.append(bicrossed.ScalingTime(
            _fraction_flag(parts[0], "--t"), _fraction_flag(parts[1], "--t")))
    inputs = {"q": str(args.q), "mode": args.mode,
              "t": [f"{t.r},{t.s}" for t in times]}
    if args.mode == "rational":
        inputs["ratio"] = str(args.ratio)
    center = bicrossed.center_description(params)
    factor = bicrossed.factor_report(params)
    rows = [{
        "r": report.fraction_payload(t.r),
        "s": report.fraction_payload(t.s),
        "trivial": bicrossed.is_trivial_scaling(t, params),
        "inner": bicrossed.is_inner_scaling(t, params),
    } for t in times]
    results = {
        "table": rows,
        "center": {
            "trivial": center.is_trivial,
            "generator": None if center.generator is None
            else report.fraction_payload(center.generator),
        },
        "factor": {
            "is_factor": factor.is_factor,
            "description": factor.description,
            "coamenable": factor.coamenable,
            "injective": factor.injective,
        },
    }
    return report.Report("bicrossed", inputs, results)


def cmd_report(args: argparse.Namespace) -> report.Report:
    grid = acceptance.run_all(bits=args.bits)
    return report.Report("report", {}, grid, {"bits": args.bits})


HANDLERS = {
    "dims": cmd_dims,
    "series": cmd_series,
    "threshold": cmd_threshold,
    "moments": cmd_moments,
    "spectral": cmd_spectral,
    "jacobi": cmd_jacobi,
    "bicrossed": cmd_bicrossed,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args = _apply_config(parser, argv, args)
        if hasattr(args, "bits"):
            args.bits = _resolve_bits(args)
        result = HANDLERS[args.command](args)
        fmt = args.format or "json"
        if fmt == "csv":
            if args.command not in TABULAR_COMMANDS:
                raise UsageError(f"--format csv applies to {TABULAR_COMMANDS} only")
            sys.stdout.write(report.table_to_csv(result.results["table"]))
        else:
            sys.stdout.write(result.to_json())
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, BudgetError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
