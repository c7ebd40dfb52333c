"""Command-line front end emitting canonical machine-readable reports.

Every subcommand prints one :class:`~qclassfun.report.Report` to stdout
(JSON by default, CSV for tabular commands) and sends diagnostics to
stderr.  Identical invocations produce byte-identical output.

Exit codes: 0 for computed answers (including Diverges/Undetermined, which
are answers), 2 for usage errors, 3 for domain and budget errors.

Each process runs one subcommand, so the module level imports only what
parsing needs: the flag budgets come from the dependency-free ``budgets``
module, and each handler imports the modules it runs.  Every subcommand
computes on ints and none loads mpmath: ``dims`` rounds and prints exact
values with ``dyadic``, ``series`` and ``threshold`` get their enclosures
from ``criteria``'s fixed point, ``jacobi`` bounds its relation residuals in
fixed point, and ``spectral`` takes its norms and coefficients from
``dyadic``'s powers, logarithm, exponential, cosine and sine.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from .budgets import (DEFAULT_BITS, DEFAULT_MAX_TERMS, MAX_BITS, MAX_COMMUTANT_SIZE,
                      MAX_DIM_DIGITS, MAX_POWER_BITS)
from .errors import BudgetError, DomainError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

    from . import bicrossed, criteria, report
    from .fusion import FusionFamily

ENV_BITS = "QCLASSFUN_BITS"

#: --family value -> (name of its constructor in `fusion`, flag giving the
#: classical fundamental dimension, its least value, whether --qq applies).
FAMILIES = {
    "o-plus": ("su2_ladder", "N", 2, True),
    "so3": ("so3_ladder", "N", 3, False),
    "u-plus": ("free_unitary", "dim", 2, True),
}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# flag types: argparse checks every value once, so handlers convert safely


def _rational(raw: str) -> str:
    """Type of a rational flag; returns the text, which reports echo as given,
    once the library's reader, imported here to keep the CLI's import lean, accepts it."""
    from .dyadic import read_rational

    try:
        read_rational(raw)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return raw


def _positive_rational(raw: str) -> str:
    if Fraction(_rational(raw)) <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {raw!r}")
    return raw


def _scaling_time(raw: str) -> bicrossed.ScalingTime:
    """Type of `bicrossed --t`: 'r,s' meaning t = r*nu + s*pi/log|q|."""
    from . import bicrossed

    parts = raw.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expects 'r,s', got {raw!r}")
    return bicrossed.ScalingTime(*map(_rational, parts))


def _count(minimum: int, maximum: int) -> Callable[[str], int]:
    """Type of a count flag: an integer in minimum..maximum.  The maximum is
    the flag's budget: larger values would run for more than a few seconds."""
    def count(raw: str) -> int:
        value = int(raw)
        if not minimum <= value <= maximum:
            raise argparse.ArgumentTypeError(f"must be in {minimum}..{maximum}, got {value}")
        return value
    return count


def _config_file(path: str) -> dict:
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise argparse.ArgumentTypeError("config file must hold a JSON object")
    return data


BITS = _count(1, MAX_BITS)


def _bits_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bits", type=BITS, default=None,
                     help=f"precision in bits, 1..{MAX_BITS} (default ${ENV_BITS} or {DEFAULT_BITS})")


def _common_flags(sub: argparse.ArgumentParser, formats=("json",)) -> None:
    sub.add_argument("--format", choices=formats, default="json", help="output format")
    sub.add_argument("--config", type=_config_file, default=None,
                     help="JSON file supplying flag defaults; explicit flags win")


def _family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=list(FAMILIES), default=None)
    sub.add_argument("--N", type=int, default=None, dest="N",
                     help="classical dimension of the fundamental (ladder families)")
    sub.add_argument("--dim", type=int, default=None,
                     help="classical dimension of the fundamental (u-plus)")
    deformation = sub.add_mutually_exclusive_group()
    deformation.add_argument("--qq", type=_rational, default=None,
                             help="deformation parameter in (0,1]; dim_q = qq + 1/qq")
    deformation.add_argument("--dimq", type=_rational, default=None,
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
    dims.add_argument("--max", type=_count(0, 400), default=10, help="largest ladder label")
    dims.add_argument("--word-len", type=_count(1, 12), default=4,
                      help="largest word length (u-plus)")
    _bits_flag(dims)
    _common_flags(dims, formats=("json", "csv"))

    series = sub.add_parser("series", help="Certified summability run with verdict")
    _family_flags(series)
    series.add_argument("--tol", type=_positive_rational, default="1e-6", help="tail tolerance")
    series.add_argument("--n-max", type=_count(0, 1000), default=50,
                        help="ladder kac_part lists labels up to min(n-max, 20)")
    series.add_argument("--max-terms", type=_count(1, 50_000), default=DEFAULT_MAX_TERMS,
                        help="series term budget")
    _bits_flag(series)
    _common_flags(series)

    threshold = sub.add_parser("threshold", help="Certified threshold constants")
    threshold.add_argument("--which", choices=["dim2", "ratio3", "remark"], required=True)
    threshold.add_argument("--tol", type=_positive_rational, default="1e-4", help="enclosure width")
    _bits_flag(threshold)
    _common_flags(threshold)

    moments = sub.add_parser("moments", help="Invariant multiplicities vs combinatorial oracles")
    _family_flags(moments)
    moments.add_argument("--k-max", type=_count(0, 24), default=8)
    _common_flags(moments, formats=("json", "csv"))

    spectral_cmd = sub.add_parser("spectral", help="Modular-twisted character norms")
    spectral_cmd.add_argument("--rho-ladder", type=_count(0, 5000), default=None,
                              help="ladder index of the spectrum")
    spectral_cmd.add_argument("--q", type=_rational, default=None,
                              help="spectral parameter in (0,1]")
    spectral_cmd.add_argument("--b", type=_rational, default="0",
                              help="imaginary part of the modular parameter")
    spectral_cmd.add_argument("--t", type=_rational, default=None,
                              help="real time: also emit the unit-circle coefficients")
    _bits_flag(spectral_cmd)
    _common_flags(spectral_cmd)

    jacobi = sub.add_parser("jacobi", help="Finite weighted-shift model checks")
    jacobi.add_argument("--M", type=_count(2, MAX_COMMUTANT_SIZE), default=None, dest="M")
    jacobi.add_argument("--q", type=_rational, default=None)
    jacobi.add_argument("--phase", type=_rational, default="0",
                        help="phase of the diagonal generator, radians")
    _common_flags(jacobi)

    bi = sub.add_parser("bicrossed", help="Scaling-time and classification arithmetic")
    bi.add_argument("--q", type=_rational, default=None,
                    help="deformation parameter, rational in (-1,1), nonzero")
    bi.add_argument("--mode", choices=["rational", "irrational"], default=None)
    bi.add_argument("--ratio", type=_rational, default=None,
                    help="declared rational value of nu*log|q|/pi (rational mode)")
    bi.add_argument("--t", type=_scaling_time, action="append", default=None,
                    help="scaling time 'r,s': t = r*nu + s*pi/log|q| (repeatable; default 0,1)")
    _common_flags(bi)

    rep = sub.add_parser("report", help="Run the full verification grid")
    _bits_flag(rep)
    _common_flags(rep)

    parser.commands = sub.choices  # subcommand -> its parser, for the flag defaults
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str],
                  args: argparse.Namespace) -> argparse.Namespace:
    """Parse `argv` again with the values of the config file as leading flags.

    Each config value is read as the text of its flag, so it passes the same
    checks; a list gives one flag per item, for a repeatable flag only.
    Explicit flags win: they come last, and the config value of a flag that
    is already off its default is not read.
    """
    if not args.config:
        return args
    command = parser.commands[args.command]
    tokens: list[str] = []
    listed: list[str] = []
    for key, value in args.config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, attr) != command.get_default(attr) or value is None:
            continue
        items = value if isinstance(value, list) else [value]
        if isinstance(value, list):
            listed.append(key)
        tokens += [f"--{attr.replace('_', '-')}={item}" for item in items]
    try:
        merged = parser.parse_args([args.command, *tokens, *argv[1:]])
    except SystemExit as exc:
        raise UsageError("invalid value in the --config file") from exc
    for key in listed:
        if not isinstance(getattr(merged, key.replace("-", "_")), list):
            raise UsageError(f"config key {key!r} takes one value, got a list")
    return merged


def _build_family(args: argparse.Namespace) -> tuple[FusionFamily, dict]:
    from . import fusion

    if args.family is None:
        raise UsageError("--family is required")
    constructor, size_flag, least, takes_qq = FAMILIES[args.family]
    build = getattr(fusion, constructor)
    size = getattr(args, size_flag)
    if size is None:
        raise UsageError(f"--{size_flag} is required for --family {args.family}")
    if args.qq is not None and not takes_qq:
        raise UsageError(f"{args.family} families take --dimq (quantum dimension), not --qq")
    if size < least:
        raise UsageError(f"{args.family} families need --{size_flag} >= {least}, got {size}")
    inputs: dict = {"family": args.family, size_flag: size}
    if args.qq is not None:
        inputs["qq"] = args.qq
        return build(size, q=args.qq), inputs
    if args.dimq is not None:
        inputs["dimq"] = args.dimq
        return build(size, dim_q_fund=args.dimq), inputs
    return build(size), inputs


def _series_payload(result: criteria.SeriesResult) -> dict:
    from . import criteria, report

    payload: dict = {"verdict": result.verdict.value, "terms_used": result.terms_used}
    if result.verdict is criteria.Verdict.CONVERGES:
        payload["partial_sum"] = report.enclosure_payload(result.partial_sum)
        payload["tail_bound"] = report.enclosure_payload(result.tail_bound)
        payload["sum"] = report.enclosure_payload(result.sum_enclosure())
    return payload


def _meta(args: argparse.Namespace) -> dict:
    """The starting precision; an enclosure that escalated prints more digits."""
    from . import dyadic

    return {"bits": args.bits, "digits": dyadic.decimal_digits(args.bits)}


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_dims(args: argparse.Namespace) -> report.Report:
    from . import fusion, report

    family, inputs = _build_family(args)
    # Every classical dimension of a label of length n is at most N^n, and
    # no int past the int -> str limit in force (0: none) can be printed.
    # Pythons before 3.10.7 have no such limit, nor the function that reads it.
    digits = (args.max if family.is_ladder else args.word_len) * math.log10(family.dim_c_fund)
    in_force = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    budget = min(MAX_DIM_DIGITS, in_force or MAX_DIM_DIGITS)
    if digits > budget:
        raise BudgetError(f"the classical dimensions may have {digits:.0f} digits, which exceeds "
                          f"the budget of {budget}")
    if family.is_ladder:
        inputs["max"] = args.max
        labels = list(range(args.max + 1))
    else:
        inputs["word_len"] = args.word_len
        labels = list(fusion.all_words(args.word_len, min_len=1))
    rows = [{
        "label": str(label) or "e",
        "dim": dim_c,
        "dim_q": report.rational_payload(dim_q, scale, args.bits),
        "ratio": report.rational_payload(dim_c * scale, dim_q, args.bits),
    } for label, (dim_c, dim_q, scale) in zip(labels, fusion.scaled_dims(labels, family))]
    return report.Report("dims", inputs, {"table": rows}, _meta(args))


def cmd_series(args: argparse.Namespace) -> report.Report:
    from . import criteria, report

    family, inputs = _build_family(args)
    inputs.update({"tol": args.tol, "n_max": args.n_max})
    verdict = criteria.masa_verdict(family, tol=args.tol, bits=args.bits, max_terms=args.max_terms)
    results: dict = {
        "series": _series_payload(verdict.series),
        "quasi_split": verdict.quasi_split.value,
        "all_nontrivial_rho_nontrivial": verdict.all_nontrivial_rho_nontrivial,
        "masa_verdict": verdict.verdict_text,
    }
    if verdict.block_sum is not None:
        results["block_sum"] = _series_payload(verdict.block_sum)
    if family.is_ladder:
        results["kac_part"] = criteria.kac_part(family, min(args.n_max, 20))
    return report.Report("series", inputs, results, {**_meta(args), "max_terms": args.max_terms})


def cmd_threshold(args: argparse.Namespace) -> report.Report:
    from . import criteria, dyadic, report

    inputs = {"which": args.which, "tol": args.tol}
    if args.which == "dim2":
        enclosure = criteria.threshold_dim2(args.tol, bits=args.bits)
    elif args.which == "remark":
        enclosure = criteria.threshold_remark(args.tol, bits=args.bits)
    else:
        enclosure = criteria.threshold_ratio_dimge3(bits=args.bits)
    meta = _meta(args)
    results = {
        "enclosure": report.enclosure_payload(enclosure),
        "width": dyadic.to_text(*dyadic.width(enclosure), meta["digits"], "ceiling"),
    }
    return report.Report("threshold", inputs, results, meta)


def cmd_moments(args: argparse.Namespace) -> report.Report:
    from . import fusion, noncrossing, report

    family, inputs = _build_family(args)
    inputs["k_max"] = args.k_max
    rows = []
    for k in range(args.k_max + 1):
        if family.is_ladder:
            labels, label = [1] * k, f"[1]*{k}"
        else:
            word = fusion.alternating_word(k)
            labels, label = list(word), word or "e"
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
            "label": label,
            "multiplicity": multiplicity,
            "oracle": oracle,
            "match": multiplicity == oracle,
        })
    return report.Report("moments", inputs, {"table": rows, "oracle": oracle_name})


def cmd_spectral(args: argparse.Namespace) -> report.Report:
    from . import fusion, report, spectral

    if args.rho_ladder is None or args.q is None:
        raise UsageError("spectral requires --rho-ladder and --q")
    n, b = args.rho_ladder, Fraction(args.b)
    # checked before the budget below takes the logarithm of q
    q = fusion.check_ladder(n, args.q)
    p, r = q.as_integer_ratio()
    bits = math.hypot((4 * b + 1) * n * (math.log2(r) - math.log2(p)),
                      math.log2(r) * math.sqrt(n * (n + 1) * (n + 2) / 3))
    if bits > MAX_POWER_BITS:
        raise BudgetError(f"the norm's power and the exact eigenvalues have {bits:.3g} bits in "
                          f"root sum of squares, which exceeds the budget of {MAX_POWER_BITS}")
    inputs = {"rho_ladder": n, "q": args.q, "b": str(b)}
    results: dict = {
        "norm_sq": report.enclosure_payload(spectral.modular_norm_sq(n, q, b, args.bits)),
        "trace_balanced": spectral.trace_balanced(n, q),
        "rho": [report.rational_payload(num, den, args.bits)
                for num, den in fusion.rho_spectrum(n, q)],
    }
    if args.t is not None:
        inputs["t"] = args.t
        results["eigencoefficients"] = [
            {"re": report.enclosure_payload(re), "im": report.enclosure_payload(im)}
            for re, im in spectral.modular_eigencoefficients(n, q, args.t, args.bits)
        ]
    return report.Report("spectral", inputs, results, _meta(args))


def cmd_jacobi(args: argparse.Namespace) -> report.Report:
    from . import report, spectral

    if args.M is None or args.q is None:
        raise UsageError("jacobi requires --M and --q")
    inputs = {"M": args.M, "q": args.q, "phase": args.phase}
    op = spectral.build_jacobi(args.M, args.q)
    results: dict = {
        "krylov_rank": spectral.krylov_rank(op),
        "commutant_dim": spectral.commutant_dim(op),
        "min_eigenvalue_gap": repr(spectral.min_eigenvalue_gap(op)),
        "off_diagonal": [repr(x) for x in op.off_diagonal],
    }
    if args.M >= 4:
        residual = spectral.suq2_relation_residuals(args.M, args.q, args.phase)
        results["interior_residual"] = repr(residual)
    return report.Report("jacobi", inputs, results)


def cmd_bicrossed(args: argparse.Namespace) -> report.Report:
    from . import bicrossed, report

    if args.q is None or args.mode is None:
        raise UsageError("bicrossed requires --q and --mode")
    rational = args.mode == "rational"
    if rational != (args.ratio is not None):
        raise UsageError("rational mode requires --ratio, and only rational mode takes it")
    mode = bicrossed.RatioRational(args.ratio) if rational else bicrossed.RatioIrrational()
    params = bicrossed.BicrossedParams(args.q, mode)
    times = args.t or [bicrossed.ScalingTime(0, 1)]
    inputs = {"q": args.q, "mode": args.mode, "t": [f"{t.r},{t.s}" for t in times]}
    if rational:
        inputs["ratio"] = args.ratio
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
    from . import acceptance, report

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
        if getattr(args, "bits", 0) is None:  # neither --bits nor the config gave one
            raw = os.environ.get(ENV_BITS, str(DEFAULT_BITS))
            try:
                args.bits = BITS(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"${ENV_BITS} must be an integer in 1..{MAX_BITS}, "
                                 f"got {raw!r}") from exc
        result = HANDLERS[args.command](args)
        if args.format == "csv":
            from . import report

            sys.stdout.write(report.table_to_csv(result.results["table"]))
        else:
            sys.stdout.write(result.to_json())
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
