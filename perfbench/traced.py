"""Traced entry point: the CLI (or the sweep client) with timed layer boundaries.

    PYTHONPATH=src python perfbench/traced.py --spans OUT.json -- <qclassfun argv...>
    PYTHONPATH=src python perfbench/traced.py --spans OUT.json --sweep < ops.json

It times the imports of mpmath, numpy and ``qclassfun.cli``, then wraps the
public functions listed in :data:`LAYERS`, the entries of ``cli.HANDLERS`` and
the acceptance criteria with timers and counters, and runs ``cli.main`` (or
``sweep.main``).  Nothing in ``src/`` changes: every wrapper is installed from
outside by rebinding module attributes, so calls between modules and within a
module go through it.  Spans stay in memory as ``[name, start, end, parent]``
and are written to OUT.json at exit, with the counters.  Standard output is
left alone, so it must match an untraced run byte for byte.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

_t0 = time.perf_counter()
import mpmath  # noqa: E402,F401

_t1 = time.perf_counter()
import numpy  # noqa: E402,F401

_t2 = time.perf_counter()
import qclassfun.cli as cli  # noqa: E402

_t3 = time.perf_counter()
IMPORTS = {"mpmath": _t1 - _t0, "numpy": _t2 - _t1, "qclassfun": _t3 - _t2}

from qclassfun import (  # noqa: E402
    acceptance, bicrossed, criteria, fusion, intervals, noncrossing, report, scalars, spectral,
)

#: (module, attribute, layer name).  Thresholds share one layer.
LAYERS = [
    (criteria, "block_sum_S", "criteria.block_sum_S"),
    (criteria, "quasi_split_sum_ladder", "criteria.quasi_split_sum_ladder"),
    (criteria, "threshold_dim2", "criteria.threshold"),
    (criteria, "threshold_remark", "criteria.threshold"),
    (criteria, "threshold_ratio_dimge3", "criteria.threshold"),
    (criteria, "bound_S_dim2", "criteria.bound_S_dim2"),
    (scalars, "q_number", "scalars.q_number"),
    (fusion, "dim", "fusion.dim"),
    (fusion, "tensor_reduce", "fusion.tensor_reduce"),
    (fusion, "tensor_free", "fusion.tensor_free"),
    (report, "enclosure_payload", "report.enclosure_payload"),
] + [
    (noncrossing, name, f"noncrossing.{name}")
    for name in ("count_noncrossing_matchings", "count_ab_matchings", "count_nosingleton_noncrossing")
] + [
    (spectral, name, f"spectral.{name}")
    for name in ("trace_balanced", "modular_norm_sq", "modular_eigencoefficients", "build_jacobi",
                 "krylov_rank", "matrix_commutant_dim", "commutant_dim", "min_eigenvalue_gap",
                 "suq2_relation_residuals")
] + [
    (bicrossed, name, f"bicrossed.{name}")
    for name in ("is_trivial_scaling", "is_inner_scaling", "center_description",
                 "factor_report", "iso_necessary")
]

METHODS = [
    (report.Report, "to_json", "report.to_json"),
    (scalars.LaurentScalar, "evaluate", "scalars.evaluate"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.precision_bits: list[int] = []
        self.matrix_size_max = 0

    def span(self, name: str, fn, observe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if observe is not None:
                observe(result, args)
            return result

        return wrapper

    # counters read from results -------------------------------------------

    def _series(self, result, args) -> None:
        self.counters["criteria.series.terms"] += result.terms_used
        if result.verdict is criteria.Verdict.UNDETERMINED:
            self.counters["criteria.series.undetermined"] += 1

    def _matrix(self, result, args) -> None:
        # build_jacobi and suq2_relation_residuals take the size, matrix_commutant_dim the matrix.
        first = args[0]
        size = first.shape[0] if hasattr(first, "shape") else int(first)
        self.matrix_size_max = max(self.matrix_size_max, size)

    def _precision(self, original):
        @functools.wraps(original)
        def precision(bits: int = intervals.DEFAULT_BITS):
            self.counters["intervals.precision.enters"] += 1
            self.precision_bits.append(bits)
            return original(bits)

        return precision

    # installation ----------------------------------------------------------

    def install(self) -> None:
        observers = {
            "criteria.block_sum_S": self._series,
            "criteria.quasi_split_sum_ladder": self._series,
            "spectral.build_jacobi": self._matrix,
            "spectral.matrix_commutant_dim": self._matrix,
            "spectral.suq2_relation_residuals": self._matrix,
        }
        replacements = {}
        for module, attr, name in LAYERS:
            original = getattr(module, attr)
            replacements[id(original)] = (original, self.span(name, original, observers.get(name)))
        original = intervals.precision
        replacements[id(original)] = (original, self._precision(original))
        # Rebind every alias, e.g. criteria.q_number and the package-level names.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qclassfun" and not mod_name.startswith("qclassfun."):
                continue
            for key, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        for cls, attr, name in METHODS:
            setattr(cls, attr, self.span(name, getattr(cls, attr)))
        for command, handler in list(cli.HANDLERS.items()):
            cli.HANDLERS[command] = self.span(f"cli.handler.{command}", handler)
        acceptance.CRITERIA = tuple(self._criterion(fn) for fn in acceptance.CRITERIA)

    def _criterion(self, fn):
        """Wrap a criterion so that ``run_all``'s signature test still sees ``bits``."""
        name = "acceptance." + "_".join(fn.__name__.split("_")[:2])
        timed = self.span(name, fn)
        if "bits" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            def criterion(bits: int = intervals.DEFAULT_BITS):
                return timed(bits=bits)
        else:
            def criterion():
                return timed()
        return criterion

    def dump(self, path: str) -> None:
        cache = fusion._ladder_value.cache_info()
        bits = self.precision_bits
        counters = dict(self.counters)
        counters["intervals.escalations"] = sum(1 for b in bits if b > min(bits)) if bits else 0
        counters["fusion.ladder_cache.hits"] = cache.hits
        counters["fusion.ladder_cache.misses"] = cache.misses
        counters["fusion.ladder_cache.size"] = cache.currsize
        maxima = {"intervals.precision.max_bits": max(bits, default=0),
                  "spectral.matrix_size_max": self.matrix_size_max}
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"imports": IMPORTS, "counters": counters, "maxima": maxima, "names": names,
                       "spans": [[index[n], a, b, p] for n, a, b, p in self.spans]}, handle)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] not in ("--", "--sweep"):
        print("usage: traced.py --spans OUT.json (-- ARGV... | --sweep < ops.json)", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    main_fn = tracer.span("cli.main", cli.main)
    try:
        if argv[2] == "--sweep":
            import sweep
            return sweep.main()
        return main_fn(argv[3:])
    finally:
        sys.stdout.flush()
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
