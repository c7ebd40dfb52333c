"""Library-call client of the ``sweep`` workload.

Reads a JSON list of library operations (see ``workloads.py``) on stdin and
runs them one after another in this one process, the way
``scripts/threshold_scan.py`` and README's library tour use the API.  Each
result goes to stdout as one canonical JSON line, so a traced and an
untraced run print the same bytes.  Every ``CALIB_EVERY`` calls the process
also runs the calibration loop of ``calib.py``, outside the timed calls.
Per-call wall and CPU times and the calibration CPU times go to stderr as
the last line, ``{"latencies": [...], "cpu": [...], "calib": [...]}``.

Run from the repository root:  ``PYTHONPATH=src python perfbench/sweep.py < ops.json``
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from calib import calibrate
from qclassfun import criteria, fusion, intervals, scalars

DIGITS = 50
CALIB_EVERY = 25


def _pair(x) -> list[str]:
    return list(intervals.to_decimal_pair(x, DIGITS))


def _series(result) -> dict:
    out = {"verdict": result.verdict.value, "terms_used": result.terms_used}
    if result.verdict is criteria.Verdict.CONVERGES:
        out["partial_sum"] = _pair(result.partial_sum)
        out["tail_bound"] = _pair(result.tail_bound)
        out["sum"] = _pair(result.sum_enclosure())
    return out


def _q_c(raw: str):
    if raw.startswith("fund:"):
        with intervals.precision(intervals.DEFAULT_BITS):
            return scalars.solve_fundamental_q(int(raw[5:]))
    return Fraction(raw)


def _family(args: dict):
    if args["kind"] == "o-plus":
        return fusion.su2_ladder(args["N"], q=Fraction(args["q"]))
    if args["kind"] == "so3":
        return fusion.so3_ladder(args["N"], dim_q_fund=Fraction(args["dimq"]))
    return fusion.free_unitary(args["N"], q=Fraction(args["q"]))


def run_call(call: str, args: dict) -> dict:
    if call == "block_sum_S":
        return _series(criteria.block_sum_S(_q_c(args["q_c"]), Fraction(args["q_q"]), args["tol"]))
    if call == "bound_S_dim2":
        return {"bound": _pair(criteria.bound_S_dim2(Fraction(args["q"])))}
    if call == "threshold_dim2":
        return {"enclosure": _pair(criteria.threshold_dim2(args["tol"]))}
    if call == "threshold_remark":
        return {"enclosure": _pair(criteria.threshold_remark(args["tol"]))}
    if call == "masa_verdict":
        verdict = criteria.masa_verdict(_family(args))
        out = {"verdict_text": verdict.verdict_text, "series": _series(verdict.series)}
        if verdict.block_sum is not None:
            out["block_sum"] = _series(verdict.block_sum)
        return out
    raise ValueError(f"unknown sweep call {call!r}")


def main() -> int:
    ops = json.load(sys.stdin)
    latencies, cpu, calib = [], [], []
    for i, op in enumerate(ops):
        if i % CALIB_EVERY == 0:
            calib.append(calibrate())
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            record = {"result": run_call(op["call"], op["args"])}
        except Exception as exc:  # one failing call must not end the sweep
            record = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - start)
        cpu.append(time.process_time() - start_cpu)
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()
    sys.stderr.write(json.dumps({"latencies": latencies, "cpu": cpu, "calib": calib}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
