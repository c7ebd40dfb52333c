#!/usr/bin/env python3
"""qclassfun benchmark: four closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is used from source (``src`` on
``PYTHONPATH``) through its real entry points: ``python -m qclassfun.cli``
processes, and for ``sweep`` one process making library calls.  One client
sends the next operation when the previous one has ended.  Every operation's
output is checked by ``checks.py``; the inputs come from ``--seed`` alone
(``workloads.py``).  Children keep numpy's default BLAS thread count.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half as many
operations, each once untraced and once through ``traced.py``, requires the
two stdouts to be byte-identical, and prints the per-layer metrics built
from the traced spans.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import workloads
from calib import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 7
#: Operations still running or not yet started this long after the start fail
#: as timeouts, so that a run always ends within the 180 s the harness allows.
RUN_BUDGET_S = 150.0

#: The metrics of the result line.  CPU times are divided by the CPU time of
#: the calibration loop (``calib.py``) run alongside the operations, giving
#: "loops".  On the reference host, a 2-vCPU VM shared with neighbours,
#: the same code's wall time moved by up to 25% between runs as the VM lost
#: CPU, and its CPU time by up to 45% as the host switched between a fast and
#: a slow speed regime every few tens of seconds; the loop moves with that
#: regime.  Raw seconds are printed beside the result line.
END_TO_END_UNITS = {
    "setup_s": "s", "cpu_loops": "loops", "op_cpu_p50_loops": "loops",
    "op_cpu_tail_loops": "loops", "peak_rss_mb": "MB",
}

#: Layers reported with calls, busy_s and self_s.
FULL_LAYERS = (
    "cli.main", "report.to_json", "report.enclosure_payload",
    "criteria.block_sum_S", "criteria.quasi_split_sum_ladder", "scalars.evaluate",
    "scalars.q_number", "criteria.threshold", "fusion.dim", "fusion.tensor_reduce",
    "fusion.tensor_free", "noncrossing.count_noncrossing_matchings",
    "noncrossing.count_ab_matchings", "noncrossing.count_nosingleton_noncrossing",
)
#: Layers reported with calls and busy_s.
BUSY_LAYERS = tuple(f"cli.handler.{c}" for c in
                    ("dims", "series", "threshold", "moments", "spectral", "jacobi", "bicrossed",
                     "report")) + tuple(f"spectral.{f}" for f in
                    ("trace_balanced", "modular_norm_sq", "modular_eigencoefficients",
                     "build_jacobi", "krylov_rank", "matrix_commutant_dim", "commutant_dim",
                     "min_eigenvalue_gap", "suq2_relation_residuals")) + tuple(
                    f"bicrossed.{f}" for f in ("is_trivial_scaling", "is_inner_scaling",
                                               "center_description", "factor_report",
                                               "iso_necessary"))
CRITERIA = tuple(f"acceptance.criterion_{i}" for i in range(1, 12))
COUNTS = ("criteria.series.terms", "criteria.series.undetermined", "intervals.precision.enters",
          "intervals.escalations", "fusion.ladder_cache.hits", "fusion.ladder_cache.misses",
          "fusion.ladder_cache.size")


def per_layer_units() -> dict:
    units = {}
    for name in FULL_LAYERS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    for name in BUSY_LAYERS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s"})
    units.update({f"{name}.busy_s": "s" for name in CRITERIA})
    units.update({name: "count" for name in COUNTS})
    units.update({
        "import.qclassfun_s": "s", "import.numpy_s": "s", "import.mpmath_s": "s",
        "report.bytes_out": "bytes", "criteria.series.s_per_term": "s",
        "criteria.bisect.f_evals": "count", "intervals.precision.max_bits": "bits",
        "spectral.matrix_size_max": "rows", "machine.calib_s": "s",
        "trace.overhead_s": "s", "trace.handler_share": "fraction",
    })
    return units


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    rc: int | None  # None: killed at the timeout
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env["TMPDIR"] = str(work)

    def spawn(self, argv: list[str], timeout: float, stdin: Path | None = None) -> Proc:
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return Proc(None, 0.0, 0.0, 0.0, "", "")
        out, err = self.work / "stdout", self.work / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, str(stdin) if stdin else os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o600),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        reaped = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
            finally:
                os.close(pidfd)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
        wall = time.perf_counter() - start
        return Proc(os.waitstatus_to_exitcode(status) if ready else None, wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    out.read_text(encoding="utf-8", errors="replace"),
                    err.read_text(encoding="utf-8", errors="replace"))

    def setup_s(self) -> float:
        self.spawn(["-c", "import qclassfun.cli"], 60)  # writes bytecode caches once
        return statistics.median(
            self.spawn(["-c", "import qclassfun.cli"], 60).wall for _ in range(SETUP_SPAWNS))


# ---------------------------------------------------------------------------
# one workload run


@dataclass
class Outcome:
    op: dict
    latency: float
    cpu: float
    verdict: checks.Verdict
    stdout: str  # empty for library calls, whose output is one process's stdout


def cli_argv(op: dict) -> list[str]:
    return ["-m", "qclassfun.cli", *op["argv"]]


def run_cli_op(runner: Runner, op: dict, argv_prefix: list[str] | None = None) -> tuple[Proc, checks.Verdict]:
    argv = argv_prefix + ["--", *op["argv"]] if argv_prefix else cli_argv(op)
    proc = runner.spawn(argv, op["timeout"])
    return proc, checks.check_cli(op, proc.rc, proc.stdout, proc.stderr)


def run_sweep(runner: Runner, ops: list[dict], argv: list[str]):
    """Run the sweep client; returns the process, per-call wall and CPU times,
    its calibration samples and the per-call records."""
    stdin = runner.work / "ops.json"
    stdin.write_text(json.dumps(ops), encoding="utf-8")
    proc = runner.spawn(argv, RUN_BUDGET_S, stdin)
    records: list[dict | None] = [json.loads(line) for line in proc.stdout.splitlines()]
    records += [None] * (len(ops) - len(records))
    try:
        timings = json.loads(proc.stderr.strip().splitlines()[-1])
        latencies, cpu, calib = timings["latencies"], timings["cpu"], timings["calib"]
    except (IndexError, ValueError, KeyError):
        latencies, cpu, calib = [], [], []
    latencies += [proc.wall] * (len(ops) - len(latencies))
    cpu += [proc.cpu] * (len(ops) - len(cpu))
    return proc, latencies, cpu, calib, records


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def defect_of(outcome: Outcome) -> str | None:
    """The known defect a failed operation shows, or None for an unexpected failure."""
    if outcome.op["defect"] is not None:
        return outcome.op["defect"]
    tag = (outcome.verdict.reason or "").split(":")[0]
    return tag if tag in workloads.DEFECTS else None


def describe(op: dict) -> str:
    return " ".join(op["argv"]) if op["kind"] == "cli" else f"{op['call']} {json.dumps(op['args'])}"


def summarize(outcomes: list[Outcome]) -> dict:
    """Print one check line per operation and count the outcomes."""
    for i, o in enumerate(outcomes):
        status = "ok" if o.verdict.ok else f"FAILED [{defect_of(o) or 'UNEXPECTED'}] {o.verdict.reason}"
        print(f"op {i} {o.latency:.4f}s {describe(o.op)} :: {status}")
    failed = [o for o in outcomes if not o.verdict.ok]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "unexpected": sum(1 for o in failed if defect_of(o) is None),
        "series_ops": sum(o.verdict.series_ops for o in outcomes),
        "undetermined": sum(o.verdict.undetermined for o in outcomes),
        "defects": {tag: sum(1 for o in failed if defect_of(o) == tag) for tag in workloads.DEFECTS},
    }


def execute(runner: Runner, workload: str, ops: list[dict], calib: list[float]) -> tuple[list[Outcome], list[Proc]]:
    """Untraced pass: every operation once, in order.  The calibration loop
    runs after each process, or inside the one sweep process, whose CPU and
    wall times then exclude it."""
    if workload == "sweep":
        proc, latencies, cpu, samples, records = run_sweep(runner, ops, [str(HERE / "sweep.py")])
        calib.extend(samples)
        proc.cpu -= sum(samples)
        proc.wall -= sum(samples)
        outcomes = [Outcome(op, lat, c, checks.check_lib(op, rec), "")
                    for op, lat, c, rec in zip(ops, latencies, cpu, records)]
        return outcomes, [proc]
    outcomes, procs = [], []
    for op in ops:
        proc, verdict = run_cli_op(runner, op)
        calib.append(calibrate())
        outcomes.append(Outcome(op, proc.wall, proc.cpu, verdict, proc.stdout))
        procs.append(proc)
    return outcomes, procs


def end_to_end(runner: Runner, workload: str, ops: list[dict]) -> tuple[dict, dict]:
    setup = runner.setup_s()
    calib: list[float] = []
    outcomes, procs = execute(runner, workload, ops, calib)
    stats = summarize(outcomes)
    wall = sum(p.wall for p in procs)
    loop = statistics.median(calib)
    latencies = [o.latency for o in outcomes]
    cpu = [o.cpu for o in outcomes]
    pct, cpu_tail = tail(cpu)
    passed = stats["attempted"] - stats["failed"]
    cpu_total = sum(p.cpu for p in procs)
    values = {
        "setup_s": setup,
        "cpu_loops": cpu_total / loop,
        "op_cpu_p50_loops": statistics.median(cpu) / loop,
        "op_cpu_tail_loops": cpu_tail / loop,
        "peak_rss_mb": max(p.rss_mb for p in procs),
    }
    print(f"the tail metrics are the p{pct:.1f} over {len(cpu)} operations")
    print(f"machine.calib_s = {loop} s (median CPU time of {len(calib)} calibration loops)")
    # Printed, not in the result line: see END_TO_END_UNITS.
    print(f"cpu_s = {cpu_total} s")
    print(f"op_cpu_p50_s = {statistics.median(cpu)} s")
    print(f"op_cpu_tail_s = {cpu_tail} s")
    print(f"wall_s = {wall} s")
    print(f"op_p50_s = {statistics.median(latencies)} s")
    print(f"op_tail_s = {tail(latencies)[1]} s")
    # Which inputs hit the endpoint-53bit defect depends on rounding, so the
    # count of answers follows the seed.
    print(f"answers_per_s = {passed / wall} 1/s ({passed} checked answers)")
    print(f"fail_rate = {stats['failed'] / stats['attempted']:.6f} ratio "
          f"({stats['failed']}/{stats['attempted']}, {stats['unexpected']} unexpected)")
    rate = stats["undetermined"] / stats["series_ops"] if stats["series_ops"] else 0.0
    print(f"undetermined_rate = {rate:.6f} ratio ({stats['undetermined']}/{stats['series_ops']} series operations)")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, stats


# ---------------------------------------------------------------------------
# traced run


class LayerTotals:
    """Per-layer sums over the span files of a traced run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self.maxima = {"intervals.precision.max_bits": 0, "spectral.matrix_size_max": 0}
        self.imports: dict[str, list[float]] = {"qclassfun": [], "numpy": [], "mpmath": []}
        self.f_evals = 0

    def add(self, path: Path) -> None:
        if not path.exists():  # the traced process was killed at its timeout
            return
        data = json.loads(path.read_text(encoding="utf-8"))
        for key, value in data["imports"].items():
            self.imports[key].append(value)
        for key, value in data["counters"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        for key, value in data["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        names = data["names"]
        spans = data["spans"]
        child = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - child[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(names[spans[p][0]])
                p = spans[p][3]
            if name not in ancestors:
                self.busy[name] = self.busy.get(name, 0.0) + duration
            if name in ("criteria.bound_S_dim2", "scalars.q_number") and "criteria.threshold" in ancestors:
                self.f_evals += 1


def traced(runner: Runner, workload: str, ops: list[dict]) -> tuple[dict, dict, bool]:
    setup = runner.setup_s()
    layers = LayerTotals()
    calib: list[float] = []
    mismatches = 0
    traced_prefix = [str(HERE / "traced.py"), "--spans"]
    if workload == "sweep":
        outcomes, procs = execute(runner, workload, ops, calib)
        spans = runner.work / "spans.json"
        proc = run_sweep(runner, ops, [*traced_prefix, str(spans), "--sweep"])[0]
        layers.add(spans)
        base, new = procs[0].stdout.splitlines(), proc.stdout.splitlines()
        mismatches = sum(a != b for a, b in zip(base, new)) + abs(len(base) - len(new))
        traced_wall = proc.wall
    else:
        outcomes, procs, traced_wall = [], [], 0.0
        for i, op in enumerate(ops):
            proc, verdict = run_cli_op(runner, op)
            outcomes.append(Outcome(op, proc.wall, proc.cpu, verdict, proc.stdout))
            procs.append(proc)
            spans = runner.work / f"spans-{i}.json"
            tproc, _ = run_cli_op(runner, op, [*traced_prefix, str(spans)])
            traced_wall += tproc.wall
            if tproc.stdout != proc.stdout:
                mismatches += 1
                print(f"traced stdout differs for op {i}: {' '.join(op['argv'])}")
            layers.add(spans)
            spans.unlink(missing_ok=True)
            calib.append(calibrate())
    stats = summarize(outcomes)
    wall = sum(p.wall for p in procs)
    cli_ops = sum(1 for op in ops if op["kind"] == "cli")
    handler_busy = sum(v for k, v in layers.busy.items() if k.startswith("cli.handler."))
    share = handler_busy / (wall - cli_ops * setup) if cli_ops and wall > cli_ops * setup else 0.0
    print(f"traced stdout byte-identical for {len(ops) - mismatches}/{len(ops)} operations")
    print(f"handler busy_s {handler_busy:.4f} s over wall_s - {cli_ops} x setup_s = "
          f"{wall - cli_ops * setup:.4f} s: share {share:.3f}")

    values: dict[str, float] = {}
    for name in FULL_LAYERS:
        values[f"{name}.calls"] = layers.calls.get(name, 0)
        values[f"{name}.busy_s"] = layers.busy.get(name, 0.0)
        values[f"{name}.self_s"] = layers.self_time.get(name, 0.0)
    for name in BUSY_LAYERS:
        values[f"{name}.calls"] = layers.calls.get(name, 0)
        values[f"{name}.busy_s"] = layers.busy.get(name, 0.0)
    for name in CRITERIA:
        values[f"{name}.busy_s"] = layers.busy.get(name, 0.0)
    values.update({name: layers.counts.get(name, 0) for name in COUNTS})
    values.update(layers.maxima)
    for key in ("qclassfun", "numpy", "mpmath"):
        values[f"import.{key}_s"] = statistics.median(layers.imports[key]) if layers.imports[key] else 0.0
    terms = layers.counts["criteria.series.terms"]
    series_busy = layers.busy.get("criteria.block_sum_S", 0.0) + layers.busy.get(
        "criteria.quasi_split_sum_ladder", 0.0)
    values["criteria.series.s_per_term"] = series_busy / terms if terms else 0.0
    values["criteria.bisect.f_evals"] = layers.f_evals
    values["report.bytes_out"] = sum(len(o.stdout.encode()) for o in outcomes if o.op["kind"] == "cli")
    values["machine.calib_s"] = statistics.median(calib)
    values["trace.overhead_s"] = traced_wall - wall
    values["trace.handler_share"] = share
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}, stats, mismatches == 0


# ---------------------------------------------------------------------------
# entry point


def environment(workload: str, seed: int, seconds: int, trace: int, n_ops: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    nproc = len(os.sched_getaffinity(0))
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "operations": n_ops,
        "git_sha": sha, "python": platform.python_version(),
        "mpmath_backend": checks.mpmath.libmp.BACKEND, "numpy": metadata.version("numpy"),
        "nproc": nproc,
        "blas_threads": int(blas) if blas else f"numpy default ({nproc})",
        "load": "closed loop, 1 client",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qclassfun" / "cli.py").is_file():
        print(f"error: no qclassfun sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)

    # Traced runs execute each operation twice, so they take half the operations.
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops = workloads.build(args.workload, args.seed, seconds)
    print(json.dumps({"environment": environment(args.workload, args.seed, args.seconds,
                                                 args.trace, len(ops))}, sort_keys=True))
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work)
        if args.trace:
            metrics, stats, identical = traced(runner, args.workload, ops)
        else:
            metrics, stats = end_to_end(runner, args.workload, ops)
            identical = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    print(json.dumps({"defects": stats["defects"], "series_ops": stats["series_ops"],
                      "undetermined": stats["undetermined"]}, sort_keys=True))
    print(json.dumps({
        "correct": identical and stats["unexpected"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
