"""Seeded operation lists for the four benchmark workloads.

Every workload is a closed loop with one client, so an operation list is all
a run needs.  A list is built from *rounds*: each round visits a fixed set of
slots (one per command shape) and draws the slot's parameters from a narrow
seeded range.  The slots keep the work per round nearly the same for every
seed, so run-to-run spread reflects the program and the host, not the draw.
The number of rounds follows from ``--seconds`` and each workload's nominal
round cost, never from a clock, so a seed always yields the same operations.

An operation is a dict:

* ``kind``: ``"cli"`` (one ``python -m qclassfun.cli`` process) or ``"lib"``
  (one library call inside the single ``sweep`` process);
* ``argv`` (cli) or ``call``/``args`` (lib);
* ``expect_exit``: the exit code a correct program gives (cli only);
* ``defect``: the known defect the input shows today, or ``None``;
* ``timeout``: seconds before the process is killed (cli only).
"""

from __future__ import annotations

import math
import random

CLI_TIMEOUT_S = 3.0
LONG_TIMEOUT_S = 60.0

#: Known defects, by tag.  Inputs that show one stay in the workloads and
#: count as failed until a later change fixes the program.
DEFECTS = {
    "endpoint-53bit": "intervals.lower/upper convert endpoints through 53-bit "
                      "round-to-nearest mpf, so sub-1e-16 thresholds raise "
                      "BudgetError and sum_enclosure() can lose its lower endpoint",
    "traceback": "unvalidated input reaches library code and the CLI prints a traceback",
    "hang": "--bits <= 0 never exceeds MAX_BITS when doubled, so escalation loops forever",
    "krylov-rank": "krylov_rank takes the numeric rank of the monomial Krylov matrix, whose "
                   "conditioning grows exponentially, so M >= ~20 reports a rank below M",
    "numpy-repr": "jacobi prints repr() of numpy float64 values, which numpy 2 renders "
                  "as np.float64(...) instead of a number",
}

#: Nominal seconds per round on the reference host (2 cores, CPython 3.11,
#: mpmath 1.3 pure-Python backend), used only to turn --seconds into rounds.
ROUND_COST_S = {"cli-mix": 5.2, "series-deep": 8.8, "sweep": 0.3, "exact-grid": 9.4}
#: Nominal seconds of the once-per-run known-defect operations.
FIXED_COST_S = {"cli-mix": 4.0, "series-deep": 0.3, "sweep": 0.6, "exact-grid": 0.0}


def _coprime(k: int, den: int) -> int:
    while math.gcd(k, den) != 1:
        k += 1
    return k


def _dec(x: float, places: int = 4) -> str:
    """Decimal near x whose reduced denominator is exactly 10**places.

    The exact rational recursions cost more for longer denominators, so a
    fixed denominator keeps the cost of an operation independent of the draw.
    """
    return f"{_coprime(round(x * 10**places), 10) / 10**places:.{places}f}"


def _ratio(rng: random.Random, lo: int, hi: int, den: int) -> str:
    """A rational k/den with k drawn from [lo, hi] and the fraction irreducible."""
    return f"{_coprime(rng.randint(lo, hi), den)}/{den}"


def _cli(argv, expect_exit=0, defect=None, timeout=CLI_TIMEOUT_S) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv], "expect_exit": expect_exit,
            "defect": defect, "timeout": timeout}


def _lib(call: str, defect=None, **args) -> dict:
    return {"kind": "lib", "call": call, "args": args, "defect": defect}


# ---------------------------------------------------------------------------
# cli-mix: README examples with seeded variations, plus malformed argv


MALFORMED = (
    ["dims", "--family", "o-plus", "--qq", "0.2"],                      # missing --N
    ["series", "--family", "o-plus", "--N", "3", "--qq", "0.2", "--dimq", "4"],
    ["dims", "--family", "u-plus", "--dim", "2", "--qq", "x/y"],
    ["threshold", "--tol", "1e-4"],                                     # missing --which
    ["spectral", "--q", "0.5"],                                         # missing --rho-ladder
    ["bicrossed", "--q", "1/2", "--mode", "rational"],                  # missing --ratio
    ["series", "--family", "o-plus", "--N", "3", "--qq", "0.2", "--format", "csv"],
    ["frobnicate"],
    ["series", "--family", "so3", "--N", "3", "--qq", "0.5"],           # so3 takes --dimq
    ["dims", "--family", "sp4", "--N", "3"],
)


def _cli_mix_round(rng: random.Random, r: int, rounds: int) -> list[dict]:
    n = rng.randint(2, 5)
    ops = [
        _cli(["dims", "--family", "o-plus", "--N", rng.randint(3, 5),
              "--qq", _dec(rng.uniform(0.1, 0.2)), "--max", rng.randint(8, 14)]),
        _cli(["dims", "--family", "u-plus", "--dim", 2, "--qq", _dec(rng.uniform(0.05, 0.15)),
              "--word-len", 4, "--format", "csv"]),
        _cli(["dims", "--family", "so3", "--N", rng.randint(4, 6), "--dimq",
              _ratio(rng, 601, 800, 100), "--max", 10]),
        _cli(["series", "--family", "o-plus", "--N", rng.randint(3, 4),
              "--qq", _dec(rng.uniform(0.15, 0.25))]),
        _cli(["series", "--family", "u-plus", "--dim", 2, "--qq", _dec(rng.uniform(0.2, 0.24))]),
        _cli(["series", "--family", "u-plus", "--dim", 3, "--qq", _dec(rng.uniform(0.05, 0.1))]),
        _cli(["threshold", "--which", "dim2", "--tol", f"{rng.randint(1, 9)}e-{rng.randint(4, 8)}"]),
        _cli(["threshold", "--which", "ratio3"]),
        _cli(["threshold", "--which", "remark", "--tol", f"{rng.randint(1, 9)}e-{rng.randint(4, 8)}"]),
        _cli(["moments", "--family", "so3", "--N", rng.randint(3, 6), "--k-max", 8]),
        _cli(["moments", "--family", "o-plus", "--N", rng.randint(2, 5), "--k-max", rng.randint(8, 10)]),
        _cli(["spectral", "--rho-ladder", n, "--q", f"1/{rng.randint(2, 5)}",
              "--b=" + rng.choice(["-1/4", "0", "1/4", "-1/2"])]),
        _cli(["spectral", "--rho-ladder", n, "--q", f"1/{rng.randint(2, 5)}", "--t", "1/3"]),
        _cli(["jacobi", "--M", rng.randint(6, 12), "--q", f"{rng.randint(3, 7)}/10"]),
        _cli(["bicrossed", "--q", f"1/{rng.randint(2, 9)}", "--mode", "irrational",
              "--t", "0,1", "--t", f"{rng.randint(1, 7)}/3,2"]),
        _cli(["bicrossed", f"--q=-1/{rng.randint(2, 9)}", "--mode", "rational",
              "--ratio", f"{rng.randint(1, 5)}/{rng.randint(2, 7)}", "--t", f"1,{rng.randint(0, 3)}"]),
    ]
    # Two malformed invocations per round, walking the list so every one is used.
    ops.append(_cli(MALFORMED[(2 * r) % len(MALFORMED)], expect_exit=2))
    ops.append(_cli(MALFORMED[(2 * r + 1) % len(MALFORMED)], expect_exit=2))
    return ops


def _cli_mix_fixed(rng: random.Random) -> list[dict]:
    return [
        _cli(["threshold", "--which", rng.choice(["dim2", "remark"]),
              "--tol", f"{rng.randint(1, 9)}e-{rng.randint(17, 20)}"], defect="endpoint-53bit"),
        _cli(["series", "--family", "o-plus", "--N", 3, "--qq", "0.2", "--tol", "abc"],
             expect_exit=2, defect="traceback"),
        _cli(["series", "--family", "so3", "--N", 2, "--dimq", rng.choice(["5/2", "3", "4"])],
             expect_exit=2, defect="traceback"),
        _cli(["dims", "--family", "o-plus", "--N", 3, "--qq", "0.2", "--bits", -5],
             expect_exit=2, defect="hang"),
    ]


# ---------------------------------------------------------------------------
# series-deep: long certified sums at the hard end of the parameter space


def _series(argv) -> dict:
    return _cli(["series", *argv], timeout=LONG_TIMEOUT_S)


def _series_deep_round(rng: random.Random, r: int, rounds: int) -> list[dict]:
    # Costs cluster near 0.4, 0.6, 0.8, 1.3 and 2 s.  The three like u-plus
    # calls form the cluster that holds the median and the tail percentile,
    # so these order statistics do not jump between operation kinds.
    j = lambda centre, spread=0.004: _dec(centre + rng.uniform(-spread, spread))  # noqa: E731
    return [
        _series(["--family", "o-plus", "--N", 2, "--qq", j(0.62)]),
        _series(["--family", "o-plus", "--N", 2, "--qq", j(0.70)]),
        _series(["--family", "o-plus", "--N", 2, "--qq", j(0.78)]),
        _series(["--family", "u-plus", "--dim", 2, "--qq", j(0.70)]),
        _series(["--family", "u-plus", "--dim", 2, "--qq", j(0.70)]),
        _series(["--family", "u-plus", "--dim", 2, "--qq", j(0.70)]),
        _series(["--family", "u-plus", "--dim", 2, "--qq", j(0.80)]),
        _series(["--family", "so3", "--N", 3, "--dimq", _ratio(rng, 3170, 3190, 1000)]),
        _series(["--family", "so3", "--N", 4, "--dimq", _ratio(rng, 4290, 4310, 1000)]),
        # Budget-capped: the loose paper constant needs far more than 1500 terms.
        _series(["--family", "o-plus", "--N", 3, "--dimq", _ratio(rng, 3005, 3012, 1000),
                 "--max-terms", 1500]),
    ]


def _series_deep_fixed(rng: random.Random) -> list[dict]:
    return [_series(["--family", "so3", "--N", 2, "--dimq", f"{rng.randint(5, 9)}/2"])
            | {"expect_exit": 2, "defect": "traceback"}]


# ---------------------------------------------------------------------------
# sweep: many short library calls in one process


def _sweep_round(rng: random.Random, r: int, rounds: int) -> list[dict]:
    # Draws are stratified over the rounds: round r takes the r-th of
    # `rounds` equal slices of each range, so every seed covers each range
    # alike and the slowest calls, which set the tail, differ little.
    def strat(lo: float, hi: float) -> float:
        return lo + (hi - lo) * (r + rng.random()) / rounds

    ops = []
    for lo, hi in ((0.01, 0.08), (0.08, 0.16), (0.16, 0.24)):
        q = _dec(strat(lo, hi))
        ops.append(_lib("block_sum_S", q_c="1", q_q=q, tol="1e-9"))
        ops.append(_lib("bound_S_dim2", q=q))
    for n_fund in (3, 4):
        ops.append(_lib("block_sum_S", q_c=f"fund:{n_fund}", q_q=_dec(strat(0.02, 0.06)), tol="1e-9"))
    # Tolerances from 1e-4 to 1e-15; the smaller ones are the once-per-run defect inputs.
    for lo in (4, 7, 10, 13):
        tol = f"{rng.randint(1, 9)}e-{int(strat(lo, lo + 3))}"
        ops.append(_lib("threshold_dim2", tol=tol))
        ops.append(_lib("threshold_remark", tol=tol))
    ops.append(_lib("masa_verdict", kind="o-plus", N=3 + r % 3, q=_dec(strat(0.1, 0.2))))
    ops.append(_lib("masa_verdict", kind="so3", N=4 + r % 3,
                    dimq=f"{_coprime(int(strat(15, 26)), 2)}/2"))
    ops.append(_lib("masa_verdict", kind="u-plus", N=2, q=_dec(strat(0.02, 0.06))))
    return ops


def _sweep_fixed(rng: random.Random) -> list[dict]:
    return [
        _lib("threshold_dim2", tol=f"{rng.randint(1, 9)}e-{rng.randint(17, 20)}",
             defect="endpoint-53bit"),
        _lib("threshold_remark", tol=f"{rng.randint(1, 9)}e-{rng.randint(17, 20)}",
             defect="endpoint-53bit"),
        # README library tour; its sum_enclosure() loses the partial-sum lower endpoint.
        _lib("block_sum_S", q_c="1", q_q="1/20", tol="1e-8", defect="endpoint-53bit"),
    ]


# ---------------------------------------------------------------------------
# exact-grid: report plus exact fusion, enumeration and matrix commands


def _exact(argv) -> dict:
    return _cli(argv, timeout=LONG_TIMEOUT_S)


def _exact_grid_round(rng: random.Random, r: int, rounds: int) -> list[dict]:
    # Short rationals with fixed denominators keep the exact dimension
    # recursions at a cost independent of the draw.
    return [
        _exact(["report"]),
        _exact(["moments", "--family", "so3", "--N", rng.randint(3, 6), "--k-max", 10]),
        _exact(["dims", "--family", "o-plus", "--N", 4, "--qq", _ratio(rng, 11, 19, 97),
                "--max", 300]),
        _exact(["dims", "--family", "so3", "--N", 5, "--dimq", _ratio(rng, 61, 79, 10),
                "--max", 300]),
        _exact(["dims", "--family", "u-plus", "--dim", rng.randint(2, 4),
                "--qq", _ratio(rng, 11, 19, 97), "--word-len", 9]),
        _exact(["jacobi", "--M", 32, "--q", f"{rng.randint(3, 7)}/10",
                "--phase", f"{rng.randint(0, 6)}/7"]),
    ]


WORKLOADS = {
    "cli-mix": (_cli_mix_round, _cli_mix_fixed),
    "series-deep": (_series_deep_round, _series_deep_fixed),
    "sweep": (_sweep_round, _sweep_fixed),
    "exact-grid": (_exact_grid_round, lambda rng: []),
}


def rounds_for(workload: str, seconds: float) -> int:
    budget = seconds - FIXED_COST_S[workload]
    return max(1, round(budget / ROUND_COST_S[workload]))


def build(workload: str, seed: int, seconds: float) -> list[dict]:
    """The operation list of one run: same (workload, seed, seconds), same list."""
    round_fn, fixed_fn = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    ops = fixed_fn(rng)
    rounds = rounds_for(workload, seconds)
    for r in range(rounds):
        ops.extend(round_fn(rng, r, rounds))
    # Known-defect inputs sit at seeded positions, not all at the start.
    rng.shuffle(ops)
    return ops
