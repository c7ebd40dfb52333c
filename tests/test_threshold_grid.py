"""Certified thresholds against an independent root: a frozen grid, a forced
fallback and the independence of the result from call history.

`threshold_grid.json` holds, for the dimension-2 and remark thresholds at
tol 1e-4, 1e-10, 1e-18, 1e-30 and 1e-60 and starting bits 16, 32, 128 and
256, the exact endpoints of the bracket as it was when the grid was
recorded.  A change to the threshold search must give, for every case, a
bracket that meets the recorded one, is at most tol wide and contains the
root that ``mpmath.findroot`` finds at 80 digits from the closed forms.  The
fixture is regenerated (only for an intended change, explained in
CHANGES.md) with

    PYTHONPATH=src python tests/test_threshold_grid.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest

from qclassfun import criteria, dyadic
from qclassfun.criteria import threshold_dim2, threshold_remark

FIXTURE = Path(__file__).resolve().parent / "threshold_grid.json"
THRESHOLDS = {"dim2": threshold_dim2, "remark": threshold_remark}
TOLS = ["1e-4", "1e-10", "1e-18", "1e-30", "1e-60"]
BITS = [16, 32, 128, 256]
CASES = [f"{which} tol={tol} bits={bits}" for which in THRESHOLDS for tol in TOLS for bits in BITS]


def _bracket(name: str) -> tuple[Fraction, Fraction]:
    which, tol, bits = (part.split("=")[-1] for part in name.split())
    return dyadic.exact_endpoints(THRESHOLDS[which](Fraction(tol), bits=int(bits)))


@lru_cache(maxsize=None)
def _root(which: str) -> Fraction:
    """The crossing by ``mpmath.findroot`` at 80 digits, as an exact rational."""
    with mpmath.workdps(80):
        if which == "dim2":
            def f(q):
                s = mpmath.sqrt(q)
                return s * (2 - s) / (mpmath.sqrt(1 + q * q) * (1 - s) ** 2) - 1
            root = mpmath.findroot(f, mpmath.mpf("0.086"))
        else:
            def f(x):
                return mpmath.sqrt(2 / (x + 1 / x)) + mpmath.sqrt(3 / (x * x + 1 + x**-2)) - 1
            root = mpmath.findroot(f, mpmath.mpf("0.2134"))
    man, exp = root.man_exp
    return Fraction(man) * Fraction(2) ** exp


def test_grid_has_40_cases():
    assert len(CASES) == 40
    assert sorted(json.loads(FIXTURE.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_bracket_meets_the_recorded_one_and_holds_the_root(name):
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    lo, hi = _bracket(name)
    assert lo <= Fraction(recorded["hi"]) and Fraction(recorded["lo"]) <= hi
    assert hi - lo <= Fraction(name.split()[1].split("=")[1])
    assert lo <= _root(name.split()[0]) <= hi


@pytest.fixture
def sign_checks(monkeypatch) -> list:
    """The points at which the sign of f - 1 gets certified, in order."""
    points = []
    below_one = criteria._below_one

    def counted(f, x, bits):
        points.append(x)
        return below_one(f, x, bits)

    monkeypatch.setattr(criteria, "_below_one", counted)
    return points


@pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 10**30)])
@pytest.mark.parametrize("wrong", [Fraction(1, 100), Fraction(3, 10), Fraction(1, 2), Fraction(5)])
@pytest.mark.parametrize("which", sorted(THRESHOLDS))
def test_a_wrong_estimate_falls_back_to_a_certified_bracket(monkeypatch, sign_checks, which,
                                                            wrong, tol):
    monkeypatch.setattr(criteria, "_estimate", lambda which, tol: wrong.as_integer_ratio())
    lo, hi = dyadic.exact_endpoints(THRESHOLDS[which](tol))
    assert hi - lo <= tol
    assert lo <= _root(which) <= hi
    assert len(sign_checks) > 4  # the bracket came from bisection


@pytest.mark.parametrize("tol", ["1e-4", "1e-13", "1e-15", "1e-18", "1e-30", "1e-60"])
@pytest.mark.parametrize("which", sorted(THRESHOLDS))
def test_the_estimate_is_verified_by_two_sign_checks(sign_checks, which, tol):
    lo, hi = dyadic.exact_endpoints(THRESHOLDS[which](Fraction(tol)))
    assert len(sign_checks) == 2
    assert lo <= _root(which) <= hi


@pytest.mark.parametrize("tol,refined", [("1e-4", False), ("1e-13", False), ("1e-15", False),
                                         ("1e-30", True), ("1e-60", True)])
@pytest.mark.parametrize("which", sorted(THRESHOLDS))
def test_the_cached_estimate_is_refined_only_past_its_last_step(monkeypatch, which, tol,
                                                                refined):
    # the cached 64-bit estimate's last step is 2^-72.0 (dim2) or 2^-62.4
    # (remark): within tol/16 down to tol 1e-15, so secant steps run only
    # for the smaller tolerances
    criteria._coarse_estimate(which)
    calls = []
    secant = criteria._secant

    def counted(*args):
        calls.append(args)
        return secant(*args)

    monkeypatch.setattr(criteria, "_secant", counted)
    lo, hi = dyadic.exact_endpoints(THRESHOLDS[which](Fraction(tol)))
    assert len(calls) == refined
    assert lo <= _root(which) <= hi


@pytest.mark.parametrize("tol", [Fraction(1, 10**4), Fraction(1, 10**15), Fraction(1, 10**30)])
@pytest.mark.parametrize("which", sorted(THRESHOLDS))
def test_a_threshold_call_builds_and_hashes_no_fraction(monkeypatch, which, tol):
    # the estimate, the certificate's cache key and the bracket are int pairs;
    # the caches are filled first, and a Fraction tol is read as it is
    THRESHOLDS[which](tol)
    built, hashed = [], []
    new, hash_ = Fraction.__new__, Fraction.__hash__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def counted_hash(self):
        hashed.append(self)
        return hash_(self)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    THRESHOLDS[which](tol)
    assert built == [] and hashed == []


def _bytes(which: str, tol: str, bits: int) -> str:
    enclosure = THRESHOLDS[which](Fraction(tol), bits=bits)
    return "{} {} {}".format(*dyadic.exact_endpoints(enclosure), enclosure.bits)


REPEATS = [(which, tol, bits) for which in sorted(THRESHOLDS)
           for tol, bits in (("1e-6", 16), ("1e-18", 32), ("1e-30", 128), ("3e-45", 256))]


def test_same_arguments_give_the_same_bytes_in_a_fresh_process():
    code = ("import json, sys\n"
            "from test_threshold_grid import _bytes\n"
            "print(json.dumps([_bytes(*case) for case in json.load(sys.stdin)]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(criteria.__file__).parents[1]),
                                                      str(FIXTURE.parent), env.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-c", code], input=json.dumps(REPEATS),
                           capture_output=True, text=True, env=env, timeout=300, check=True)
    assert json.loads(fresh.stdout) == [_bytes(*case) for case in REPEATS]


def test_same_arguments_give_the_same_bytes_after_other_tolerances():
    criteria._coarse_estimate.cache_clear()
    first = [_bytes(*case) for case in REPEATS]
    for which in THRESHOLDS:
        for tol in ("1", "1e-3", "7e-13", "1e-60"):
            _bytes(which, tol, 64)
    assert [_bytes(*case) for case in reversed(REPEATS)] == first[::-1]


def test_same_arguments_give_the_same_bytes_from_threads_at_different_bits():
    # four threads switching every 10 us, each at its own starting bits,
    # while the cached estimate, certificates and doublings are filled for
    # the first time
    bits = (16, 32, 128, 256)

    def run(bits):
        return [_bytes(which, tol, bits) for which in sorted(THRESHOLDS)
                for tol in ("1e-6", "1e-18", "1e-30")]

    expected = [run(b) for b in bits]
    for cache in (criteria._coarse_estimate, criteria._certify_increasing, criteria._doublings):
        cache.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(bits)) as pool:
            got = list(pool.map(run, bits, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


if __name__ == "__main__":
    records = {}
    for name in CASES:
        lo, hi = _bracket(name)
        records[name] = {"lo": str(lo), "hi": str(hi)}
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
