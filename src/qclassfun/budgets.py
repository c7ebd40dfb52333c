"""Precision, term and size budgets shared by the library and the CLI.

This module imports nothing, so the CLI reads the budgets of its flags
without loading the modules (and mpmath) that enforce them.  Each value is
defined here once; ``intervals``, ``criteria`` and ``spectral`` re-export
the ones they enforce.
"""

#: Working precision, in bits, of a call that names none.
DEFAULT_BITS = 128

#: Largest working precision: an interval context outside ``1..MAX_BITS``
#: is a domain error, and precision escalation stops at it.
MAX_BITS = 1024

#: Budget of a rational given as text: digits in all, an exponent e-n counting
#: as n.  On a 2-vCPU VM, 24 digits (1e-23) keep one call under 0.1 s at the
#: default counts, and `dims --max 400`, `--word-len 12` and `series --n-max 1000` under 5 s.
MAX_RATIONAL_DIGITS = 24

#: Term budget of a certified series.
DEFAULT_MAX_TERMS = 10_000

#: Largest matrix size accepted by the Sturm-count model.  On a 2-vCPU VM
#: `jacobi --M 768` takes at most 1.6 s of CPU over the q scanned, the
#: slowest near ``q = 1 - 0.64/M``; 832 took 1.9 s and 896 took 2.2 s.
MAX_COMMUTANT_SIZE = 768

#: Most decimal digits a `dims` table's classical dimensions may have: an
#: int past Python's default int -> str limit (4300 digits) cannot be
#: printed.  A lower limit in force (``PYTHONINTMAXSTRDIGITS``) lowers it.
MAX_DIM_DIGITS = 4300
