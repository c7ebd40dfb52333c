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

#: Term budget of a certified series.
DEFAULT_MAX_TERMS = 10_000

#: Largest matrix size accepted by the Sturm-count model.  On a 2-vCPU VM
#: `jacobi --M 768` takes at most 1.6 s of CPU over the q scanned, the
#: slowest near ``q = 1 - 0.64/M``; 832 took 1.9 s and 896 took 2.2 s.
MAX_COMMUTANT_SIZE = 768

#: Most decimal digits a `dims` table's classical dimensions may have: an
#: int past Python's default int -> str limit (4300 digits) cannot be printed.
MAX_DIM_DIGITS = 4300
