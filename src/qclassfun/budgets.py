"""Precision, term and size budgets shared by the library and the CLI.

This module imports nothing, so the CLI reads the budgets of its flags
without loading the modules that enforce them.  Each value is defined here
once; ``intervals``, ``criteria``, ``fusion`` and ``spectral`` re-export the
ones they enforce or the benchmark harness reads.
"""

#: Working precision, in bits, of a call that names none.
DEFAULT_BITS = 128

#: Largest working precision: a bit count outside ``1..MAX_BITS`` is a
#: domain error, and precision escalation stops at it.
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

#: Budget of `spectral`: the root sum of squares of the bits of the norm's
#: power, about ``|4b+1| n log2(1/q)``, and of the n+1 exact eigenvalues
#: ``q^(n-2k) = r^(n-2k)/p^(n-2k)`` for ``q = p/r``, ``|n-2k| log2(r)`` bits
#: each, which are stepped, rounded and printed.  On a 2-vCPU VM the runs at
#: the budget take at most about 2.1 s of CPU, the slowest with `--t` and a
#: non-integer `4b` at `--bits 1024`, where a cosine and a sine are summed
#: for each of the 2,501 angles; `--rho-ladder 5000 --q 1/5 --b=1/4` takes
#: 0.45 s.
MAX_POWER_BITS = 2**19

#: Budget of the `series` scan of a ladder family: its largest exact dimension
#: has about ``n_max * log10(a)`` digits for ``dim_q = a/b`` (``a >= N``).  On a
#: 2-vCPU VM 200,000 digits took 0.9 s and 105 MB, 1,000,000 digits 11 s.
MAX_SCAN_DIGITS = 200_000

#: Budget of one table of exact dimensions in the library: the sum over its
#: labels of label length times ``log10(a)`` for ``dim_q = a/b``, about the
#: digits of its quantum dimensions.  It admits the largest table the CLI
#: asks for, `series --n-max 1000` at the scan budget: 500,500 x 200 =
#: 100,100,000 digits, 0.4 s of CPU and 99 MB.  On a 2-vCPU VM, at the budget
#: `kac_part` of ``su2_ladder(3, q=1/5)`` (n = 11,947) took 1.9 s of CPU and
#: 101 MB peak RSS, and `verify_decay` 6.7 s; where ``b^n`` and the classical
#: dimensions hold as many digits again (c = b = 10^12, a = 10^24 + 1,
#: n = 2,900), 6.6 s and 24 s at 123 MB.
MAX_TABLE_DIGITS = 101_000_000
