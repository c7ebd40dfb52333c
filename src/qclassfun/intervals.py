"""Names of the former interval bridge that the benchmark harness binds.

The package computes on ints and loads no mpmath.  ``perfbench/sweep.py``
and ``perfbench/traced.py`` still bind ``DEFAULT_BITS``, ``MAX_BITS``,
``to_decimal_pair`` and :func:`precision` here by name, so this module keeps
them, as re-exports and one check, and goes with ROADMAP direction 3.
"""

from contextlib import contextmanager

from . import dyadic
from .budgets import DEFAULT_BITS, MAX_BITS
from .dyadic import to_decimal_pair


@contextmanager
def precision(bits: int = DEFAULT_BITS):
    """Check `bits` with :func:`dyadic.check_count` and compute nothing: it
    stays only for the harness, which counts the scopes it enters."""
    dyadic.check_count(bits, "bits", 1, MAX_BITS)
    yield
