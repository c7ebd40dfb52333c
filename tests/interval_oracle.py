"""The tests' reading of an mpmath interval as an Enclosure.

mpmath's interval arithmetic is the tests' independent oracle, and the
package computes on ints, so an oracle interval is compared with a result
through its exact endpoints, here an :class:`~qclassfun.dyadic.Enclosure`
at the precision of its context.  An Enclosure has no unbounded end, so an
infinite or NaN endpoint is refused.
"""

from __future__ import annotations

from mpmath.ctx_iv import ivmpf

from qclassfun.dyadic import Dyadic, Enclosure


def to_enclosure(x: ivmpf) -> Enclosure:
    """`x` with its exact endpoints, at the precision of its context."""
    return Enclosure(_endpoint(x._mpi_[0]), _endpoint(x._mpi_[1]), x.ctx.prec)


def _endpoint(raw: tuple) -> Dyadic:
    """Exact value ``(m, e)``, ``m·2^e``, of a raw mpf endpoint."""
    sign, man, exp, bc = raw
    if bc < 0:
        raise ValueError("an Enclosure has no infinite or NaN end")
    return int(-man if sign else man), exp
