import pytest
from hypothesis import HealthCheck, settings
from mpmath.ctx_iv import ivmpf

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

#: The arithmetic operators of an mpmath interval.  Given an interval of
#: another context, each converts it to its own left operand's precision.
_INTERVAL_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__pow__", "__rpow__")


@pytest.fixture(autouse=True)
def no_mixed_interval_contexts(monkeypatch):
    """Fail every test in which two intervals of different contexts meet in
    one operation: mpmath would silently round the other operand to the
    precision of the first."""
    for name in _INTERVAL_OPERATORS:
        operator = getattr(ivmpf, name)

        def guarded(s, t, operator=operator, name=name):
            if isinstance(t, ivmpf) and t.ctx is not s.ctx:
                raise AssertionError(f"{name} mixes interval contexts at {s.ctx.prec} "
                                     f"and {t.ctx.prec} bits")
            return operator(s, t)

        monkeypatch.setattr(ivmpf, name, guarded)
