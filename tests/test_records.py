"""The package's records: plain slotted classes on :class:`errors.Record`.

They compare, hash and print as frozen dataclasses did, keep their
defaults, and refuse the same invalid fields with the same errors.
"""

from fractions import Fraction

import pytest

from qclassfun import bicrossed, criteria, dyadic, fusion, report, spectral
from qclassfun.errors import DomainError, Record

ENCLOSURE = dyadic.Enclosure((3, -2), (1, 0), 53)
SERIES = criteria.SeriesResult(criteria.Verdict.CONVERGES, ENCLOSURE,
                               dyadic.Enclosure((0, 0), (1, -10), 53), 12)

#: One builder per record class; each call builds a new, equal record.
BUILDERS = {
    "Enclosure": lambda: dyadic.Enclosure((3, -2), (1, 0), 53),
    "FusionFamily": lambda: fusion.su2_ladder(2, q="1/3"),
    "SeriesResult": lambda: criteria.SeriesResult(
        criteria.Verdict.CONVERGES, ENCLOSURE, dyadic.Enclosure((0, 0), (1, -10), 53), 12),
    "MasaVerdict": lambda: criteria.MasaVerdict(criteria.QuasiSplit.YES, True, "x", SERIES),
    "JacobiOperator": lambda: spectral.build_jacobi(3, "1/2"),
    "RatioRational": lambda: bicrossed.RatioRational("2/3"),
    "RatioIrrational": lambda: bicrossed.RatioIrrational("note"),
    "BicrossedParams": lambda: bicrossed.BicrossedParams("1/3", bicrossed.RatioIrrational()),
    "ScalingTime": lambda: bicrossed.ScalingTime(1, "1/2"),
    "CenterDescription": lambda: bicrossed.CenterDescription(False, Fraction(3)),
    "FactorReport": lambda: bicrossed.FactorReport(True, "x"),
    "Report": lambda: report.Report("demo", {"x": 1}),
}
FROZEN = sorted(set(BUILDERS) - {"Report"})


def test_every_record_class_has_a_builder():
    modules = (bicrossed, criteria, dyadic, fusion, report, spectral)
    classes = {name for module in modules for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, Record) and value is not Record}
    assert classes == set(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_fields_compare_equal_and_the_fields_are_the_slots(name):
    first, second = BUILDERS[name](), BUILDERS[name]()
    assert type(first).__name__ == name and first is not second
    assert first == second and not first != second
    assert not hasattr(first, "__dict__")
    assert type(first).__slots__ == tuple(type(first).__init__.__code__.co_varnames[
        1:1 + len(type(first).__slots__)])


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_their_fields_and_refuse_assignment(name):
    record = BUILDERS[name]()
    assert hash(record) == hash(BUILDERS[name]())
    assert len({record, BUILDERS[name]()}) == 1
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError, match=field):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=field):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == BUILDERS[name]()


def test_report_is_mutable_and_unhashable():
    record = report.Report("demo")
    record.command = "other"
    record.meta["bits"] = 64
    assert record == report.Report("other", {}, {}, {"bits": 64})
    with pytest.raises(TypeError):
        hash(record)


def test_a_record_never_equals_another_classes_record():
    records = [build() for build in BUILDERS.values()]
    for i, first in enumerate(records):
        for second in records[i + 1:]:
            assert first != second and second != first
    # the same field values in another class
    center = bicrossed.CenterDescription(Fraction(1), Fraction(2))
    time = bicrossed.ScalingTime(1, 2)
    assert center._values() == time._values()
    assert center != time and time != center


def test_fields_differ_so_records_differ():
    assert ENCLOSURE != dyadic.Enclosure((3, -2), (1, 0), 54)
    assert bicrossed.ScalingTime(1, 2) != bicrossed.ScalingTime(2, 1)
    assert report.Report("demo") != report.Report("demo", {"x": 1})


def test_reprs_keep_the_dataclass_format():
    assert repr(ENCLOSURE) == "Enclosure(lo=(3, -2), hi=(1, 0), bits=53)"
    assert repr(fusion.su2_ladder(2, q="1/3")) == (
        "FusionFamily(kind=<FamilyKind.SU2_LADDER: 'su2-ladder'>, dim_c_fund=2, "
        "dim_q_fund=Fraction(10, 3))")
    assert repr(SERIES) == (
        "SeriesResult(verdict=<Verdict.CONVERGES: 'converges'>, "
        "partial_sum=Enclosure(lo=(3, -2), hi=(1, 0), bits=53), "
        "tail_bound=Enclosure(lo=(0, 0), hi=(1, -10), bits=53), terms_used=12)")
    assert repr(criteria.SeriesResult(criteria.Verdict.DIVERGES)) == (
        "SeriesResult(verdict=<Verdict.DIVERGES: 'diverges'>, partial_sum=None, "
        "tail_bound=None, terms_used=0)")
    assert repr(bicrossed.ScalingTime(1, "1/2")) == (
        "ScalingTime(r=Fraction(1, 1), s=Fraction(1, 2))")
    assert repr(report.Report("demo")) == (
        "Report(command='demo', inputs={}, results={}, meta={})")


def test_defaults():
    assert bicrossed.RatioIrrational() == bicrossed.RatioIrrational(nu_note=None)
    assert bicrossed.RatioIrrational().nu_note is None
    factor = bicrossed.FactorReport(False, "x")
    assert (factor.coamenable, factor.injective) == (True, True)
    assert bicrossed.CenterDescription(True).generator is None
    result = criteria.SeriesResult(criteria.Verdict.UNDETERMINED)
    assert (result.partial_sum, result.tail_bound, result.terms_used) == (None, None, 0)
    verdict = criteria.MasaVerdict(criteria.QuasiSplit.UNDETERMINED, False, "x", result)
    assert verdict.block_sum is None
    first, second = report.Report("a"), report.Report("b")
    assert first.inputs == first.results == first.meta == {}
    assert first.inputs is not second.inputs and first.meta is not first.results


def test_keywords_bind_the_named_fields():
    assert dyadic.Enclosure(bits=53, hi=(1, 0), lo=(3, -2)) == ENCLOSURE
    assert criteria.SeriesResult(criteria.Verdict.CONVERGES, terms_used=12,
                                 tail_bound=SERIES.tail_bound, partial_sum=ENCLOSURE) == SERIES
    assert report.Report("demo", meta={"bits": 8}).meta == {"bits": 8}


def test_exact_fields_are_normalised_and_floats_refused():
    time = bicrossed.ScalingTime(1, "1/2")
    assert type(time.r) is Fraction and time.s == Fraction(1, 2)
    assert bicrossed.RatioRational("4/6").ratio == Fraction(2, 3)
    assert bicrossed.BicrossedParams("-1/2", bicrossed.RatioIrrational()).q == Fraction(-1, 2)
    with pytest.raises(TypeError):
        bicrossed.ScalingTime(0.5, 0)
    with pytest.raises(TypeError):
        bicrossed.BicrossedParams(0.5, bicrossed.RatioIrrational())


@pytest.mark.parametrize("build, message", [
    (lambda: bicrossed.RatioRational(0), "the rational ratio must be nonzero"),
    (lambda: bicrossed.BicrossedParams(0, bicrossed.RatioIrrational()),
     "q must lie in \\(-1, 1\\) and be nonzero, got 0"),
    (lambda: bicrossed.BicrossedParams(1, bicrossed.RatioIrrational()),
     "q must lie in \\(-1, 1\\) and be nonzero, got 1"),
    (lambda: bicrossed.BicrossedParams("-3/2", bicrossed.RatioIrrational()),
     "q must lie in \\(-1, 1\\) and be nonzero, got -3/2"),
    (lambda: fusion.FusionFamily(fusion.FamilyKind.SU2_LADDER, 1, Fraction(3)),
     "fundamental dimension must be >= 2, got 1"),
    (lambda: fusion.FusionFamily(fusion.FamilyKind.SU2_LADDER, 3, Fraction(5, 2)),
     "quantum dimension 5/2 may not fall below the classical dimension 3"),
    (lambda: spectral.JacobiOperator(1, ()), "need size >= 2, got 1"),
    (lambda: spectral.JacobiOperator(3, (Fraction(1, 2),)), "off-diagonal length must be size - 1"),
    (lambda: spectral.JacobiOperator(3, (Fraction(1, 2), Fraction(0))),
     "off-diagonal entries must be strictly positive"),
])
def test_invalid_fields_raise_the_same_domain_errors(build, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        build()
