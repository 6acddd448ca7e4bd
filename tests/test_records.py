"""Value semantics of the package's frozen records: equality and hash by
field within one class, no assignment or deletion, construction by keyword
or position, and the repr each class printed as a frozen dataclass."""

import copy
import pickle
import pkgutil
from fractions import Fraction as F
from importlib import import_module

import pytest

import maxplus_tc as mt
from maxplus_tc import WindowMode
from maxplus_tc._record import Record

LN = mt.LambdaNuModel(lam=F(1, 10), nu=F(2))
WITNESS = mt.Witness(m=1, n=3, required=F(20), actual=F(10))
CONFIG = mt.SuiteConfig(seed=7, trials=3, max_flows=2, max_packets=10)
PROPERTY = mt.PropertyReport(name="merge_is_order_insensitive", trials=3, failures=(), elapsed=0.5)

# (class, fields in declaration order, one field changed, repr)
RECORDS = [
    (mt.Trace, dict(arrivals=(0, 5, 5), lengths=(8, 16, 8)), dict(arrivals=(0, 5, 6)),
     "Trace(arrivals=(0, 5, 5), lengths=(8, 16, 8))"),
    (mt.LambdaNuModel, dict(lam=F(1, 10), nu=F(2)), dict(nu=F(3)),
     "LambdaNuModel(lam=Fraction(1, 10), nu=Fraction(2, 1))"),
    (mt.TSpecModel, dict(tau=F(5, 2), k_max=3, window_mode=WindowMode.OPEN),
     dict(window_mode=WindowMode.CLOSED),
     "TSpecModel(tau=Fraction(5, 2), k_max=3, window_mode=<WindowMode.OPEN: 'open'>)"),
    (mt.SigmaRhoModel, dict(sigma=F(100), rho=F(21, 2)), dict(rho=F(10)),
     "SigmaRhoModel(sigma=Fraction(100, 1), rho=Fraction(21, 2))"),
    (mt.MaxPlusCurve, dict(values=(F(0), F(1, 2), F(3))), dict(values=(F(0), F(1))),
     "MaxPlusCurve(values=(Fraction(0, 1), Fraction(1, 2), Fraction(3, 1)))"),
    (mt.Witness, dict(m=1, n=3, required=F(20), actual=F(10)), dict(m=2),
     "Witness(m=1, n=3, required=Fraction(20, 1), actual=Fraction(10, 1))"),
    (mt.ConformanceReport,
     dict(witness=WITNESS, tight_pairs=((1, 2),), tight_count=1, checked_pairs=3),
     dict(tight_count=2),
     "ConformanceReport(witness=Witness(m=1, n=3, required=Fraction(20, 1), "
     "actual=Fraction(10, 1)), tight_pairs=((1, 2),), tight_count=1, checked_pairs=3)"),
    (mt.FitResult, dict(model=LN, binding_pair=(1, 3)), dict(binding_pair=None),
     "FitResult(model=LambdaNuModel(lam=Fraction(1, 10), nu=Fraction(2, 1)), "
     "binding_pair=(1, 3))"),
    (mt.SuiteConfig, dict(seed=7, trials=3, max_flows=2, max_packets=10), dict(seed=8),
     "SuiteConfig(seed=7, trials=3, max_flows=2, max_packets=10)"),
    (mt.PropertyReport,
     dict(name="merge_is_order_insensitive", trials=3, failures=(), elapsed=0.5),
     dict(elapsed=0.25),
     "PropertyReport(name='merge_is_order_insensitive', trials=3, failures=(), elapsed=0.5)"),
    (mt.SuiteSummary, dict(config=CONFIG, properties=(PROPERTY,), elapsed=1.25),
     dict(properties=()),
     "SuiteSummary(config=SuiteConfig(seed=7, trials=3, max_flows=2, max_packets=10), "
     "properties=(PropertyReport(name='merge_is_order_insensitive', trials=3, failures=(), "
     "elapsed=0.5),), elapsed=1.25)"),
    (mt.Table1Row, dict(case_id=4, direct=LN, indirect=None), dict(indirect=LN),
     "Table1Row(case_id=4, direct=LambdaNuModel(lam=Fraction(1, 10), nu=Fraction(2, 1)), "
     "indirect=None)"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields, changed, text):
    record = cls(**fields)
    assert list(fields) == list(cls.__slots__)
    assert cls(*fields.values()) == record
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())
    assert repr(record) == text


def test_records_lists_every_record_class():
    for module in pkgutil.iter_modules(mt.__path__):
        import_module(f"maxplus_tc.{module.name}")
    found, unseen = set(), [Record]
    while unseen:
        for subclass in unseen.pop().__subclasses__():
            unseen.append(subclass)
            if subclass.__module__.startswith("maxplus_tc."):  # not a test's imposter
                found.add(subclass)
    assert found == {cls for cls, *_ in RECORDS}


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=IDS)
def test_a_wrong_field_raises_naming_the_class(cls, fields, changed, text):
    values, first = tuple(fields.values()), next(iter(fields))
    wrong = [
        (values + (None,), {}),  # an extra positional
        ((), {**fields, "extra": None}),  # an unknown keyword
        (values[:-1], {"extra": values[-1]}),  # an unknown keyword in place of a field
        (values[:1], fields),  # the first field by position and by keyword
    ]
    if cls is not mt.SuiteConfig:  # whose every field has a default
        wrong.append(((), {name: fields[name] for name in fields if name != first}))
    for args, named in wrong:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\b") as raised:
            cls(*args, **named)
        if cls.__init__ is Record.__init__:
            assert f"{cls.__name__}({', '.join(fields)})" in str(raised.value)


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=IDS)
def test_a_subclass_with_empty_slots_keeps_its_parents_fields(cls, fields, changed, text):
    imposter_cls = type("Imposter", (cls,), {"__slots__": ()})
    imposter = imposter_cls(*fields.values())
    assert imposter == imposter_cls(**fields) and imposter != cls(**fields)
    assert repr(imposter) == "Imposter" + text[len(cls.__name__):]


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=IDS)
def test_equal_within_one_class_only(cls, fields, changed, text):
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(tuple(fields.values()))
    assert record != cls(**{**fields, **changed})
    assert record != tuple(fields.values())
    for other_cls, other_fields, *_ in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(**other_fields)
    # a record of another class with the same field values is not equal
    imposter = type("Imposter", (cls,), {"__slots__": ()})(**fields)
    assert record != imposter and imposter != record


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, changed, text):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_record(cls, fields, changed, text):
    record = cls(**fields)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_defaults():
    assert mt.Trace((1, 2)) == mt.Trace(arrivals=(1, 2), lengths=None)
    assert mt.TSpecModel(F(2), 3) == mt.TSpecModel(F(2), 3, WindowMode.CLOSED)
    assert mt.SuiteConfig() == mt.SuiteConfig(seed=1729, trials=200, max_flows=5, max_packets=500)
    assert mt.SuiteConfig(trials=4) == mt.SuiteConfig(1729, 4, 5, 500)


def test_report_verdict_is_the_absence_of_a_witness():
    assert mt.ConformanceReport(None, (), 0, 1).conforms
    assert not mt.ConformanceReport(WITNESS, ((1, 2),), 1, 3).conforms
