"""Value semantics of the package's record classes: equality, hashing, immutability."""

import copy
import pickle

import pytest

from affrep.affcount import AffElem, CountRecord
from affrep.cli import Report
from affrep.exactpoly import ONE, Q, IntPoly
from affrep.finitefield import FieldOrder, make_field
from affrep.interpolate import EPolyResult


# each maker builds a fresh object from equal fields on every call; the
# field named beside it is one the test tries to assign
FROZEN = {
    "IntPoly": (lambda: IntPoly([1, 2]), "coeffs"),
    "FieldSpec": (lambda: make_field(3, 2), "p"),
    "FieldOrder": (lambda: FieldOrder(3, 2), "n"),
    "FqElem": (lambda: make_field(3, 2).from_int(5), "coeffs"),
    "AffElem": (lambda: AffElem(make_field(5, 1).from_int(2), make_field(5, 1).one()), "b"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_equal_fields_give_equal_objects_and_hashes(name):
    make, _ = FROZEN[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_cannot_be_assigned(name):
    make, field = FROZEN[name]
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", FROZEN)
def test_copies_and_pickles_are_equal(name):
    make, _ = FROZEN[name]
    obj = make()
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert clone == obj and hash(clone) == hash(obj)


@pytest.mark.parametrize("name", FROZEN)
def test_every_field_counts_in_equality(name):
    make, _ = FROZEN[name]
    obj = make()
    for field in type(obj).__slots__:
        changed = copy.copy(obj)
        object.__setattr__(changed, field, object())
        assert changed != obj and not changed == obj, field


def test_examples():
    assert len({make_field(3, 2), make_field(3, 2)}) == 1
    assert IntPoly([1, 2]) == IntPoly([1, 2, 0])
    assert hash(IntPoly([1, 2])) == hash(IntPoly([1, 2, 0]))
    assert IntPoly([1, 2]) != IntPoly([1, 3])
    assert make_field(3, 2) != make_field(3, 2, modulus=(2, 2, 1))
    assert make_field(3, 2).from_int(5) != make_field(3, 2).from_int(4)
    assert IntPoly([1]) != 1


def test_count_record_is_mutable_with_value_equality():
    rec = CountRecord(3, 1, 3, 1, 18, "semi", 0.5)
    assert rec == CountRecord(3, 1, 3, 1, 18, "semi", 0.5)
    assert copy.deepcopy(rec) == pickle.loads(pickle.dumps(rec)) == rec
    rec.engine = "naive"
    assert rec.engine == "naive"
    assert rec != CountRecord(3, 1, 3, 1, 18, "semi", 0.5)
    with pytest.raises(TypeError):
        hash(rec)


def test_report_is_mutable_with_value_equality():
    report = Report("count", {"genus": 1}, {"count": "18"})
    assert report == Report("count", {"genus": 1}, {"count": "18"})
    assert copy.deepcopy(report) == pickle.loads(pickle.dumps(report)) == report
    assert report.checks == [] and report.rows == []
    assert report.checks is not Report("count", {}, {}).checks
    report.checks.append({"name": "x", "pass": False, "details": ""})
    assert not report.passed
    report.rows = [{"q": 3}]
    assert report.rows == [{"q": 3}]
    assert report != Report("count", {"genus": 1}, {"count": "18"})


def test_epoly_result_value_equality():
    records = [CountRecord(2, 1, 2, 1, 4, "semi", 0.5)]
    assert EPolyResult(records, Q) == EPolyResult([CountRecord(2, 1, 2, 1, 4, "semi", 0.5)], Q)
    assert EPolyResult(records, Q) != EPolyResult(records, ONE)
    assert EPolyResult(records, Q) != EPolyResult([], Q)
