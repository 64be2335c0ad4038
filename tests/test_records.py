"""The package's immutable records against the frozen dataclasses they replaced.

Each record is compared with its oracle in ``conftest``, built from the same fields, on records the
library builds and on hypothesis-drawn fields: ``==`` and ``!=``, ``hash``, ``repr``, assignment,
``copy``, ``deepcopy`` and ``pickle``, construction by position and by keyword, and the methods.
"""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from bernring.elements import atom
from bernring.identities import (
    CoefficientIdentity,
    IdentityReport,
    IdentityTerm,
    coefficient_identity,
    verify_rademacher,
)
from bernring.partfrac import GPair, HFPair, g_pair, h_f
from bernring.polys import LATEX
from bernring.reduction import reduce_to_first_order
from bernring.selftest import GRID, CriterionResult, run_criterion

ORACLES = {
    GPair: conftest.GPair,
    HFPair: conftest.HFPair,
    IdentityTerm: conftest.IdentityTerm,
    CoefficientIdentity: conftest.CoefficientIdentity,
    IdentityReport: conftest.IdentityReport,
    CriterionResult: conftest.CriterionResult,
}

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


def names(record_class) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(ORACLES[record_class]))


def fields_of(record) -> tuple:
    return tuple(getattr(record, name) for name in names(type(record)))


def round_trip(how: str, record):
    """The copy's repr, whether it equals the record and has its class; or the exception it raised."""
    try:
        twin = ROUND_TRIPS[how](record)
    except Exception as exc:  # the oracle's outcome is the expected one, failure included
        return type(exc)
    return repr(twin), twin == record, twin.__class__ is record.__class__


def check_against_oracle(record_class, x: tuple, y: tuple) -> None:
    oracle_class = ORACLES[record_class]
    a, b, oa, ob = record_class(*x), record_class(*y), oracle_class(*x), oracle_class(*y)
    assert (a == b) == (oa == ob) and (a != b) == (oa != ob)
    assert (b == a) == (ob == oa) and (b != a) == (ob != oa)
    assert a == record_class(*x) and not a != record_class(*x)
    assert a != oa and not a == oa
    assert hash(a) == hash(oa) and hash(b) == hash(ob)
    assert repr(a) == repr(oa) and repr(b) == repr(ob)
    assert record_class(**dict(zip(names(record_class), x))) == a
    assert fields_of(a) == x
    assert not isinstance(a, tuple)
    for name in (*names(record_class), "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert fields_of(a) == x
    for how in ROUND_TRIPS:
        assert round_trip(how, a) == round_trip(how, oa)


def library_records() -> list:
    """Records the library builds, each kind at least twice so that unequal pairs occur."""
    square = atom(0, 2, 1, 0)
    ident = coefficient_identity(square, reduce_to_first_order(square), 6, provenance="square relation")
    reports = [family(*cases[0]) for family, cases in GRID.items()]
    return [
        g_pair(2, 3),
        g_pair(3, 5),
        g_pair(4, 6),
        h_f(1, 1, 2),
        h_f(2, 2, 6),
        h_f(3, 2, 4),
        *ident.lhs,
        *ident.rhs,
        ident,
        coefficient_identity(square, reduce_to_first_order(square), -1),
        *reports,
        verify_rademacher(3),
        run_criterion(1, "passes", 5.0, lambda: (True, "ok")),
        run_criterion(2, "fails", 5.0, lambda: (False, "wrong")),
        run_criterion(3, "raises", 0.5, lambda: 1 / 0),
    ]


class TestAgainstTheDataclasses:
    def test_every_record_kind_is_covered(self):
        records = library_records()
        assert {type(r) for r in records} == set(ORACLES)
        assert any(r.degenerate for r in records if type(r) is IdentityReport)

    @pytest.mark.parametrize("record_class", ORACLES, ids=lambda c: c.__name__)
    def test_fields_and_signature(self, record_class):
        assert record_class.__slots__ == names(record_class)
        got = inspect.signature(record_class).parameters.values()
        want = inspect.signature(ORACLES[record_class]).parameters.values()
        assert [(p.name, p.kind, p.default) for p in got] == [(p.name, p.kind, p.default) for p in want]

    def test_library_records(self):
        records = library_records()
        for a in records:
            for b in records:
                if type(a) is type(b):
                    check_against_oracle(type(a), fields_of(a), fields_of(b))

    def test_methods(self):
        for record in library_records():
            oracle = ORACLES[type(record)](*fields_of(record))
            if isinstance(record, IdentityTerm):
                assert record.value() == oracle.value()
            elif isinstance(record, CoefficientIdentity):
                assert (record.lhs_value(), record.rhs_value()) == (oracle.lhs_value(), oracle.rhs_value())
            elif isinstance(record, IdentityReport):
                assert record.render(LATEX) == oracle.latex and record.to_json_dict() == oracle.to_json_dict()
            elif isinstance(record, CriterionResult):
                assert record.passed == oracle.passed and record.line() == oracle.line()

    def test_degenerate_defaults_to_false(self):
        fields = ("euler", (("m", Fraction(5)),), Fraction(1, 6), Fraction(1, 6), True)
        report = IdentityReport(*fields)
        assert report.degenerate is False and report == IdentityReport(*fields, degenerate=False)
        assert repr(report) == repr(conftest.IdentityReport(*fields))
        assert report != IdentityReport(*fields, degenerate=True)

    @pytest.mark.parametrize("record_class", ORACLES, ids=lambda c: c.__name__)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_drawn_fields(self, record_class, data):
        # a small pool makes equal fields common, with 1 == True == Fraction(1) among them
        value = st.one_of(
            st.sampled_from([0, 1, True, Fraction(1), Fraction(1, 2), "", "a", (), (1, "a")]),
            st.integers(),
            st.fractions(),
            st.text(max_size=3),
        )
        x = data.draw(st.tuples(*[value] * len(names(record_class))))
        i, v = data.draw(st.integers(0, len(x) - 1)), data.draw(value)
        y = x[:i] + (v,) + x[i + 1 :]
        check_against_oracle(record_class, x, y)
        for how in ROUND_TRIPS:
            assert round_trip(how, record_class(*x))[1:] == (True, True)

    @pytest.mark.parametrize("pair", [(GPair, HFPair), (IdentityReport, CriterionResult)], ids=lambda p: p[0].__name__)
    def test_records_of_two_classes_with_equal_fields_are_unequal(self, pair):
        x = tuple(range(len(names(pair[0]))))
        (a, b), (oa, ob) = (c(*x) for c in pair), (ORACLES[c](*x) for c in pair)
        assert (a == b, a != b) == (oa == ob, oa != ob) == (False, True)


def test_g_pair_and_h_f_return_the_cached_record():
    assert g_pair(3, 5) is g_pair(3, 5) and g_pair(4, 6) is g_pair(4, 6)
    assert h_f(2, 2, 6) is h_f(2, 2, 6) and h_f(1, 1, 2) is h_f(1, 1, 2)
