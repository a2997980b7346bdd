"""The package's value classes are frozen __slots__ records that behave as the
frozen dataclasses they replaced, and importing the package loads no
`dataclasses`."""

import copy
import inspect
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import simplex_grid_opt
from simplex_grid_opt import (
    BoundKind,
    BoundReport,
    BoundWitness,
    Enclosure,
    Graph,
    GridMinResult,
    HomogeneousPolynomial,
    HypergeomParams,
    IdentityCheck,
    RangeAssumptions,
    StableSetBound,
)
from simplex_grid_opt.bounds import _Rule
from simplex_grid_opt.rational import _Record
from strats import (
    TwinBoundReport,
    TwinBoundWitness,
    TwinEnclosure,
    TwinGraph,
    TwinGridMinResult,
    TwinHomogeneousPolynomial,
    TwinHypergeomParams,
    TwinRangeAssumptions,
    TwinRule,
    TwinStableSetBound,
)

SRC = Path(simplex_grid_opt.__file__).resolve().parent.parent

# class: (its dataclass twin, two argument tuples that build unequal instances)
SAMPLES = {
    GridMinResult: (TwinGridMinResult, [
        (Fraction(-17, 32), 16, ((7, 9),), 1, 17),
        (Fraction(1, 2), 16, ((8, 8), (16, 0)), 2, 17),
    ]),
    HomogeneousPolynomial: (TwinHomogeneousPolynomial, [
        (2, 2, {(2, 0): "1/2", (1, 1): -1, (0, 2): 0}),
        (2, 2, {(1, 1): 2}),
    ]),
    Enclosure: (TwinEnclosure, [(Fraction(1, 3), 1), (0, 0)]),
    HypergeomParams: (TwinHypergeomParams, [(5, (2, 3), 2), (5, [4, 1], 3)]),
    BoundReport: (TwinBoundReport, [
        (BoundKind.QUAD_DENOM, 2, 3, 4, 1, Fraction(4, 9), True),
        (BoundKind.KLS_QUAD, 3, 2, None, None, None, False, "stated for degree 2 only"),
    ]),
    _Rule: (TwinRule, [(False, (), max), (True, ((max, "needs m"),), min, True)]),
    RangeAssumptions: (TwinRangeAssumptions, [(), (2, 6, None, 1)]),
    BoundWitness: (TwinBoundWitness, [
        (BoundKind.QUAD_DENOM, 2, 4, 2, Fraction(1, 8), Fraction(1, 8), Fraction(2), Fraction(1, 4), True),
        (BoundKind.KLS_QUAD, 2, 4, 2, Fraction(1, 8), Fraction(1, 4), Fraction(2), Fraction(1, 2), True),
    ]),
    Graph: (TwinGraph, [(3, frozenset({(2, 1), (2, 3)})), (3, frozenset())]),
    StableSetBound: (TwinStableSetBound, [(4, Fraction(1, 3), 3, 15), (4, Fraction(1, 2), 2, 15)]),
}

# class: argument tuples that the constructor refuses with ValueError or TypeError
REFUSED = {
    HomogeneousPolynomial: [
        (0, 2, {}), (2, 0, {}), (2, 2, {(2,): 1}), (2, 2, {(3, -1): 1}), (2, 2, {(1, 0): 1}),
        (2, 2, {(1, 1): 0.5}), (2, 2, {(1, 1): "x"}),
    ],
    Enclosure: [(2, 1), (Fraction(1, 2), 0), ("1/3", 0)],
    HypergeomParams: [(0, (), 1), (3, (4, -1), 1), (5, (2, 2), 1), (5, (2, 3), 0), (5, (2, 3), 6)],
    Graph: [(0, frozenset()), (3, frozenset({(2, 2)})), (3, frozenset({(1, 4)}))],
}


def _outcome(build, *args, **kwargs):
    """repr of build(*args, **kwargs), or the type and text of what it raised."""
    try:
        return repr(build(*args, **kwargs))
    except (TypeError, ValueError, AttributeError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__qualname__)
def test_records_construct_compare_and_render_as_their_dataclass_twins(cls):
    twin, samples = SAMPLES[cls]
    assert cls.__match_args__ == twin.__match_args__
    assert cls.__qualname__ == twin.__qualname__
    names = cls.__match_args__
    for args in samples:
        # positional, keyword and default construction: every prefix of the
        # arguments builds the same record or is refused alike
        for k in range(len(names) + 1):
            assert _outcome(cls, *args[:k]) == _outcome(twin, *args[:k]), (args, k)
        keywords = dict(zip(names, args))
        assert _outcome(cls, **keywords) == _outcome(twin, **keywords) == _outcome(cls, *args)
        for build in (cls, twin):
            with pytest.raises(TypeError):
                build(*args, *[0] * (len(names) + 1 - len(args)))
            with pytest.raises(TypeError):
                build(*args, unexpected=0)
    (a, again, b), (ta, tagain, tb) = [
        [build(*args) for args in (samples[0], *samples)] for build in (cls, twin)
    ]
    assert ((a == again, a != again, a == b, a != b)
            == (ta == tagain, ta != tagain, ta == tb, ta != tb) == (True, False, False, True))
    # another class, even another record or the field tuple itself, is not compared
    other = Enclosure(0, 1) if cls is RangeAssumptions else RangeAssumptions()
    for value in (ta, other, tuple(getattr(a, name) for name in names)):
        assert a.__eq__(value) is NotImplemented
    assert a != ta and ta != a
    # the hash of the field tuple, so HomogeneousPolynomial's dict makes it unhashable
    assert _outcome(hash, a) == _outcome(hash, ta) == _outcome(hash, again)
    assert isinstance(_outcome(hash, a), tuple) == (cls is HomogeneousPolynomial)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__qualname__)
def test_records_refuse_assignment_and_deletion(cls):
    twin, samples = SAMPLES[cls]
    for build in (cls, twin):
        record = build(*samples[0])
        before = repr(record)
        for name in (*cls.__match_args__, "other"):
            with pytest.raises(AttributeError) as assigned:
                setattr(record, name, 0)
            with pytest.raises(AttributeError) as deleted:
                delattr(record, name)
            assert str(assigned.value) == f"cannot assign to field {name!r}"
            assert str(deleted.value) == f"cannot delete field {name!r}"
        assert repr(record) == before


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__qualname__)
def test_records_round_trip_through_pickle_and_deepcopy(cls):
    for args in SAMPLES[cls][1]:
        record = cls(*args)
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(copied) is cls
            assert copied == record and repr(copied) == repr(record)


@pytest.mark.parametrize("cls", [*SAMPLES, IdentityCheck], ids=lambda cls: cls.__qualname__)
def test_records_take_their_fields_as_parameters_in_order(cls):
    # _Record._set stores __init__'s arguments under the names in __match_args__,
    # in order, and pickle and copy rebuild a record by calling its class with them
    assert set(_Record.__subclasses__()) == {*SAMPLES, IdentityCheck}
    assert list(inspect.signature(cls).parameters) == list(cls.__match_args__)


@pytest.mark.parametrize("cls", REFUSED, ids=lambda cls: cls.__qualname__)
def test_records_refuse_what_their_dataclass_twins_refused(cls):
    twin = SAMPLES[cls][0]
    for args in REFUSED[cls]:
        refused = _outcome(cls, *args)
        assert refused == _outcome(twin, *args), args
        assert isinstance(refused, tuple), args


@pytest.mark.parametrize("code", [
    "import simplex_grid_opt.cli as cli; cli.build_parser()",
    "import simplex_grid_opt",
], ids=["cli", "package"])
def test_import_loads_no_dataclasses(code):
    # a fresh isolated interpreter, as a cold `sgo` call and perfbench's setup run
    probe = f"import sys; sys.path.insert(0, sys.argv[1]); {code}; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
