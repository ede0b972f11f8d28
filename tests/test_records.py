"""The frozen value records: construction, equality, hash, repr, immutability
and round trips through pickle and deepcopy, for every record class and for
SparsePolynomial."""

import copy
import pickle
from fractions import Fraction

import pytest

from newtoncert import (
    ConvexCombination,
    CoverCertificate,
    GaussianRational,
    HalfSpace,
    LatticePolytope,
    MatchingCertificate,
    MorseVerdict,
    QuadraticForm,
    Separation,
    SparsePolynomial,
    Stencil,
    UnderDiagramRegion,
    VolumeVector,
)
from newtoncert._record import Record
from newtoncert.lp import FarkasInfeasible, Feasible

GR = GaussianRational


# No other record class takes the field values of these two, so their
# counterpart of another class is a subclass.
class OtherRegion(UnderDiagramRegion):
    pass


class OtherCover(CoverCertificate):
    pass


HS = HalfSpace((1, 0, 1), 2)

# (class, keyword arguments in field order, another record class that takes
# the same field values, repr)
CASES = [
    (GaussianRational, {"re": Fraction(1, 2), "im": Fraction(-3)}, Separation,
     "GaussianRational(re=Fraction(1, 2), im=Fraction(-3, 1))"),
    (QuadraticForm, {"n": 2, "rows": ((GR(1), GR(2)), (GR(2), GR(0, 1)))}, Separation,
     "QuadraticForm(n=2, rows=((GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)), "
     "GaussianRational(re=Fraction(2, 1), im=Fraction(0, 1))), "
     "(GaussianRational(re=Fraction(2, 1), im=Fraction(0, 1)), "
     "GaussianRational(re=Fraction(0, 1), im=Fraction(1, 1)))))"),
    (Feasible, {"x": (Fraction(1, 2), Fraction(0))}, FarkasInfeasible,
     "Feasible(x=(Fraction(1, 2), Fraction(0, 1)))"),
    (FarkasInfeasible, {"y": (Fraction(-1), Fraction(2))}, Feasible,
     "FarkasInfeasible(y=(Fraction(-1, 1), Fraction(2, 1)))"),
    (MorseVerdict, {"kind": "generically_morse", "certificate": MatchingCertificate((1, 0))},
     Separation,
     "MorseVerdict(kind='generically_morse', certificate=MatchingCertificate(sigma=(1, 0)))"),
    (LatticePolytope, {"n": 2, "generators": ((2, 0), (0, 2), (1, 1)), "orthant_recession": True},
     CoverCertificate,
     "LatticePolytope(n=2, generators=((0, 2), (1, 1), (2, 0)), orthant_recession=True)"),
    (ConvexCombination, {"points": ((2, 0), (0, 2)), "weights": (Fraction(1, 2), Fraction(1, 2)),
                         "recession": (Fraction(0), Fraction(1))}, CoverCertificate,
     "ConvexCombination(points=((2, 0), (0, 2)), weights=(Fraction(1, 2), Fraction(1, 2)), "
     "recession=(Fraction(0, 1), Fraction(1, 1)))"),
    (Separation, {"coeffs": (Fraction(1), Fraction(-1)), "rhs": Fraction(1, 3)}, HalfSpace,
     "Separation(coeffs=(Fraction(1, 1), Fraction(-1, 1)), rhs=Fraction(1, 3))"),
    (VolumeVector, {"values": (Fraction(3), Fraction(5, 2))}, Feasible,
     "VolumeVector(values=(Fraction(3, 1), Fraction(5, 2)))"),
    (UnderDiagramRegion, {"n": 2, "vertex_generators": ((0, 3), (2, 0)), "axis_intercepts": (2, 3),
                          "simplices": (((0, 0), (0, 3), (2, 0)),)}, OtherRegion,
     "UnderDiagramRegion(n=2, vertex_generators=((0, 3), (2, 0)), axis_intercepts=(2, 3), "
     "simplices=(((0, 0), (0, 3), (2, 0)),))"),
    (Stencil, {"n": 2, "bits": ((1, 1), (1, 0))}, Separation,
     "Stencil(n=2, bits=((1, 1), (1, 0)))"),
    (HalfSpace, {"coeffs": (2, 0), "rhs": 2}, Separation,
     "HalfSpace(coeffs=(2, 0), rhs=2)"),
    (MatchingCertificate, {"sigma": (1, 2, 0)}, Feasible,
     "MatchingCertificate(sigma=(1, 2, 0))"),
    (CoverCertificate, {"I": (0,), "J": (2,), "halfspace": HS}, OtherCover,
     "CoverCertificate(I=(0,), J=(2,), halfspace=HalfSpace(coeffs=(1, 0, 1), rhs=2))"),
]


def _fields(obj):
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


@pytest.mark.parametrize("cls, kwargs, other, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_behaviour(cls, kwargs, other, text):
    obj = cls(**kwargs)
    assert type(obj).__match_args__ == tuple(kwargs)
    assert repr(obj) == text

    same = cls(*kwargs.values())
    assert obj == same and not obj != same
    twin = other(*_fields(obj))
    assert _fields(twin) == _fields(obj)
    assert obj != twin and twin != obj
    assert hash(obj) == hash(_fields(obj)) == hash(same)

    name = cls.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert _fields(obj) == _fields(same)

    for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(back) is cls and back == obj and repr(back) == text


# The records whose constructor only stores its fields: Record builds them.
STORAGE_ONLY = [case for case in CASES if case[0] in (
    Feasible, FarkasInfeasible, Separation, HalfSpace, MatchingCertificate, CoverCertificate,
    MorseVerdict, VolumeVector, UnderDiagramRegion)]


@pytest.mark.parametrize("cls, kwargs, other, text", STORAGE_ONLY,
                         ids=[c[0].__name__ for c in STORAGE_ONLY])
def test_storage_only_record_construction(cls, kwargs, other, text):
    assert "__init__" not in vars(cls)
    values = tuple(kwargs.values())
    *head, (last, last_value) = kwargs.items()
    mixed = cls(*values[:-1], **{last: last_value})
    assert repr(mixed) == text and mixed == cls(*values)
    wrong = [
        lambda: cls(*values[:-1]),                        # a field missing
        lambda: cls(**dict(head)),                        # a field missing, by name
        lambda: cls(*values, extra=1),                    # an unknown keyword
        lambda: cls(**kwargs, extra=1),                   # an unknown keyword, by name
        lambda: cls(*values, values[0]),                  # one value too many
        lambda: cls(*values, **{cls.__match_args__[0]: values[0]}),  # a field given twice
    ]
    for build in wrong:
        with pytest.raises(TypeError, match=cls.__name__):
            build()


def test_sparse_polynomial_record():
    terms = {(2, 0): 1, (1, 1): GR(Fraction(1, 2), -3), (0, 3): -1}
    f = SparsePolynomial(2, terms)
    g = SparsePolynomial(2, dict(reversed(terms.items())))
    assert list(f._terms) != list(g._terms)
    assert isinstance(f, Record)
    assert not {"__setattr__", "__eq__"} & set(vars(SparsePolynomial))
    text = "SparsePolynomial(2, '-x2^3 + (1/2-3i)*x1*x2 + x1^2')"
    assert repr(f) == repr(g) == text
    assert f == g and not f != g and hash(f) == hash(g)
    assert f != SparsePolynomial(3, {(2, 0, 0): 1}) and f != SparsePolynomial(2, {(2, 0): 1})

    for name in ("n_vars", "_terms"):
        with pytest.raises(AttributeError):
            setattr(f, name, getattr(f, name))
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert f == g and not f.is_zero()

    for back in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert type(back) is SparsePolynomial and back == f and repr(back) == text
        assert hash(back) == hash(f)
