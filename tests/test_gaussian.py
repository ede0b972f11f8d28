"""Field-axiom and basic-operation checks for the exact complex scalars."""

import random
from fractions import Fraction

import pytest

from newtoncert.gaussian import GR_ONE, GR_ZERO, GaussianRational


def _random_scalar(rng):
    return GaussianRational(
        Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
        Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
    )


def test_field_axioms_on_random_triples():
    rng = random.Random(20240)
    for _ in range(300):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + GR_ZERO == a
        assert a * GR_ONE == a
        assert a - a == GR_ZERO
        if a:
            assert a / a == GR_ONE
            assert (b / a) * a == b


def test_conjugate_and_norm():
    z = GaussianRational(Fraction(3, 2), Fraction(-5))
    assert z.conjugate() == GaussianRational(Fraction(3, 2), Fraction(5))
    assert z * z.conjugate() == GaussianRational(z.norm())
    assert z.norm() == Fraction(9, 4) + 25


def test_division_examples():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert GR_ONE / i == -i
    assert (GR_ONE + i) / (GR_ONE - i) == i


def test_zero_division_raises():
    for zero in (GR_ZERO, 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            GR_ONE / zero
        with pytest.raises(ZeroDivisionError):
            GR_ONE // zero


def test_floor_division_is_the_exact_quotient():
    """Q(i) is a field: // floors nothing and equals /, for complex, real
    and int divisors alike."""
    rng = random.Random(1968)
    for _ in range(200):
        a, b = _random_scalar(rng), _random_scalar(rng)
        r = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 20))
        for d in (b, GaussianRational(r), r, r.numerator):
            if not d:
                continue
            assert a // d == a / d
            assert (a // d) * d == a
    assert GaussianRational(7) // 2 == GaussianRational(Fraction(7, 2))
    assert GaussianRational(0, 1) // GaussianRational(1, 1) == GaussianRational(
        Fraction(1, 2), Fraction(1, 2))


def test_int_interop():
    z = GaussianRational(2, 3)
    assert z + 1 == GaussianRational(3, 3)
    assert 2 * z == GaussianRational(4, 6)
    assert z - Fraction(1, 2) == GaussianRational(Fraction(3, 2), 3)


def test_floats_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.25)


def test_str_forms():
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3))) == "1/2-3i"
    assert str(GaussianRational(Fraction(7))) == "7"
    assert str(GaussianRational(0, Fraction(2, 5))) == "2/5i"
