"""Scalar arithmetic over the rationals and prime fields."""

from fractions import Fraction

import pytest

from moddeg.fields import GF, QQ, is_prime


def test_prime_check():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        GF(6)


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_prime_check_agrees_with_trial_division():
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(-3, 20000))


def test_prime_check_near_two_to_the_64():
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)
    # strong pseudoprimes to base 2, to the bases 2..7 and to the bases 2..31:
    # each is caught only by a later base
    for n in (2047, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    with pytest.raises(ValueError):
        is_prime(2 ** 64)
    assert GF(2 ** 61 - 1).inv(2) * 2 % (2 ** 61 - 1) == 1


def test_rational_parse_and_format():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.parse("-7") == Fraction(-7)
    assert QQ.fmt(Fraction(6, 4)) == "3/2"
    with pytest.raises(ValueError):
        QQ.parse("1.5")
    with pytest.raises(ValueError):
        QQ.parse("x")
    with pytest.raises(ValueError, match="zero denominator"):
        QQ.parse("1/0")


def test_rational_canonical_form():
    v = QQ.parse("-4/8")
    assert v.denominator > 0 and v == Fraction(-1, 2)


def test_prime_field_arithmetic():
    f = GF(7)
    assert f.parse("9") == 2
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.fmt(f.neg(1)) == "6"
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_prime_field_coerces_fractions():
    f = GF(5)
    assert f.coerce(Fraction(1, 2)) == 3      # 2 * 3 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        f.coerce(Fraction(1, 5))


def test_field_equality_and_hash():
    assert GF(5) == GF(5) and GF(5) != GF(7)
    assert QQ == QQ and QQ != GF(2)
    assert len({GF(5), GF(5), QQ}) == 2
