"""Exact scalar arithmetic: the rationals and prime fields F_p.

Field objects carry the arithmetic; elements are plain Python values
(`fractions.Fraction` for the rationals, canonical ints in [0, p) for a
prime field), so scalars stay hashable and cheap to copy.  `Fraction`
already keeps lowest terms with positive denominator, and every prime
field operation reduces mod p, so canonical forms are maintained by
construction.
"""

from __future__ import annotations

import re
from fractions import Fraction

_INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def is_prime(n: int) -> bool:
    """Trial-division primality check; fine for the moduli used here."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The field of rational numbers with arbitrary-precision arithmetic."""

    finite = False
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        return a / self.coerce(b) if b != 0 else self.inv(b)

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == 1

    def parse(self, text: str) -> Fraction:
        if not _FRAC_RE.match(text):
            raise ValueError(f"not an exact rational: {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {text!r}") from None

    def fmt(self, a) -> str:
        return str(a)

    def sample(self, rng, bound: int = 5):
        return Fraction(rng.randint(-bound, bound))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_p; elements are ints in [0, p)."""

    finite = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def is_one(self, a) -> bool:
        return a % self.p == 1

    def parse(self, text: str) -> int:
        if not _INT_RE.match(text):
            raise ValueError(f"not a residue: {text!r}")
        return int(text) % self.p

    def fmt(self, a) -> str:
        return str(a % self.p)

    def sample(self, rng, bound: int = 0):
        return rng.randrange(self.p)

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()

# Default prime for finite-field fixtures: large enough that the
# generic-element sampling downstream works for all dimensions in scope.
DEFAULT_PRIME = 101


def GF(p: int) -> PrimeField:
    return PrimeField(p)
