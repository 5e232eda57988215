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

INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


# Miller-Rabin with the first twelve primes as bases has no strong
# pseudoprime below 3.18e23 (Sorenson and Webster, Math. Comp. 86, 2017),
# so it decides primality for every n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n < 2**64; larger moduli raise
    ValueError."""
    if n >= 1 << 64:
        raise ValueError(f"modulus {n} is not below 2**64")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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

    def is_zero(self, a) -> bool:
        return a == 0

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

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, text: str) -> int:
        if not INT_RE.match(text):
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
