"""Truncated p-adic scalar arithmetic with explicit precision tracking.

Everything downstream computes over Z/p^N for a prime p and a precision
N >= 1.  A scalar remembers the precision it is known to, so exact
division by p can honestly shrink what is claimed: dividing a value
known mod p^N by p^k yields a value known only mod p^(N-k).  A sum or
difference of mixed precisions is known to the smaller one.  A product
can know more: the ambiguity of each factor is scaled by the other, so
a low-precision factor times a p-divisible one gains digits, up to the
larger of the two precisions (see Scalar.__mul__).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

INFINITY = math.inf

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NotDivisible(ArithmeticError):
    """Requested exact division by p^k of a value with valuation < k."""


class PrecisionExhausted(ArithmeticError):
    """An operation would leave fewer than one tracked p-adic digit."""


@lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    # deterministic trial division; moduli here are desk scale
    f = 41
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Modulus:
    """The ring Z/p^N, p prime, N >= 1."""

    p: int
    N: int
    cardinality: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"modulus requires a prime, got {self.p}")
        if self.N < 1:
            raise ValueError(f"precision must be at least 1, got {self.N}")
        object.__setattr__(self, "cardinality", self.p ** self.N)

    def reduce(self, k: int) -> "Modulus":
        """The modulus Z/p^(N-k) left after dividing by p^k."""
        if self.N - k < 1:
            raise PrecisionExhausted(
                f"cannot drop {k} levels below precision {self.N}"
            )
        return Modulus(self.p, self.N - k)

    def __repr__(self) -> str:
        return f"Z/{self.p}^{self.N}"


@dataclass(frozen=True, slots=True)
class Scalar:
    """A residue in [0, p^N) tagged with the modulus it is known at."""

    residue: int
    modulus: Modulus

    def __post_init__(self) -> None:
        object.__setattr__(self, "residue", self.residue % self.modulus.cardinality)

    @property
    def precision(self) -> int:
        return self.modulus.N

    def is_zero(self) -> bool:
        return self.residue == 0

    def is_unit(self) -> bool:
        return self.residue % self.modulus.p != 0

    def lift(self) -> int:
        return self.residue

    def lift_balanced(self) -> int:
        """Representative in (-p^N/2, p^N/2], used for display."""
        half = self.modulus.cardinality // 2
        if self.residue > half:
            return self.residue - self.modulus.cardinality
        return self.residue

    def _join(self, other: "Scalar") -> Modulus:
        if self.modulus.p != other.modulus.p:
            raise ValueError(
                f"mixing primes {self.modulus.p} and {other.modulus.p}"
            )
        if self.modulus.N <= other.modulus.N:
            return self.modulus
        return other.modulus

    def _coerce(self, other: Union["Scalar", int]) -> "Scalar":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, int):
            return Scalar(other, self.modulus)
        return NotImplemented

    def __add__(self, other: Union["Scalar", int]) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mod = self._join(other)
        return Scalar(self.residue + other.residue, mod)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.residue, self.modulus)

    def __sub__(self, other: Union["Scalar", int]) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mod = self._join(other)
        return Scalar(self.residue - other.residue, mod)

    def __rsub__(self, other: Union["Scalar", int]) -> "Scalar":
        return (-self).__add__(other)

    def __mul__(self, other: Union["Scalar", int]) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.modulus.p != other.modulus.p:
            raise ValueError(
                f"mixing primes {self.modulus.p} and {other.modulus.p}"
            )
        # a known mod p^m times b known mod p^n is determined mod
        # p^(min(m + v(b), n + v(a))): the ambiguity of each factor gets
        # scaled by the other.  Capped at max(m, n) so same-precision
        # arithmetic stays closed at that precision; the gain only kicks
        # in for a low-precision factor against a p-divisible one, e.g.
        # multiplying an exact quotient by p recovers the lost digit.
        m, n = self.modulus.N, other.modulus.N
        va = min(_residue_valuation(self.residue, self.modulus.p), m)
        vb = min(_residue_valuation(other.residue, other.modulus.p), n)
        prec = min(m + vb, n + va, max(m, n))
        if prec == m:
            mod = self.modulus
        elif prec == n:
            mod = other.modulus
        else:
            mod = Modulus(self.modulus.p, prec)
        return Scalar(self.residue * other.residue, mod)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        return Scalar(pow(self.residue, n, self.modulus.cardinality), self.modulus)

    def inverse(self) -> "Scalar":
        if not self.is_unit():
            raise NotDivisible(f"{self.residue} is not a unit mod {self.modulus}")
        return Scalar(pow(self.residue, -1, self.modulus.cardinality), self.modulus)

    def reduce_to(self, precision: int) -> "Scalar":
        """Forget digits down to the given precision.  Never adds digits."""
        if precision > self.modulus.N:
            raise PrecisionExhausted(
                f"cannot raise precision {self.modulus.N} to {precision}"
            )
        if precision == self.modulus.N:
            return self
        return Scalar(self.residue, Modulus(self.modulus.p, precision))

    def __repr__(self) -> str:
        return f"{self.residue} (mod {self.modulus.p}^{self.modulus.N})"


def _residue_valuation(r: int, p: int) -> int:
    """p-adic valuation of an integer residue; callers cap zero at N."""
    if r == 0:
        return 1 << 30
    k = 0
    while r % p == 0:
        r //= p
        k += 1
    return k


def valuation(a: Scalar):
    """Largest k <= N with p^k dividing a lift of a; INFINITY for zero."""
    if a.residue == 0:
        return INFINITY
    return _residue_valuation(a.residue, a.modulus.p)


def factorial_valuation(n: int, p: int) -> int:
    """ord_p(n!) by the base-p digit sum: (n - s_p(n)) / (p - 1)."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    s = 0
    m = n
    while m:
        s += m % p
        m //= p
    return (n - s) // (p - 1)


def exact_div_p(a: Scalar, k: int) -> Scalar:
    """Divide by p^k exactly.

    The quotient is only determined mod p^(N-k), so the result carries
    the reduced precision.  Raises NotDivisible if p^k does not divide a
    lift of a, PrecisionExhausted if N - k < 1.
    """
    if k < 0:
        raise ValueError("division by a negative power of p")
    if k == 0:
        return a
    mod = a.modulus.reduce(k)
    pk = a.modulus.p ** k
    if a.residue % pk != 0:
        raise NotDivisible(
            f"{a.residue} has valuation < {k} mod {a.modulus}"
        )
    return Scalar(a.residue // pk, mod)


def unit_part_inverse(n_factorial_of: int, modulus: Modulus) -> Scalar:
    """Inverse of the prime-to-p part of (n!), as a scalar.

    Writing n! = p^v * u with u a unit, returns u^(-1).  Used when
    evaluating (p*w)^[n] = (p^n / n!) * w^n exactly.
    """
    p = modulus.p
    v = factorial_valuation(n_factorial_of, p)
    u = math.factorial(n_factorial_of) // p ** v
    return Scalar(u, modulus).inverse()
