import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prism_forge.padic import (
    INFINITY,
    Modulus,
    NotDivisible,
    PrecisionExhausted,
    Scalar,
    exact_div_p,
    factorial_valuation,
    valuation,
)
from oracles import binomial, legendre_valuation, p_power_over_factorial


class TestModulus:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            Modulus(6, 2)

    def test_rejects_zero_precision(self):
        with pytest.raises(ValueError):
            Modulus(3, 0)

    def test_cardinality(self):
        assert Modulus(3, 4).cardinality == 81

    def test_reduce_floor(self):
        with pytest.raises(PrecisionExhausted):
            Modulus(2, 2).reduce(2)


class TestValuation:
    def test_nine_mod_81(self):
        assert valuation(Scalar(9, Modulus(3, 4))) == 2

    def test_zero_is_infinite(self):
        assert valuation(Scalar(0, Modulus(2, 3))) == INFINITY

    def test_fifty_mod_125(self):
        assert valuation(Scalar(50, Modulus(5, 3))) == 2

    @settings(max_examples=200)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 4),
           st.integers(0, 1000), st.integers(0, 1000))
    def test_additive_on_nonzero_products(self, p, N, a, b):
        mod = Modulus(p, N)
        sa, sb = Scalar(a, mod), Scalar(b, mod)
        prod = sa * sb
        if sa.is_zero() or sb.is_zero() or prod.is_zero():
            return
        assert valuation(prod) == valuation(sa) + valuation(sb)


class TestFactorialValuation:
    def test_examples(self):
        assert factorial_valuation(0, 3) == 0
        assert factorial_valuation(4, 2) == 3
        assert factorial_valuation(9, 3) == 4

    @settings(max_examples=300)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 5, 7]))
    def test_matches_legendre_sum(self, n, p):
        assert factorial_valuation(n, p) == legendre_valuation(n, p)


class TestExactDivision:
    def test_twelve_by_four(self):
        out = exact_div_p(Scalar(12, Modulus(2, 4)), 2)
        assert out.residue == 3 and out.precision == 2

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_div_p(Scalar(5, Modulus(3, 3)), 1)

    def test_zero_stays_zero(self):
        out = exact_div_p(Scalar(0, Modulus(5, 3)), 1)
        assert out.is_zero() and out.precision == 2

    def test_precision_floor(self):
        with pytest.raises(PrecisionExhausted):
            exact_div_p(Scalar(4, Modulus(2, 2)), 2)

    @settings(max_examples=200)
    @given(st.sampled_from([2, 3, 5]), st.integers(2, 5),
           st.integers(1, 3), st.integers(0, 10_000))
    def test_round_trip(self, p, N, k, b):
        if N - k < 1:
            return
        mod = Modulus(p, N)
        a = Scalar(p ** k * b, mod)
        out = exact_div_p(a, k)
        assert out == Scalar(b, Modulus(p, N - k))


class TestBinomial:
    def test_pairs(self):
        mod = Modulus(7, 2)
        assert binomial(1, 1, mod).residue == 2
        assert binomial(0, 5, mod).residue == 1
        assert binomial(2, 2, mod).residue == 6


class TestScalarArithmetic:
    def test_mixed_precision_reduces(self):
        a = Scalar(7, Modulus(2, 4))
        b = Scalar(3, Modulus(2, 2))
        assert (a + b).precision == 2
        assert (a * b).precision == 2

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            Scalar(1, Modulus(2, 2)) + Scalar(1, Modulus(3, 2))

    def test_inverse_of_unit(self):
        s = Scalar(5, Modulus(3, 3))
        assert (s * s.inverse()).residue == 1

    def test_inverse_of_nonunit_raises(self):
        with pytest.raises(NotDivisible):
            Scalar(6, Modulus(3, 3)).inverse()

    def test_balanced_lift(self):
        assert Scalar(80, Modulus(3, 4)).lift_balanced() == -1
        assert Scalar(40, Modulus(3, 4)).lift_balanced() == 40

    def test_cannot_raise_precision(self):
        with pytest.raises(PrecisionExhausted):
            Scalar(1, Modulus(2, 2)).reduce_to(3)


class TestPPowerOverFactorial:
    @settings(max_examples=100)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(0, 12))
    def test_matches_fraction(self, p, N, n):
        from fractions import Fraction
        from math import factorial

        from oracles import frac_to_residue

        got = p_power_over_factorial(n, Modulus(p, N))
        want = frac_to_residue(Fraction(p ** n, factorial(n)), p, N)
        assert got.residue == want
