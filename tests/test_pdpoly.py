import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prism_forge.padic import Modulus, NotDivisible, PrecisionExhausted, Scalar
from prism_forge.pdpoly import (
    Element,
    InvalidPdImage,
    Monomial,
    RingMap,
    RingMismatch,
    RingSpec,
    UnknownGenerator,
    _from_packed,
    _multiply_into,
    _product_into,
    _Residues,
    div_p,
    divided_power,
    divisible_by_p,
    fresh_name,
    mul,
    partial_derivative,
    substitute,
    window_monomials,
)
from oracles import (
    element_matches_fracpoly,
    element_div_p,
    element_sub,
    element_substitute,
    exact_div_p_elem,
    frac_from_element,
    frac_mul,
    hasse_derivative,
    monomial_weight,
    scalar_add,
    scalar_mul,
)
from cases import SHAPES, elements, outcome, ring_of, vanishing_factor


def substitute_by(a, images, target=None):
    """a under generator -> image, through a ring map built for a's ring."""
    return substitute(a, RingMap(a.ring, images, target))


def ring_with_pd(p=3, N=4, ordinary=("x", "y"), pd=("u", "v"), poly_cap=20, pd_cap=10):
    return RingSpec(ordinary, pd, Modulus(p, N), poly_cap, pd_cap)


def random_element(rng, ring, max_deg=2, max_wt=2, terms=3):
    out = ring.zero()
    for _ in range(terms):
        mono_o = {}
        budget = max_deg
        for g in ring.ordinary_gens:
            e = rng.randint(0, budget)
            budget -= e
            if e:
                mono_o[g] = e
        mono_d = {}
        wt = max_wt
        for g in ring.pd_gens:
            e = rng.randint(0, wt)
            wt -= e
            if e:
                mono_d[g] = e
        out = out + ring.monomial(mono_o, mono_d, rng.randrange(ring.modulus.cardinality))
    return out


class TestMulRules:
    def test_divided_product_coefficient(self):
        ring = ring_with_pd()
        u2 = ring.pd_power("u", 2)
        u3 = ring.pd_power("u", 3)
        assert u2 * u3 == ring.monomial({}, {"u": 5}, 10)

    def test_two_generator_product(self):
        ring = ring_with_pd()
        a = ring.monomial({}, {"u": 1, "v": 2})
        b = ring.monomial({}, {"u": 2, "v": 1})
        # coefficient C(3,2) * C(3,1) = 9
        assert a * b == ring.monomial({}, {"u": 3, "v": 3}, 9)

    def test_ring_mismatch(self):
        a = ring_with_pd().one()
        b = ring_with_pd(ordinary=("z",), pd=()).one()
        with pytest.raises(RingMismatch):
            mul(a, b)

    def test_against_rational_model(self):
        ring = ring_with_pd()
        rng = random.Random(7)
        for _ in range(40):
            a = random_element(rng, ring)
            b = random_element(rng, ring)
            prod = a * b
            if prod.truncated:
                continue
            expected = frac_mul(frac_from_element(a), frac_from_element(b))
            assert element_matches_fracpoly(prod, expected)

    @settings(max_examples=60)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    def test_weight_addition_associates(self, i, j, k):
        ring = ring_with_pd(pd_cap=18)
        u = ring.pd_power
        left = (u("u", i) * u("u", j)) * u("u", k) if i and j and k else None
        if left is None:
            return
        right = u("u", i) * (u("u", j) * u("u", k))
        assert left == right


@st.composite
def mixed_precision_pairs(draw):
    """Two elements of one small ring whose coefficients carry their own
    precisions: low-precision zeros, p-divisible residues, pd weights that
    meet in binomial factors, caps tight enough to overflow, and either
    truncation flag.  Both draw their monomials from one small pool so
    that their terms collide; about half the pairs hold only coefficients
    at the ring's precision."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(1, 4))
    ring = RingSpec(
        ("x", "y"), ("u", "v"), Modulus(p, N),
        draw(st.integers(1, 5)), draw(st.integers(1, 5)),
    )
    exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
    pool = draw(st.lists(
        st.builds(Monomial, exponents, exponents).filter(
            lambda m: m.ordinary_degree <= ring.poly_degree_cap
            and m.pd_weight <= ring.pd_degree_cap
        ),
        min_size=1, max_size=4,
    ))
    full_only = draw(st.booleans())

    def coefficient():
        prec = N if full_only else draw(st.integers(1, N))
        mod = ring.modulus if prec == N and draw(st.booleans()) else Modulus(p, prec)
        # a zero at the ring's precision is dropped from the element, one
        # below it is kept
        residue = draw(st.one_of(
            st.just(0) if prec < N else st.integers(1, p ** prec - 1),
            st.integers(1, p ** prec - 1),
            st.integers(0, p ** (prec - 1) - 1).map(lambda r: r * p),
        ))
        return Scalar(residue, mod)

    def element():
        terms = {}
        for m in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
            terms[m] = coefficient()
        return Element(ring, terms, draw(st.booleans()))

    return element(), element()


def coefficients(e):
    return {m: (c.residue, c.precision) for m, c in e.terms.items()}


def colliding_pair():
    """x*y arises twice in the product, first at full precision, then at
    the lower precision of the coefficient of y in a: the sum must end at
    the lower one."""
    ring = RingSpec(("x", "y"), ("u", "v"), Modulus(3, 4), 4, 4)
    full, low = ring.modulus, Modulus(3, 2)
    x, y = Monomial((1, 0), (0, 0)), Monomial((0, 1), (0, 0))
    a = Element(ring, {x: Scalar(1, full), y: Scalar(1, low)})
    b = Element(ring, {y: Scalar(1, full), x: Scalar(1, full)})
    return a, b


class TestAgainstScalarPath:
    @settings(max_examples=300, deadline=None)
    @given(mixed_precision_pairs())
    @example(colliding_pair())
    def test_product_matches(self, pair):
        a, b = pair
        got, want = a * b, scalar_mul(a, b)
        assert coefficients(got) == coefficients(want)
        assert got.truncated == want.truncated

    @settings(max_examples=300, deadline=None)
    @given(mixed_precision_pairs())
    def test_sum_matches(self, pair):
        a, b = pair
        got, want = a + b, scalar_add(a, b)
        assert coefficients(got) == coefficients(want)
        assert got.truncated == want.truncated

    @settings(max_examples=300, deadline=None)
    @given(mixed_precision_pairs())
    def test_difference_matches(self, pair):
        a, b = pair
        got, want = a - b, element_sub(a, b)
        assert coefficients(got) == coefficients(want)
        assert got.truncated == want.truncated

    @settings(max_examples=300, deadline=None)
    @given(mixed_precision_pairs(), st.data())
    def test_scale_matches(self, pair, data):
        # the factor is an int or a coefficient of b: low-precision zeros,
        # p-divisible residues, the ring's modulus or an equal copy of it
        a, b = pair
        ring = a.ring
        c = data.draw(st.one_of(
            st.integers(-50, 50), st.sampled_from([0, *b.terms.values()])
        ))
        s = c if isinstance(c, Scalar) else Scalar(c, ring.modulus)
        one = Monomial((0, 0), (0, 0))
        got, want = a.scale(c), scalar_mul(a, Element(ring, {one: s}))
        assert [(m, c.residue, c.precision) for m, c in got.terms.items()] == [
            (m, c.residue, c.precision) for m, c in want.terms.items()
        ]
        assert got.truncated == want.truncated

    @settings(max_examples=100, deadline=None)
    @given(mixed_precision_pairs())
    def test_first_power_is_one_times_element(self, pair):
        a, _ = pair
        want = scalar_mul(a.ring.one(), a)
        assert coefficients(a ** 1) == coefficients(want)
        assert (a ** 1).truncated == want.truncated


class TestTruncation:
    def test_overflow_sets_flag(self):
        ring = ring_with_pd(poly_cap=2)
        x = ring.gen("x")
        out = x * x * x
        assert out.is_zero() and out.truncated

    def test_flag_is_sticky(self):
        ring = ring_with_pd(poly_cap=2)
        x = ring.gen("x")
        out = (x * x * x) + ring.one()
        assert out.truncated
        assert (out * ring.one()).truncated


class TestSharedCodec:
    def test_rings_of_one_key_layout_share_a_codec(self):
        a = RingSpec(("x",), (), Modulus(3, 2), 10, 0)
        assert RingSpec(("t",), (), Modulus(5, 1), 12, 0)._codec is a._codec
        assert RingSpec(("x",), (), Modulus(3, 2), 16, 0)._codec is not a._codec
        assert RingSpec(("x", "y"), (), Modulus(3, 2), 10, 0)._codec is not a._codec
        assert RingSpec(("x",), ("u",), Modulus(3, 2), 10, 0)._codec is not a._codec

    def test_each_ring_keeps_its_own_caps(self):
        # caps 9 and 12 pack keys alike; only the cap-9 ring drops x^10
        small = RingSpec(("x",), (), Modulus(3, 2), 9, 0)
        big = RingSpec(("x",), (), Modulus(3, 2), 12, 0)
        assert small._codec is big._codec
        for ring, kept in ((big, True), (small, False)):
            x = ring.gen("x")
            sq = (x ** 5 + ring.one()) * (x ** 5 + ring.one())
            low = ring.constant(2) * x ** 5 + ring.one()
            assert sq.truncated is not kept
            assert sq == (x ** 10 + low if kept else low)


class TestDividedPower:
    def test_sum_rule(self):
        ring = ring_with_pd()
        e = ring.gen("u") + ring.gen("v")
        out = divided_power(e, 2)
        want = (
            ring.monomial({}, {"u": 2})
            + ring.monomial({}, {"u": 1, "v": 1})
            + ring.monomial({}, {"v": 2})
        )
        assert out == want

    def test_composition_rule(self):
        # (u^[2])^[2] = 3 u^[4]; over Q: (x^2/2)^2/2 = 3 * x^4/4!
        ring = ring_with_pd()
        out = divided_power(ring.pd_power("u", 2), 2)
        assert out == ring.monomial({}, {"u": 4}, 3)

    def test_p_multiple_rule(self):
        # (p*w)^[2] = (p^2/2) w^2 at p=3: 9 * inv(2) = 45 mod 81
        ring = ring_with_pd()
        w = ring.gen("x").scale(3)
        out = divided_power(w, 2)
        assert out == ring.monomial({"x": 2}, {}, 45)
        assert (Scalar(45, ring.modulus) * 2).residue == 9

    def test_scaled_generator_rule(self):
        ring = ring_with_pd()
        img = ring.gen("v").scale(5)
        assert divided_power(img, 3) == ring.monomial({}, {"v": 3}, 125)

    def test_rejects_unit_weight_zero_term(self):
        ring = ring_with_pd()
        with pytest.raises(InvalidPdImage):
            divided_power(ring.gen("x"), 2)

    def test_mixed_image_matches_rational_model(self):
        ring = ring_with_pd(p=5, N=3, poly_cap=12, pd_cap=12)
        img = ring.gen("x").scale(5) + ring.gen("u") + ring.monomial({}, {"v": 2}, 10)
        for n in (2, 3):
            out = divided_power(img, n)
            assert not out.truncated
            want = frac_from_element(img)
            from fractions import Fraction

            from oracles import frac_mul as fm

            acc = {((0,) * 2, (0,) * 2): Fraction(1)}
            for _ in range(n):
                acc = fm(acc, want)
            acc = {k: v / Fraction(__import__("math").factorial(n)) for k, v in acc.items()}
            assert element_matches_fracpoly(out, acc)


class TestLowPrecisionZeros:
    """A zero known only mod p^k, k < N, is a term; one mod p^N is none."""

    def test_constant_and_monomial_keep_them(self):
        ring = ring_with_pd(p=3, N=4)
        assert ring.constant(Scalar(0, Modulus(3, 1))).min_precision() == 1
        low = ring.monomial({"x": 2}, {}, Scalar(0, Modulus(3, 2)))
        assert low.is_zero() and low.min_precision() == 2
        assert ring.constant(0).terms == {}
        assert ring.monomial({"x": 2}, {}, 0).terms == {}

    def test_substitute_carries_them(self):
        ring = ring_with_pd(p=3, N=4)
        for zero in (
            ring.constant(Scalar(0, Modulus(3, 2))),
            ring.monomial({"x": 1}, {"u": 1}, Scalar(0, Modulus(3, 2))),
        ):
            out = substitute_by(zero, {g: ring.gen(g) for g in ring.all_gens()})
            assert out.is_zero() and out.min_precision() == 2

    def test_divided_power_carries_them(self):
        # the mixed envelope's psi(t) at p = 2, N = 4: three zeros known
        # mod 4, each a term of psi(t)^[1] = psi(t)
        ring = RingSpec(("s",), ("t",), Modulus(2, 4), 12, 12)
        low = Modulus(2, 2)
        e = (ring.pd_power("t", 2) + ring.monomial({"s": 2}, {"t": 1})
             + ring.monomial({"s": 4}, {})).scale(Scalar(0, low))
        assert len(e.terms) == 3
        assert divided_power(e, 1) == e


class TestCoefficientsPastThePrecision:
    """An element holds no coefficient known past its ring's precision N,
    nor one of another prime."""

    def test_read_mod_p_n_at_precision_n(self):
        ring = RingSpec(("x",), (), Modulus(3, 2), 4, 0)
        x, one = Monomial((1,), ()), Monomial((0,), ())
        e = Element(ring, {x: Scalar(10, Modulus(3, 4)), one: Scalar(9, Modulus(3, 4))})
        assert e.terms == {x: Scalar(1, ring.modulus)}
        assert e == ring.gen("x") and e.min_precision() == 2
        assert ring.constant(Scalar(18, Modulus(3, 3))).terms == {}
        assert ring.monomial({"x": 2}, {}, Scalar(-1, Modulus(3, 5))) == (
            ring.monomial({"x": 2}, {}, 8))

    def test_refuses_another_prime(self):
        ring = RingSpec(("x",), (), Modulus(3, 2), 4, 0)
        with pytest.raises(RingMismatch):
            Element(ring, {Monomial((0,), ()): Scalar(1, Modulus(2, 4))})
        with pytest.raises(RingMismatch):
            ring.constant(Scalar(1, Modulus(2, 4)))
        other = RingSpec(("x",), (), Modulus(2, 2), 4, 0)
        with pytest.raises(RingMismatch):
            RingMap(other, {"x": ring.gen("x")})

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_substitute_reads_the_element_at_the_target_precision(self, data):
        """The same terms and truncation flag, or the same exception."""
        a, images, target = data.draw(substitution_cases())
        if target.modulus.N == a.ring.modulus.N:
            N = a.ring.modulus.N
            target = a.ring.at_precision(data.draw(st.integers(1, max(N - 1, 1))))
            images = {g: img.map_to(target) for g, img in images.items()}
        assert outcome(substitute_by, a, images, target) == outcome(
            substitute_by, a.map_to(target), images, target)

    def test_a_term_vanishing_at_the_target_precision_truncates_nothing(self):
        """x^2 with coefficient 4 is zero mod 2^2, so the cube of x's image,
        which the cap of 4 would cut, is never formed."""
        src = RingSpec(("x",), (), Modulus(2, 3), 4, 0)
        tgt = src.at_precision(2)
        a = src.monomial({"x": 2}, {}, 4)
        images = {"x": tgt.gen("x") ** 3}
        got = substitute_by(a, images, tgt)
        assert got.is_zero() and not got.truncated
        assert outcome(substitute_by, a, images, tgt) == outcome(
            element_substitute, a, images, tgt)


class TestSubstitute:
    def test_ordinary_substitution(self):
        ring = ring_with_pd()
        a = ring.gen("x") ** 2 + ring.gen("y")
        images = {
            "x": ring.gen("y"),
            "y": ring.one(),
            "u": ring.gen("u"),
            "v": ring.gen("v"),
        }
        assert substitute(a, RingMap(ring, images)) == ring.gen("y") ** 2 + ring.one()

    def test_missing_image_rejected(self):
        ring = ring_with_pd()
        with pytest.raises(UnknownGenerator):
            RingMap(ring, {"x": ring.gen("x")})

    def test_pd_image_validation(self):
        ring = ring_with_pd()
        images = {g: ring.gen(g) for g in ("x", "y", "v")}
        images["u"] = ring.gen("x")  # unit coefficient, weight zero
        f = RingMap(ring, images)  # checked at the first application
        with pytest.raises(InvalidPdImage):
            substitute(ring.pd_power("u", 2), f)

    def test_spec_example_p_times_w(self):
        ring = ring_with_pd()
        images = {g: ring.gen(g) for g in ("x", "y", "v")}
        images["u"] = ring.gen("x").scale(3)
        out = substitute(ring.pd_power("u", 2), RingMap(ring, images))
        assert out == ring.monomial({"x": 2}, {}, 45)


@st.composite
def substitution_cases(draw):
    """An element, images and a target ring.  Images may carry low
    precisions and overflow tight caps; divided-power images mostly admit
    divided powers.  The target is sometimes the source ring at a lower
    precision, so that coefficients of the element exceed the target's."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(1, 4))
    ring = ring_of(draw(st.sampled_from(("xy", "x", "ut"))), p, N,
                   draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    target = ring
    if draw(st.booleans()):
        target = ring.at_precision(draw(st.integers(1, N)))
    images = {}
    for g in ring.all_gens():
        pd_image = g in ring.pd_gens and draw(st.integers(0, 9)) > 0
        images[g] = draw(elements(target, pd_image=pd_image, min_terms=1))
    a = draw(elements(ring, max_exp=3, may_be_truncated=True, min_terms=1))
    return a, images, target


class TestSubstituteAgainstElementPath:
    @settings(max_examples=400, deadline=None)
    @given(substitution_cases())
    @example(vanishing_factor())
    def test_substitute_matches(self, case):
        a, images, target = case
        got = outcome(substitute_by, a, images, target)
        assert got == outcome(element_substitute, a, images, target)

    @settings(max_examples=200, deadline=None)
    @given(substitution_cases(), st.data())
    def test_one_map_applied_in_turn(self, case, data):
        """One map applied to several elements of its source in turn gives
        what a fresh map gives for each: the same terms in the same order,
        precisions and truncation flag, or the same exception and message.
        The element path agrees up to term order, which differs where a
        zero at N drops out of its running sum and comes back later."""
        a, images, target = case
        f = RingMap(a.ring, images, target)
        for b in [a] + data.draw(st.lists(elements(a.ring, max_exp=3, may_be_truncated=True),
                                          min_size=1, max_size=4)):
            assert ordered_outcome(substitute, b, f) == (
                ordered_outcome(substitute_by, b, images, target))
            assert outcome(substitute, b, f) == (
                outcome(element_substitute, b, images, target))

    def test_refuses_an_element_of_another_ring(self):
        ring = ring_with_pd()
        f = RingMap(ring, {g: ring.gen(g) for g in ring.all_gens()})
        with pytest.raises(RingMismatch):
            substitute(ring.at_precision(2).gen("x"), f)


def ordered_outcome(fn, *args):
    """The terms in order, (monomial, residue, precision) each, and the
    truncation flag, or the class and message of the exception raised."""
    try:
        e = fn(*args)
    except (ArithmeticError, ValueError, KeyError) as exc:
        return type(exc), str(exc)
    return [(m, c.residue, c.precision) for m, c in e.terms.items()], e.truncated


class TestDerivatives:
    def test_ordinary_partial(self):
        ring = ring_with_pd()
        assert partial_derivative(ring.gen("x") ** 3, "x") == (ring.gen("x") ** 2).scale(3)

    def test_pd_partial_shifts_weight(self):
        ring = ring_with_pd()
        assert partial_derivative(ring.pd_power("u", 4), "u") == ring.pd_power("u", 3)

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            partial_derivative(ring_with_pd().one(), "zz")

    def test_hasse_composition_pd_is_exact(self):
        ring = ring_with_pd(pd_cap=12)
        rng = random.Random(3)
        for _ in range(20):
            e = random_element(rng, ring, max_wt=6)
            for a, b in ((1, 2), (2, 3)):
                lhs = hasse_derivative(hasse_derivative(e, "u", a), "u", b)
                assert lhs == hasse_derivative(e, "u", a + b)

    def test_hasse_composition_ordinary_has_binomial(self):
        from math import comb

        ring = ring_with_pd(poly_cap=12)
        rng = random.Random(4)
        for _ in range(20):
            e = random_element(rng, ring, max_deg=6)
            for a, b in ((1, 1), (1, 2), (2, 2)):
                lhs = hasse_derivative(hasse_derivative(e, "x", a), "x", b)
                assert lhs == hasse_derivative(e, "x", a + b).scale(comb(a + b, a))


class TestExactDivision:
    def test_divides_and_tracks_precision(self):
        ring = ring_with_pd()
        e = ring.gen("x").scale(9) + ring.one().scale(3)
        out = div_p(e)
        want = (ring.gen("x").scale(3) + ring.one()).reduce_precision(3)
        assert out == want
        assert out.min_precision() == 3

    def test_error_names_monomial(self):
        ring = ring_with_pd()
        e = ring.gen("x").scale(3) + ring.gen("y")
        with pytest.raises(NotDivisible, match="y"):
            div_p(e)

    def test_divisibility_probe(self):
        ring = ring_with_pd()
        assert divisible_by_p(ring.gen("x").scale(3))
        assert not divisible_by_p(ring.gen("x").scale(4))


def quotient_terms(fn, *args):
    """Terms in order as (monomial, residue, precision) and the truncation
    flag, or the class of the exception raised."""
    try:
        e = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return [(m, c.residue, c.precision) for m, c in e.terms.items()], e.truncated


@st.composite
def division_pairs(draw):
    """(a, b) for div_p: b absent, arbitrary, equal to a, or a - p*c, so
    that a - b is divisible by p; a without b is sometimes p*c."""
    p = draw(st.sampled_from((2, 3, 5)))
    ring = ring_of(draw(st.sampled_from(sorted(SHAPES))), p, draw(st.integers(1, 4)),
                   draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    a, c = (draw(elements(ring, may_be_truncated=True)) for _ in range(2))
    kind = draw(st.sampled_from(("quotient", "alone", "any", "same", "p-multiple")))
    if kind == "quotient":
        return c.scale(p), None
    if kind == "alone":
        return a, None
    if kind == "any":
        return a, c
    if kind == "same":
        return a, a
    return a, a - c.scale(p)


def same_pair(N):
    ring = ring_of("xy", 3, N, 4, 0)
    a = ring.gen("x").scale(3) + ring.one()
    return a, a


class TestDivPAgainstExactDivision:
    """div_p(a, b) is the exact division of element_sub(a, b) where that
    has terms; where it has none, a zero known mod p^(N-1), and no digit
    at N = 1."""

    @settings(max_examples=400, deadline=None)
    @given(division_pairs())
    @example(same_pair(1))
    @example(same_pair(3))
    def test_matches_the_element_path(self, pair):
        a, b = pair
        want = quotient_terms(exact_div_p_elem, a if b is None else element_sub(a, b), 1)
        if isinstance(want, tuple) and not want[0]:
            ring = a.ring
            p, N = ring.modulus.p, ring.modulus.N
            one = Monomial((0,) * len(ring.ordinary_gens), (0,) * len(ring.pd_gens))
            want = PrecisionExhausted if N == 1 else ([(one, 0, N - 1)], want[1])
        assert quotient_terms(div_p, a, b) == want


def division_outcome(fn, a, b):
    """The terms in order as (monomial, residue, precision) and the
    truncation flag, or the class and message of the exception raised."""
    try:
        e = fn(a, b)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return [(m, c.residue, c.precision) for m, c in e.terms.items()], e.truncated


class TestDivPAgainstTheElementDivision:
    """div_p, the residue division, gives what the element division it
    replaced gives (tests/oracles.py), exceptions and messages included."""

    @settings(max_examples=400, deadline=None)
    @given(division_pairs())
    @example(same_pair(1))
    @example(same_pair(3))
    def test_same_outcome(self, pair):
        a, b = pair
        assert division_outcome(div_p, a, b) == division_outcome(element_div_p, a, b)


class TestOrderAndRendering:
    def test_graded_lex_descending(self):
        ring = ring_with_pd()
        e = ring.gen("x") ** 2 + ring.pd_power("u", 3) + ring.gen("x") * ring.gen("u")
        assert e.render() == "u^[3] + x*u^[1] + x^2"

    def test_negative_coefficients_balanced(self):
        ring = ring_with_pd()
        e = -(ring.gen("x") ** 3)
        assert e.render() == "-x^3"

    def test_constant_rendering(self):
        ring = ring_with_pd()
        assert ring.zero().render() == "0"
        assert (ring.one() - ring.gen("x")).render() == "-x + 1"


class TestWindows:
    def test_weighted_enumeration(self):
        ring = RingSpec(("t1", "t2"), (), Modulus(2, 3), 20, 0)
        monos = window_monomials(ring, 3, {"t1": 1, "t2": 2})
        # base-2 digits: weights 0..3 give exactly 1,1,1,1 with a_1 < 2 unenforced here
        weights = sorted(monomial_weight(m, ring, {"t1": 1, "t2": 2}) for m in monos)
        assert weights == [0, 1, 2, 2, 3, 3]

    def test_respects_ring_caps(self):
        ring = RingSpec(("x",), ("u",), Modulus(3, 2), 2, 1)
        monos = window_monomials(ring, 5)
        assert all(m.ordinary_degree <= 2 and m.pd_weight <= 1 for m in monos)


class TestFreshName:
    def test_appends_underscores_and_takes_the_name(self):
        taken = {"x", "xp", "xp_"}
        assert fresh_name("xp", taken) == "xp__"
        assert fresh_name("xp", taken) == "xp___"
        assert fresh_name("y", taken) == "y" and "y" in taken


class TestRingAxioms:
    @settings(max_examples=40)
    @given(st.integers(0, 10**6))
    def test_distributive_and_associative(self, seed):
        ring = ring_with_pd(poly_cap=30, pd_cap=30)
        rng = random.Random(seed)
        a = random_element(rng, ring, max_deg=1, max_wt=1, terms=2)
        b = random_element(rng, ring, max_deg=1, max_wt=1, terms=2)
        c = random_element(rng, ring, max_deg=1, max_wt=1, terms=2)
        assert (a + b) * c == a * c + b * c
        lhs = (a * b) * c
        assert not lhs.truncated
        assert lhs == a * (b * c)


def full_precision_element(draw, ring, max_exp, max_pd):
    """One to four terms, every coefficient at the ring's modulus, those
    outside the caps left out, and either truncation flag."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        o = tuple(draw(st.integers(0, max_exp)) for _ in ring.ordinary_gens)
        d = tuple(draw(st.integers(0, max_pd)) for _ in ring.pd_gens)
        if sum(o) <= ring.poly_degree_cap and sum(d) <= ring.pd_degree_cap:
            terms[Monomial(o, d)] = Scalar(
                draw(st.integers(0, ring.modulus.cardinality - 1)), ring.modulus
            )
    return Element(ring, terms, draw(st.booleans()))


@st.composite
def residue_pairs(draw):
    """(ring, a, b, x, y, c): two elements known to N everywhere and their
    _Residues, whose degree bounds may be loose, in rings with or without
    divided-power generators whose caps may or may not bind, and a factor
    c from the delta-ring identities: 1, -1, p or C(p, i)/p."""
    p = draw(st.sampled_from((2, 3, 5)))
    pd = draw(st.sampled_from(((), ("u",), ("u", "v"))))
    ring = RingSpec(("x", "y"), pd, Modulus(p, draw(st.integers(1, 3))),
                    draw(st.integers(0, 10)), draw(st.integers(0, 4)) if pd else 0)
    a = full_precision_element(draw, ring, 2, 2)
    b = full_precision_element(draw, ring, 2, 2)

    def residues(e):
        x = _Residues.of(e)
        return _Residues(ring, x.terms, x.degree + draw(st.integers(0, 3)), x.truncated)

    c = draw(st.sampled_from([1, -1, p] + [comb(p, i) // p for i in range(1, p)]))
    return ring, a, b, residues(a), residues(b), c


@st.composite
def partial_cases(draw):
    """(ring, element known to N everywhere, generator) on 1-3 ordinary
    generators at N = 1 or 3, exponents 0 and multiples of p coming up
    often."""
    p = draw(st.sampled_from((2, 3, 5)))
    gens = ("x", "y", "z")[:draw(st.integers(1, 3))]
    ring = RingSpec(gens, (), Modulus(p, draw(st.sampled_from((1, 3)))),
                    draw(st.integers(1, 9)), 0)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        o = tuple(draw(st.sampled_from((0, 1, 2, p, p + 1, 2 * p))) for _ in gens)
        if sum(o) <= ring.poly_degree_cap:
            terms[Monomial(o, ())] = Scalar(
                draw(st.integers(1, ring.modulus.cardinality - 1)), ring.modulus)
    return ring, Element(ring, terms, draw(st.booleans())), draw(st.sampled_from(gens))


def partial_case(N, gen):
    """x^3 y + 2y + x^2 over Z/3^N: d/dx of x^3 y is 3x^2 y, zero at N = 1,
    2y has no x, and x^2 has no y, whose field is the lower one."""
    ring = RingSpec(("x", "y"), (), Modulus(3, N), 6, 0)
    x, y = ring.gen("x"), ring.gen("y")
    return ring, x ** 3 * y + y.scale(2) + x ** 2, gen


def read_back(ring, x):
    """x as an element, after checking that it holds reduced residues,
    no zero, and keys within its degree bound."""
    assert all(0 < r < ring.modulus.cardinality for r in x.terms.values())
    e = _from_packed(ring, x.terms, x.precs, x.truncated)
    assert all(m.ordinary_degree <= x.degree for m in e.terms)
    return [(m, c.residue, c.precision) for m, c in e.terms.items()], e.truncated


def in_order(e):
    return [(m, c.residue, c.precision) for m, c in e.terms.items()], e.truncated


@st.composite
def low_precision_pairs(draw):
    """Two elements of one ring, with coefficients and zeros known below
    N, either truncation flag, and sometimes equal."""
    p = draw(st.sampled_from((2, 3, 5)))
    ring = ring_of(draw(st.sampled_from(sorted(SHAPES))), p, draw(st.integers(1, 4)),
                   draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    a = draw(elements(ring, may_be_truncated=True))
    return a, a if draw(st.booleans()) else draw(elements(ring, may_be_truncated=True))


class TestSharedResidues:
    @settings(max_examples=300, deadline=None)
    @given(residue_pairs())
    def test_product_into_is_the_product_loop(self, case):
        # twice into one accumulator, the second time from cached entries
        ring, _, _, x, y, c = case
        codec, N = ring._codec, ring.modulus.N

        def fresh(z, factor=1):
            return [codec.key_entry(k) + (factor * r, N, 0) for k, r in z.terms.items()]

        got, want = {}, {}
        flags = [_product_into(x, y, c, got) for _ in range(2)]
        wants = [_multiply_into(fresh(x), fresh(y, c), ring.poly_degree_cap,
                                ring.pd_degree_cap, False, want, {}) for _ in range(2)]
        assert list(got.items()) == list(want.items())
        assert flags == wants

    @settings(max_examples=300, deadline=None)
    @given(residue_pairs())
    def test_product_and_sum_are_the_element_ones(self, case):
        ring, a, b, x, y, _ = case
        assert read_back(ring, x * y) == in_order(mul(a, b))
        assert read_back(ring, x + y) == in_order(a + b)

    @settings(max_examples=300, deadline=None)
    @given(residue_pairs())
    def test_power_is_the_element_power(self, case):
        ring, a, _, x, _, _ = case
        for n in range(ring.modulus.p + 1):
            assert read_back(ring, x ** n) == in_order(a ** n)

    @settings(max_examples=300, deadline=None)
    @given(low_precision_pairs())
    def test_of_keeps_precisions_and_gives_the_element_back(self, pair):
        a, b = pair
        x, y = _Residues.of(a), _Residues.of(b)
        assert in_order(x.element()) == in_order(a)
        assert x.min_precision() == a.min_precision()
        assert (x == y) == (a == b)

    @settings(max_examples=300, deadline=None)
    @given(partial_cases())
    @example(partial_case(1, "x"))
    @example(partial_case(3, "x"))
    @example(partial_case(1, "y"))
    def test_partial_is_partial_derivative(self, case):
        ring, e, gen = case
        got = _Residues.of(e).partial(ring.ordinary_index(gen))
        assert read_back(ring, got) == in_order(partial_derivative(e, gen))
