import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prism_forge import deltaring, pdpoly
from prism_forge.padic import Modulus, PrecisionExhausted, Scalar
from prism_forge.deltaring import (
    FrobeniusLift,
    NotAFrobeniusLift,
    apply_phi,
    check_delta_axioms,
    delta,
    delta_iterate,
)
from prism_forge.pdpoly import Element, Monomial, RingSpec, _pack, equal_reduced
import oracles
from oracles import (
    element_apply_phi,
    element_delta,
    fermat_quotient_delta,
    frac_divided_coefficient,
    frac_from_element,
    frac_pow,
    frac_substitute,
    frac_to_residue,
    free_phi_ring,
)
from cases import SHAPES, elements, outcome, ring_of, vanishing_factor

ONE = Monomial((0,), ())


def line_lift(p=2, N=3, extra=(), poly_cap=24):
    ring = RingSpec(("x",) + tuple(extra), (), Modulus(p, N), poly_cap, 0)
    images = {g: ring.gen(g) ** p for g in ring.ordinary_gens}
    return FrobeniusLift(ring, images)


class TestLiftValidation:
    def test_accepts_power_lift(self):
        line_lift()

    def test_rejects_wrong_congruence(self):
        ring = RingSpec(("x",), (), Modulus(2, 3), 8, 0)
        with pytest.raises(NotAFrobeniusLift):
            FrobeniusLift(ring, {"x": ring.gen("x") ** 2 + ring.one()})

    def test_rejects_missing_image(self):
        ring = RingSpec(("x", "y"), (), Modulus(2, 3), 8, 0)
        with pytest.raises(NotAFrobeniusLift):
            FrobeniusLift(ring, {"x": ring.gen("x") ** 2})

    def test_pd_generator_image_must_be_divisible(self):
        ring = RingSpec((), ("t",), Modulus(3, 3), 4, 6)
        with pytest.raises(NotAFrobeniusLift):
            FrobeniusLift(ring, {"t": ring.gen("t")})
        FrobeniusLift(ring, {"t": ring.gen("t").scale(3)})


class TestDelta:
    def test_shifted_argument(self):
        # p=2, phi(x)=x^2: delta(x+2) = -2x-1, i.e. 2x+3 mod 4
        lift = line_lift(p=2, N=3)
        ring = lift.ring
        out = delta(lift, ring.gen("x") + 2)
        want = (ring.gen("x").scale(2) + 3).reduce_precision(2)
        assert out == want

    def test_nontrivial_lift_iterates(self):
        # p=2, N=4, phi(y)=y^2+2y: delta(y) = y, and the second iterate is
        # still y, carried at precision 2 on its weakest tracked coefficient
        ring = RingSpec(("y",), (), Modulus(2, 4), 16, 0)
        lift = FrobeniusLift(ring, {"y": ring.gen("y") ** 2 + ring.gen("y").scale(2)})
        d1 = delta(lift, ring.gen("y"))
        assert d1 == ring.gen("y").reduce_precision(3)
        d2 = delta_iterate(lift, ring.gen("y"), 2)
        assert equal_reduced(d2, ring.gen("y"))
        assert d2.min_precision() == 2

    @pytest.mark.parametrize("p,N", [(2, 3), (3, 3), (5, 2)])
    def test_fermat_quotient_on_constants(self, p, N):
        lift = line_lift(p=p, N=N)
        ring = lift.ring
        for c in range(0, p ** N, max(1, p ** N // 7)):
            out = delta(lift, ring.constant(c))
            want = fermat_quotient_delta(c, p, N)
            # where delta vanishes it is a zero known to N - 1 digits
            low = Scalar(want, Modulus(p, N - 1))
            assert out == Element(ring, {ONE: low})

    def test_iteration_needs_headroom(self):
        lift = line_lift(p=2, N=2)
        with pytest.raises(PrecisionExhausted):
            delta_iterate(lift, lift.ring.gen("x"), 2)


class TestFreePhiRing:
    def test_tower_images(self):
        lift = free_phi_ring(Modulus(3, 4), names=("y",), level_cap=2)
        ring = lift.ring
        assert ring.ordinary_gens == ("y_0", "y_1", "y_2")
        assert delta(lift, ring.gen("y_0")) == ring.gen("y_1").reduce_precision(3)
        assert delta(lift, ring.gen("y_1")) == ring.gen("y_2").reduce_precision(3)
        assert delta(lift, ring.gen("y_2")).is_zero()

    def test_second_iterate(self):
        lift = free_phi_ring(Modulus(3, 4), names=("y",), level_cap=2)
        ring = lift.ring
        d2 = delta_iterate(lift, ring.gen("y_0"), 2)
        assert equal_reduced(d2, ring.gen("y_2"))
        assert d2.min_precision() == 2

    def test_phi_of_divided_tower(self):
        lift = free_phi_ring(Modulus(2, 3), names=2, level_cap=1)
        ring = lift.ring
        out = apply_phi(lift, ring.gen("u1_0") * ring.gen("u2_0"))
        want = (ring.gen("u1_0") ** 2 + ring.gen("u1_1").scale(2)) * (
            ring.gen("u2_0") ** 2 + ring.gen("u2_1").scale(2)
        )
        assert out == want


class TestAxiomSuite:
    def test_plain_lift_passes(self):
        report = check_delta_axioms(line_lift(p=3, N=3, extra=("y",), poly_cap=40),
                                    samples=25, seed=11)
        assert report.passed
        assert report.checked + report.skipped == 25

    def test_tower_lift_passes(self):
        lift = free_phi_ring(Modulus(2, 3), names=("a",), level_cap=1, poly_degree_cap=30)
        report = check_delta_axioms(lift, samples=25, seed=5)
        assert report.passed


class TestSkippedPairs:
    def test_a_skipped_pair_fails_the_check(self):
        # the lift of the CLI's skipped-pairs case: x^3 + 3x^5 takes phi(ab)
        # past the cap 12 for some pairs
        ring = RingSpec(("x",), (), Modulus(3, 3), 12, 6)
        x = ring.gen("x")
        lift = FrobeniusLift(ring, {"x": x ** 3 + (x ** 5).scale(3)})
        report = check_delta_axioms(lift, samples=60, seed=0)
        assert report.skipped == 28 and not report.failures
        assert not report.passed


def divided_lift(p, N, poly_cap, pd_cap):
    ring = RingSpec(("u",), ("t",), Modulus(p, N), poly_cap, pd_cap)
    return FrobeniusLift(ring, {g: ring.gen(g) ** p for g in ring.all_gens()})


class TestVanishingDelta:
    def test_keeps_one_digit_less(self):
        # phi(a) - a^3 = -27*6*t^[3] + 27^3*6*t^[3] vanishes mod 81, while
        # (phi(a) - a^3) / 3 for the lift 54 of a is 27 mod 81: only three
        # digits of delta(a) are known
        lift = divided_lift(3, 4, 12, 12)
        out = delta(lift, lift.ring.gen("t").scale(-27))
        assert out.is_zero()
        assert out.min_precision() == 3

    def test_phi_keeps_the_lost_digit(self):
        # the zero delta(-27*t) is known mod 3^3; phi of it is too
        ring = RingSpec(("u",), ("t",), Modulus(3, 4), 30, 12)
        lift = FrobeniusLift(
            ring, {"u": ring.gen("u") ** 3, "t": ring.gen("t").scale(3)}
        )
        zero = delta(lift, ring.gen("t").scale(-27))
        assert zero.is_zero() and zero.min_precision() == 3
        out = apply_phi(lift, zero)
        assert out.is_zero() and out.min_precision() == 3

    def test_refuses_at_precision_one(self):
        lift = line_lift(p=2, N=1)
        with pytest.raises(PrecisionExhausted):
            delta(lift, lift.ring.gen("x"))

    @pytest.mark.parametrize("seed", [1019, 1056])
    def test_axioms_hold_on_divided_powers(self, seed):
        report = check_delta_axioms(divided_lift(2, 4, 30, 12), samples=100, seed=seed)
        assert report.failures == []
        assert report.passed


# -- against the element path and the rational model ---------------------------


def delta_through_elements(lift, a):
    """element_delta with the zero kept: a quotient with no terms becomes a
    zero known to N - 1 digits, and is refused at N = 1."""
    out = element_delta(lift, a)
    if out.terms:
        return out
    ring = lift.ring
    p, N = ring.modulus.p, ring.modulus.N
    if N == 1:
        raise PrecisionExhausted("no digit left")
    one = Monomial((0,) * len(ring.ordinary_gens), (0,) * len(ring.pd_gens))
    return Element(ring, {one: Scalar(0, Modulus(p, N - 1))}, out.truncated)


def make_lift(shape, p, N, poly_cap, pd_cap, twisted):
    """g -> g^p, or g -> g^p + p*g when twisted."""
    ring = ring_of(shape, p, N, poly_cap, pd_cap)
    images = {}
    for g in ring.all_gens():
        images[g] = ring.gen(g) ** p
        if twisted:
            images[g] = images[g] + ring.gen(g).scale(p)
    return FrobeniusLift(ring, images)


@st.composite
def lift_cases(draw):
    """A lift on W[x,y], W[x] or W[u]<t> with caps tight enough to
    overflow, and an element with low-precision coefficients."""
    p = draw(st.sampled_from((2, 3, 5)))
    lift = make_lift(
        draw(st.sampled_from(("xy", "x", "ut"))), p, draw(st.integers(1, 4)),
        draw(st.integers(1, 4 * p)), draw(st.integers(1, 2 * p)), draw(st.booleans()),
    )
    return lift, draw(elements(lift.ring, min_terms=1))


def vanishing_factor_lift():
    a, images, ring = vanishing_factor()
    return FrobeniusLift(ring, images), a


def mixed_precision_square():
    """a = c + x + x^2 over Z/8 with c = 1 known mod 4: the x^2 coefficient
    of a^2 is 1 + 2c, known mod 4, and that of phi(a) is 1, known mod 8,
    so their difference is only known mod 4."""
    lift = make_lift("x", 2, 3, 8, 0, False)
    ring = lift.ring
    terms = {Monomial((e,), ()): Scalar(1, ring.modulus) for e in (1, 2)}
    terms[Monomial((0,), ())] = Scalar(1, Modulus(2, 2))
    return lift, Element(ring, terms)


class TestAgainstElementPath:
    @settings(max_examples=300, deadline=None)
    @given(lift_cases())
    @example(vanishing_factor_lift())
    def test_apply_phi_matches(self, case):
        lift, a = case
        assert outcome(apply_phi, lift, a) == outcome(element_apply_phi, lift, a)

    @settings(max_examples=300, deadline=None)
    @given(lift_cases())
    @example(mixed_precision_square())
    def test_delta_matches(self, case):
        lift, a = case
        assert outcome(delta, lift, a) == outcome(delta_through_elements, lift, a)

    def test_vanishing_factor(self):
        lift, a = vanishing_factor_lift()
        out = apply_phi(lift, a)
        assert out.render() == "2*x^2*y^2"
        assert not out.truncated


@st.composite
def integer_cases(draw):
    """(p, N, shape, twisted, terms): terms of ordinary degree and pd
    weight at most 2 with integer coefficients in [0, p^N)."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(("xy", "ut")))
    ordinary, pd = SHAPES[shape]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        o = tuple(draw(st.integers(0, 2)) for _ in ordinary)
        d = tuple(draw(st.integers(0, 2)) for _ in pd)
        if sum(o) <= 2:
            terms.append((o, d, draw(st.integers(0, p ** N - 1))))
    return p, N, shape, draw(st.booleans()), terms


class TestAgainstRationalModel:
    @settings(max_examples=150, deadline=None)
    @given(integer_cases())
    @example((3, 4, "ut", False, [((0,), (1,), 54)]))
    def test_delta_is_the_fermat_quotient(self, case):
        """delta(a) against (phi(b) - b^p) / p over Q for the integer lift b
        of a, at the precision delta claims: a coefficient's own, and
        min_precision() at a monomial it has no term for."""
        p, N, shape, twisted, terms = case
        # caps 4p hold a^p and phi(a) for a of degree and weight <= 2
        lift = make_lift(shape, p, N, 4 * p, 4 * p, twisted)
        ring = lift.ring
        a = ring.zero()
        for o, d, c in terms:
            a = a + Element(ring, {Monomial(o, d): Scalar(c, ring.modulus)})
        out = delta(lift, a)
        assert not out.truncated

        one = ((0,) * len(ring.ordinary_gens), (0,) * len(ring.pd_gens))
        b = frac_from_element(a)
        images = [frac_from_element(img) for img in
                  (lift.images[g] for g in ring.all_gens())]
        phi_b = frac_substitute(b, images, one)
        b_p = frac_pow(b, p, one)
        quotient = {k: (phi_b.get(k, 0) - b_p.get(k, 0)) / p
                    for k in set(phi_b) | set(b_p)}
        got = {(m.ordinary, m.pd): c for m, c in out.terms.items()}
        for key in set(quotient) | set(got):
            want = frac_divided_coefficient(quotient, key)
            assert want.denominator % p, key
            c = got.get(key)
            prec = c.precision if c is not None else out.min_precision()
            residue = c.residue if c is not None else 0
            assert (residue - frac_to_residue(want, p, prec)) % p ** prec == 0, key


# -- the packed axiom check against the element check --------------------------


def axiom_outcome(check, lift, samples, seed):
    """(samples, checked, skipped, each witness field by field) of a
    report, or the class of the exception raised."""
    try:
        rep = check(lift, samples=samples, seed=seed)
    except (ArithmeticError, ValueError, KeyError) as exc:
        return type(exc)
    witnesses = [(w.axiom, w.a, w.b, w.discrepancy) for w in rep.failures]
    return rep.samples, rep.checked, rep.skipped, witnesses


@st.composite
def axiom_lifts(draw):
    """A lift on W[x,y], W[x] or W[u]<t>, p in {2, 3, 5}, N in 1-4, plain
    or twisted, with caps down to where pairs are skipped; some images
    gain a term with a p-divisible coefficient known below N."""
    p = draw(st.sampled_from((2, 3, 5)))
    # N = 1 last, since the strategy favours the first: it only refuses
    N = draw(st.sampled_from((4, 3, 2, 1)))
    lift = make_lift(
        draw(st.sampled_from(("xy", "x", "ut"))), p, N,
        draw(st.integers(2, 5 * p)), draw(st.integers(1, 3 * p)), draw(st.booleans()),
    )
    ring = lift.ring
    images = dict(lift.images)
    for g in ring.all_gens():
        if N == 1 or not draw(st.booleans()):
            continue
        o = tuple(draw(st.integers(0, 2)) for _ in ring.ordinary_gens)
        d = tuple(draw(st.integers(0, 1)) for _ in ring.pd_gens)
        if sum(o) > ring.poly_degree_cap or sum(d) > ring.pd_degree_cap:
            continue
        # favouring N - 1: a coefficient known mod p alone refuses division
        prec = N - 1 - draw(st.integers(0, N - 2))
        c = Scalar(p * draw(st.integers(0, p ** prec - 1)), Modulus(p, prec))
        images[g] = images[g] + Element(ring, {Monomial(o, d): c})
    return FrobeniusLift(ring, images)


def skipping_lift():
    """The lift of TestSkippedPairs: 28 of 60 pairs at seed 0 leave the caps."""
    ring = RingSpec(("x",), (), Modulus(3, 3), 12, 6)
    x = ring.gen("x")
    return FrobeniusLift(ring, {"x": x ** 3 + (x ** 5).scale(3)})


def low_precision_lift():
    """phi(u) = u^2 + 2*u^2 known mod 2 only, phi(t) = 2*t, over Z/8."""
    ring = RingSpec(("u",), ("t",), Modulus(2, 3), 12, 6)
    u = ring.gen("u")
    low = Element(ring, {Monomial((2,), (0,)): Scalar(2, Modulus(2, 1))})
    return FrobeniusLift(ring, {"u": u ** 2 + low, "t": ring.gen("t").scale(2)})


def broken_square_lift(p, N):
    """x -> x^p on W[x], except that the image powers of the lift hold
    phi(x^2) = (1 + p)*x^(2p): phi stays congruent to Frobenius and
    additive, so every delta exists, but it is not multiplicative and the
    product axiom fails."""
    ring = RingSpec(("x",), (), Modulus(p, N), 30, 0)
    x = ring.gen("x")
    lift = FrobeniusLift(ring, {"x": x ** p})
    wrong = (x ** (2 * p)).scale(1 + p)
    lift.phi._table[(False, 0, 2)] = (_pack(wrong, ring._codec, p, True), False, False)
    return lift


def raised(check, lift, samples, seed):
    """(class, message) of the exception the check raises, or None."""
    try:
        check(lift, samples=samples, seed=seed)
    except (ArithmeticError, ValueError, KeyError) as exc:
        return type(exc), str(exc)
    return None


def unchecked_lift():
    """x -> x^3 + x^2 on W[x,y] over Z/27, x exempt from the congruence
    test: phi(a) - a^3 is not divisible by 3, and NotDivisible names the
    first such coefficient in div_p's term order."""
    ring = RingSpec(("x", "y"), (), Modulus(3, 3), 12, 0)
    x, y = ring.gen("x"), ring.gen("y")
    return FrobeniusLift(ring, {"x": x ** 3 + x ** 2, "y": y ** 3},
                         unchecked=frozenset({"x"}))


def unit_pd_image_lift():
    """t -> 1 on W[u]<t>, t exempt from the divisibility test: divided
    powers of the image do not exist."""
    ring = RingSpec(("u",), ("t",), Modulus(3, 3), 12, 6)
    return FrobeniusLift(ring, {"u": ring.gen("u") ** 3, "t": ring.one()},
                         unchecked=frozenset({"t"}))


class TestPackedAgainstElementCheck:
    @settings(max_examples=300, deadline=None)
    @given(axiom_lifts(), st.integers(1, 8), st.integers(0, 1 << 16))
    @example(skipping_lift(), 60, 0)
    @example(low_precision_lift(), 40, 1)
    @example(divided_lift(5, 4, 30, 12), 8, 3)
    # phi(g) = g^2 + 2g over Z/8: phi(x*y)'s chain carries 2x, of valuation
    # 1, between its factors, and a drawn 4*x*y has v(c) + 1 = N
    @example(make_lift("xy", 2, 3, 10, 1, True), 1, 10)
    # a drawn pair whose delta vanishes: the zero known mod p^(N-1)
    @example(make_lift("xy", 2, 2, 10, 1, True), 1, 17)
    def test_same_report(self, lift, samples, seed):
        assert axiom_outcome(check_delta_axioms, lift, samples, seed) == (
            axiom_outcome(oracles.check_delta_axioms, lift, samples, seed)
        )

    @pytest.mark.parametrize("make", [unchecked_lift, unit_pd_image_lift,
                                      lambda: make_lift("xy", 2, 1, 10, 1, False)],
                             ids=["not-divisible", "pd-image", "precision-one"])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_exception_and_message(self, make, seed):
        lift = make()
        got = raised(check_delta_axioms, lift, 8, seed)
        assert got is not None
        assert got == raised(oracles.check_delta_axioms, lift, 8, seed)
        # with no sample, no delta runs and nothing is refused
        assert axiom_outcome(check_delta_axioms, lift, 0, seed) == (0, 0, 0, [])
        assert axiom_outcome(oracles.check_delta_axioms, lift, 0, seed) == (0, 0, 0, [])

    @pytest.mark.parametrize("p", [2, 3])
    def test_same_witnesses_of_failing_pairs(self, p):
        lift = broken_square_lift(p, 3)
        got = axiom_outcome(check_delta_axioms, lift, 20, 0)
        assert got[3] and all(w[0] == "product" for w in got[3])
        assert got == axiom_outcome(oracles.check_delta_axioms, lift, 20, 0)

    def test_reads_images_above_the_ring_precision_mod_p_n(self):
        ring = RingSpec(("x",), (), Modulus(2, 2), 8, 0)
        x, x2, x3 = Monomial((1,), ()), Monomial((2,), ()), Monomial((3,), ())
        high = Modulus(2, 4)
        lift = FrobeniusLift(ring, {"x": Element(ring, {
            x2: Scalar(5, high), x: Scalar(6, high), x3: Scalar(4, high)})})
        reduced = FrobeniusLift(ring, {"x": ring.gen("x") ** 2 + ring.gen("x").scale(2)})
        assert lift.images == reduced.images
        assert axiom_outcome(check_delta_axioms, lift, 20, 0) == (
            axiom_outcome(check_delta_axioms, reduced, 20, 0))


@st.composite
def one_pass_cases(draw):
    """A lift as axiom_lifts draws it, whose images may gain a p-divisible
    term known to N, or a unit term with the generator left unchecked,
    and an element known to N, in the drawn term order."""
    lift = draw(axiom_lifts())
    ring = lift.ring
    p, N = ring.modulus.p, ring.modulus.N
    images, unchecked = dict(lift.images), set()
    for g in ring.all_gens():
        kind = draw(st.sampled_from(("none", "divisible", "unit")))
        if kind == "none":
            continue
        o = tuple(draw(st.integers(0, 2)) for _ in ring.ordinary_gens)
        d = tuple(draw(st.integers(0, 1)) for _ in ring.pd_gens)
        if sum(o) > ring.poly_degree_cap or sum(d) > ring.pd_degree_cap:
            continue
        c = 1 if kind == "unit" else p * draw(st.integers(0, p ** (N - 1) - 1))
        if kind == "unit":
            unchecked.add(g)
        images[g] = images[g] + Element(ring, {Monomial(o, d): Scalar(c, ring.modulus)})
    lift = FrobeniusLift(ring, images, unchecked=frozenset(unchecked))
    a = draw(elements(ring, min_terms=1, may_be_truncated=True))
    return lift, Element(ring, {m: Scalar(c.residue, ring.modulus)
                                for m, c in a.terms.items()}, a.truncated)


def twisted_order_case():
    """phi(x) = x^2 + 2x and phi(y) = y^2 - 2xy over Z/8, and a = 2x^2y + 2
    + 4xy + 2x in that order: phi(x*y)'s chain carries 2x, of valuation
    1, and 4 * 2x is a zero, so the chain of 4xy leaves out keys that the
    memo image of x*y holds and the later term 2x inserts."""
    ring = RingSpec(("x", "y"), (), Modulus(2, 3), 30, 0)
    x, y = ring.gen("x"), ring.gen("y")
    lift = FrobeniusLift(ring, {"x": x ** 2 + x.scale(2), "y": y ** 2 - (x * y).scale(2)})
    terms = {(2, 1): 2, (0, 0): 2, (1, 1): 4, (1, 0): 2}
    return lift, Element(ring, {Monomial(o, ()): Scalar(c, ring.modulus)
                                for o, c in terms.items()})


def zero_sum_case():
    """phi(x) = x^3 + 15x + 24y^2 and phi(y) = y^3 + 21x^2 + 18x^2y over
    Z/27, and a = x^2y + 6xy: the image of x^2*y has the sum 324 at
    x^3*y^3, zero mod 27, and 6xy adds 6 there, so the key keeps the
    place that x^2*y's term gives it."""
    ring = RingSpec(("x", "y"), (), Modulus(3, 3), 30, 0)
    x, y = ring.gen("x"), ring.gen("y")
    lift = FrobeniusLift(ring, {
        "x": x ** 3 + x.scale(15) + (y ** 2).scale(24),
        "y": y ** 3 + (x ** 2).scale(21) + (x ** 2 * y).scale(18),
    })
    return lift, (x ** 2 * y) + (x * y).scale(6)


def higher_degree_case():
    """phi(x) = x^2 + 2y^3 over Z/4: delta(x) = y^3 is of higher degree
    than x^2, so its degree bound must come from the image of x."""
    ring = RingSpec(("x", "y"), (), Modulus(2, 2), 30, 0)
    x, y = ring.gen("x"), ring.gen("y")
    return FrobeniusLift(ring, {"x": x ** 2 + (y ** 3).scale(2), "y": y ** 2}), x


def packed_delta(lift, a):
    """delta(a) as _PackedLift forms it, phi(x).div_p(x^p), as an element,
    after checking that the degree bound the delta carries holds for its
    terms."""
    ops = deltaring._PackedLift(lift)
    ring = lift.ring
    x = deltaring._Residues(ring, {ring._codec.entry(m)[0]: c.residue for m, c in a.terms.items()},
                            a.ordinary_degree(), a.truncated)
    out = ops.phi(x).div_p(x ** ring.modulus.p)
    assert all(ring._codec.key_entry(k)[1] <= out.degree for k in out.terms)
    return pdpoly._from_packed(ring, out.terms, out.precs, out.truncated)


def ordered_outcome(fn, lift, a):
    """The terms in order, (residue, precision) each, and the truncation
    flag, or the class and message of the exception raised."""
    try:
        e = fn(lift, a)
    except (ArithmeticError, ValueError, KeyError) as exc:
        return type(exc), str(exc)
    return [(m, c.residue, c.precision) for m, c in e.terms.items()], e.truncated


class TestOnePassDelta:
    @settings(max_examples=300, deadline=None)
    @given(one_pass_cases())
    @example(twisted_order_case())
    @example(zero_sum_case())
    @example(higher_degree_case())
    def test_same_terms_in_the_same_order_as_delta(self, case):
        lift, a = case
        assert ordered_outcome(packed_delta, lift, a) == ordered_outcome(delta, lift, a)

    def test_no_substitution_chain_and_each_image_formed_once(self, monkeypatch):
        # g -> g^p on W[x,y] at full precision: every term of every delta
        # scales the lift's memo image of its monomial
        ring = RingSpec(("x", "y"), (), Modulus(3, 4), 30, 0)
        lift = FrobeniusLift(ring, {g: ring.gen(g) ** 3 for g in ring.all_gens()})
        chains = []
        real_chain = pdpoly._substitute_into

        def chain(*args):
            chains.append(args)
            return real_chain(*args)

        monkeypatch.setattr(pdpoly, "_substitute_into", chain)
        formed = []
        real_form = pdpoly.RingMap._form_image

        def form(self, mono):
            formed.append(mono)
            return real_form(self, mono)

        monkeypatch.setattr(pdpoly.RingMap, "_form_image", form)
        for seed in (0, 1):
            report = check_delta_axioms(lift, samples=50, seed=seed)
            assert (report.checked, report.skipped, report.failures) == (50, 0, [])
        assert chains == []
        assert formed and len(formed) == len(set(formed))


class TestDividedPowerLines:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_no_failure_and_no_skip(self, p):
        # W[u]<t> at caps 30/12 and N = 4: no pair leaves the caps, and no
        # delta claims a digit it does not have
        lift = divided_lift(p, 4, 30, 12)
        for seed in range(12):
            report = check_delta_axioms(lift, samples=100, seed=seed)
            assert (report.checked, report.skipped, report.failures) == (100, 0, []), seed
