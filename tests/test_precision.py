"""Precision honesty across layers: the same construction at precision N
and at N + k agrees at every monomial, modulo the digits the precision-N
result claims there.

A term claims its coefficient's precision; a monomial with no term is a
zero, claimed to min_precision() of the result.  Elements are compared
by monomial, so the two constructions need only share generator names.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prism_forge.padic import Modulus, PrecisionExhausted
from prism_forge.pdpoly import RingSpec, div_p
from prism_forge.deltaring import FrobeniusLift, apply_phi, delta
from prism_forge.derham import polynomial_p_connection
from prism_forge.envelopes import (
    CoordinateImmersion,
    EnvelopeKind,
    prismatic_envelope_aligned,
    prismatic_envelope_stages,
    two_gen_mixed_envelope,
)
from prism_forge.transforms import RelativeFrobenius, f_transform

EXTRA = 4


def disagreements(low, high):
    """Monomials where low, at precision N, and high, the same at a higher
    precision, differ modulo the digits both claim there."""
    p = low.ring.modulus.p
    floor_low, floor_high = low.min_precision(), high.min_precision()
    bad = []
    for m in dict.fromkeys([*low.terms, *high.terms]):
        a, b = low.terms.get(m), high.terms.get(m)
        claim = min(
            a.precision if a is not None else floor_low,
            b.precision if b is not None else floor_high,
        )
        diff = (a.residue if a is not None else 0) - (b.residue if b is not None else 0)
        if diff % p ** claim:
            bad.append(m)
    return bad


def ambient(p, N, gens, twisted=False, cap=16):
    """W[gens] with phi(g) = g^p, plus p*x^2 on y when twisted."""
    ring = RingSpec(gens, (), Modulus(p, N), cap, 0)
    images = {g: ring.gen(g) ** p for g in gens}
    if twisted:
        images["y"] = images["y"] + (ring.gen("x") ** 2).scale(p)
    return FrobeniusLift(ring, images)


def aligned(p, N, gens, twisted=False):
    lift = ambient(p, N, gens, twisted)
    return prismatic_envelope_aligned(CoordinateImmersion(lift, ("x",)), 3 * p)


def stages(p, N, gens, count, twisted=False):
    lift = ambient(p, N, gens, twisted)
    return prismatic_envelope_stages(CoordinateImmersion(lift, ("x",)), count)


def mixed(p, N):
    return two_gen_mixed_envelope(Modulus(p, N), 3 * p, 3 * p)


def image_disagreements(make, N):
    """Generator -> disagreeing monomials of its Frobenius image, between
    make(N) and make(N + EXTRA)."""
    low, high = make(N), make(N + EXTRA)
    out = {}
    for g in low.ring.all_gens():
        bad = disagreements(low.lift.images[g], high.lift.images[g])
        if bad:
            out[g] = bad
    return out


# -- the envelope images that claimed lost digits ---------------------------


class TestVanishingQuotients:
    @pytest.mark.parametrize("gens", [("x",), ("x", "y")])
    @pytest.mark.parametrize("p, N", [(2, 3), (3, 4)])
    def test_aligned_image_of_t(self, gens, p, N):
        # phi(x) = x^p under x -> p*t is p^p * p! * t^[p], so
        # psi(t) = p^(p-1) * p! * t^[p]: 4*t^[2] mod 8 at p = 2, 54*t^[3]
        # mod 81 at p = 3, each zero mod p^(N-1) but not mod p^N
        assert image_disagreements(lambda n: aligned(p, n, gens), N) == {}
        psi = aligned(p, N, gens).lift.images["t"]
        assert psi.is_zero() and psi.min_precision() == N - 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_one_stage_at_precision_p(self, p):
        for gens in (("x",), ("x", "y")):
            assert image_disagreements(lambda n: stages(p, n, gens, 1), p) == {}

    def test_two_stages_p3(self):
        # psi(t1) = 9*t1^3 mod 27: zero mod 9 but not mod 27
        assert image_disagreements(lambda n: stages(3, n, ("x", "y"), 2), 3) == {}
        psi = stages(3, 3, ("x", "y"), 2).lift.images["t1"]
        assert psi.is_zero() and psi.min_precision() == 2

    def test_rho_of_phi_x(self):
        p, N = 2, 3
        pres = aligned(p, N, ("x",))
        out = pres.rho(pres.ambient.images["x"])
        assert out.is_zero() and out.min_precision() == N - 1


# -- the property --------------------------------------------------------------


@st.composite
def integer_polys(draw, gens, cut=None, max_terms=3):
    """{exponents: integer} with at most max_terms terms of degree <= 2
    per generator; exponents of the cut generator start at 1."""
    out = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(
            draw(st.integers(1 if g == cut else 0, 2)) for g in gens
        )
        out[exps] = draw(st.integers(-30, 30))
    return out


def build(ring, poly, gens):
    """The integer polynomial poly over gens, in ring."""
    out = ring.zero()
    for exps, c in poly.items():
        term = ring.constant(c)
        for g, e in zip(gens, exps):
            if e:
                term = term * (ring.gen(g) ** e if g in ring.ordinary_gens
                               else ring.pd_power(g, e))
        out = out + term
    return out


@st.composite
def constructions(draw):
    """(make, N): make(n) builds one envelope at precision n.  The mixed
    envelope refuses at N = 2, where psi(t) has no digit left."""
    p = draw(st.sampled_from((2, 3, 5)))
    gens = draw(st.sampled_from((("x",), ("x", "y"))))
    twisted = "y" in gens and draw(st.booleans())
    kind = draw(st.sampled_from(("aligned", "stages-1", "stages-2", "mixed")))
    N = draw(st.integers(3 if kind in ("stages-2", "mixed") else 2, 5))
    if kind == "aligned":
        return (lambda n: aligned(p, n, gens, twisted)), N
    if kind == "mixed":
        return (lambda n: mixed(p, n)), N
    return (lambda n: stages(p, n, gens, int(kind[-1]), twisted)), N


def refused_or_disagreements(fn, low, high):
    """disagreements(fn(low), fn(high)); a refusal at the lower precision
    claims nothing, so it agrees."""
    try:
        out = fn(low)
    except PrecisionExhausted:
        return []
    return disagreements(out, fn(high))


class TestNAgainstHigherN:
    """Frobenius images and rho of each envelope, phi through its lift,
    and delta through its ambient lift and through the mixed envelope's
    lift.  A stage lift holds its congruences only modulo the relations,
    so delta is not defined on it; on the aligned envelope's lift delta
    claims a digit it lacks (test_delta_of_t_on_the_aligned_envelope)."""

    @settings(max_examples=200, deadline=None)
    @given(constructions(), st.data())
    def test_images_rho_phi_delta(self, case, data):
        make, N = case
        low, high = make(N), make(N + EXTRA)
        for g in low.ring.all_gens():
            assert disagreements(low.lift.images[g], high.lift.images[g]) == [], g
        amb = low.ambient.ring.ordinary_gens
        cut = data.draw(integer_polys(amb, cut="x"))
        assert refused_or_disagreements(
            lambda pres: pres.rho(build(pres.ambient.ring, cut, amb)), low, high
        ) == []
        gens = low.ring.all_gens()
        poly = data.draw(integer_polys(gens, max_terms=2))
        assert refused_or_disagreements(
            lambda pres: apply_phi(pres.lift, build(pres.ring, poly, gens)), low, high
        ) == []
        poly = data.draw(integer_polys(amb))
        assert refused_or_disagreements(
            lambda pres: delta(pres.ambient, build(pres.ambient.ring, poly, amb)),
            low, high,
        ) == []
        if low.kind is EnvelopeKind.PRISMATIC_EXPLICIT:
            poly = data.draw(integer_polys(gens, max_terms=2))
            assert refused_or_disagreements(
                lambda pres: delta(pres.lift, build(pres.ring, poly, gens)), low, high
            ) == []


@pytest.mark.xfail(strict=True, reason="a zero known mod p^(N-1) at the constant "
                   "monomial claims N digits at every other monomial")
@pytest.mark.parametrize("p, N", [(2, 3), (3, 4)])
def test_delta_of_t_on_the_aligned_envelope(p, N):
    # psi(t) = 0 known mod p^(N-1) at 1, and t^p = p!*t^[p], so
    # delta(t) = (psi(t) - t^p)/p has a t^[p] coefficient known only mod
    # p^(N-2); it is returned at N - 1 digits
    assert refused_or_disagreements(
        lambda pres: delta(pres.lift, pres.ring.gen("t")),
        aligned(p, N, ("x",)), aligned(p, N + EXTRA, ("x",)),
    ) == []


# -- the relative Frobenius: zeta and the F-transform ---------------------------


@st.composite
def frobenius_cases(draw):
    """(p, N, gens, twists, theta): phi(g) = g^p + p*h_g with h_g in twists
    (empty for no p*h term), and theta' the rank-1 matrix of the primed
    coordinate x', as integer polynomials in the primed generators."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(2, 4))
    gens = draw(st.sampled_from((("x",), ("x", "y"))))
    twists = {
        g: draw(integer_polys(gens, max_terms=2)) if draw(st.booleans()) else {}
        for g in gens
    }
    theta = draw(integer_polys(gens, max_terms=2))
    return p, N, gens, twists, theta


def relative_frobenius(p, N, gens, twists):
    """The relative Frobenius of g -> g^p + p*h_g on W[gens] mod p^N; the
    caps hold F(theta') * zeta for every case of frobenius_cases."""
    ring = RingSpec(gens, (), Modulus(p, N), 30, 0)
    images = {g: ring.gen(g) ** p + build(ring, twists[g], gens).scale(p) for g in gens}
    return RelativeFrobenius(FrobeniusLift(ring, images))


def zeta_entry(rf, xp, x):
    """zeta[x'][x]; a missing entry is a zero differential, whose p-fold
    division is a zero known mod p^(N-1)."""
    return rf.zeta[xp].get(x, div_p(rf.image_ring.zero()))


def theta_of(rf, theta):
    """Theta of f_transform on the rank-1 p-connection with matrix theta
    in the first primed coordinate, one entry per unprimed coordinate."""
    dom = rf.domain_ring
    pconn = polynomial_p_connection(
        dom, matrices={dom.ordinary_gens[0]: [[build(dom, theta, dom.ordinary_gens)]]}
    )
    transformed = f_transform(rf, pconn)
    return {x: transformed.matrix(x)[0][0] for x in rf.image_ring.ordinary_gens}


def drops_terms(low, high, xp, x):
    """Whether zeta[x'][x] at N left out a monomial, or the whole entry,
    that it has at a higher precision: a coefficient zero mod p^(N-1),
    which the element product then reads as a zero known to N digits."""
    if x not in high.zeta[xp]:
        return False
    return x not in low.zeta[xp] or bool(
        set(high.zeta[xp][x].terms) - set(low.zeta[xp][x].terms)
    )


class TestRelativeFrobeniusAgainstHigherN:
    """zeta and the F-transform's Theta at N and at N + EXTRA agree at
    every monomial, modulo the digits the precision-N result claims.
    theta' sits in the first primed coordinate x'.  Where zeta[x'][x]
    drops a term at N, Theta[x] claims a digit it lacks: a dropped entry
    leaves it a zero known to N digits, and a dropped monomial leaves a
    product term known to N (the two strict xfails below)."""

    @settings(max_examples=200, deadline=None)
    @given(frobenius_cases())
    def test_zeta_and_theta(self, case):
        p, N, gens, twists, theta = case
        low = relative_frobenius(p, N, gens, twists)
        high = relative_frobenius(p, N + EXTRA, gens, twists)
        for xp, x in itertools.product(low.domain_ring.ordinary_gens, gens):
            got, want = zeta_entry(low, xp, x), zeta_entry(high, xp, x)
            assert disagreements(got, want) == [], (xp, x)
        got, want = theta_of(low, theta), theta_of(high, theta)
        first = low.domain_ring.ordinary_gens[0]
        for x in gens:
            if not drops_terms(low, high, first, x):
                assert disagreements(got[x], want[x]) == [], x


def theta_disagreements(p, N, twists, theta):
    """disagreements of Theta[x] and Theta[y] on W[x,y], at N and N + EXTRA."""
    gens = ("x", "y")
    low = relative_frobenius(p, N, gens, twists)
    high = relative_frobenius(p, N + EXTRA, gens, twists)
    assert drops_terms(low, high, "xp", "x") or drops_terms(low, high, "xp", "y")
    got, want = theta_of(low, theta), theta_of(high, theta)
    return {x: disagreements(got[x], want[x]) for x in gens}


@pytest.mark.xfail(strict=True, reason="a zeta entry dropped as zero at N leaves "
                   "Theta a zero that claims N digits")
@pytest.mark.parametrize("p, N", [(2, 2), (3, 2), (2, 3)])
def test_theta_where_no_zeta_entry_is_recorded(p, N):
    # phi(x) = x^p + p^N * y is x^p mod p^N, so d(phi x)/dy = 0 and
    # zeta[x'][y] is left out; at N + EXTRA it is p^(N-1), so Theta[y] of
    # theta' = 1 is p^(N-1), known mod p^(N-1) and nonzero mod p^N, while
    # the precision-N Theta[y] is a zero claiming N digits
    twists = {"x": {(0, 1): p ** (N - 1)}, "y": {}}
    assert theta_disagreements(p, N, twists, {(0, 0): 1}) == {"x": [], "y": []}


@pytest.mark.xfail(strict=True, reason="a zeta monomial dropped as zero at N is "
                   "read by the product as a zero known to N digits")
@pytest.mark.parametrize("p, N", [(2, 2), (3, 2), (2, 3)])
def test_theta_where_zeta_drops_a_monomial(p, N):
    # phi(x) = x^p + p^(N-1) x^p y: zeta[x'][x] = x^(p-1) + p^(N-1) x^(p-1) y
    # loses its second term at N.  Theta[x] of theta' = x' is
    # x^(2p-1) + 2 p^(N-1) x^(2p-1) y + ..., but at N the product claims
    # p^(N-1) at x^(2p-1) y to N digits
    twists = {"x": {(p, 1): p ** (N - 2)}, "y": {}}
    assert theta_disagreements(p, N, twists, {(1, 0): 1}) == {"x": [], "y": []}
