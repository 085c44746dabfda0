"""Cases shared by the differential tests: Hypothesis strategies for
small rings and elements whose coefficients carry their own precisions
(low-precision zeros, p-divisible residues, exponents that reach the
caps), fixed examples, and the outcome two paths must agree on."""

from hypothesis import strategies as st

from prism_forge.padic import Modulus, Scalar
from prism_forge.pdpoly import Element, Monomial, RingSpec


def outcome(fn, *args):
    """Coefficients (residue, precision) and truncation flag, or the class
    of the exception raised."""
    try:
        e = fn(*args)
    except (ArithmeticError, ValueError, KeyError) as exc:
        return type(exc)
    return {m: (c.residue, c.precision) for m, c in e.terms.items()}, e.truncated


def vanishing_factor():
    """2xy under x -> x^2 + 2x^3, y -> y^2 over Z/4 with cap 4: 2 times the
    image of x is 2x^2, its 4x^3 being a zero at full precision, so the
    product with y^2 stays within the cap and is not truncated.
    Returns (element, images, ring)."""
    ring = RingSpec(("x", "y"), (), Modulus(2, 2), 4, 0)
    x, y = ring.gen("x"), ring.gen("y")
    return (x * y).scale(2), {"x": x ** 2 + (x ** 3).scale(2), "y": y ** 2}, ring

# W[x,y], W[x] and W[u]<t>
SHAPES = {"xy": (("x", "y"), ()), "x": (("x",), ()), "ut": (("u",), ("t",))}


def ring_of(shape: str, p: int, N: int, poly_cap: int, pd_cap: int) -> RingSpec:
    ordinary, pd = SHAPES[shape]
    return RingSpec(ordinary, pd, Modulus(p, N), poly_cap, pd_cap if pd else 0)


@st.composite
def coefficients(draw, modulus: Modulus) -> Scalar:
    p, N = modulus.p, modulus.N
    prec = draw(st.integers(1, N))
    mod = modulus if prec == N else Modulus(p, prec)
    # a zero at the ring's precision is dropped from an element, one below
    # it is kept
    residue = draw(st.one_of(
        st.just(0) if prec < N else st.integers(1, p ** prec - 1),
        st.integers(1, p ** prec - 1),
        st.integers(0, p ** (prec - 1) - 1).map(lambda r: r * p),
    ))
    return Scalar(residue, mod)


@st.composite
def elements(draw, ring: RingSpec, max_exp: int = 2, pd_image: bool = False,
             may_be_truncated: bool = False, min_terms: int = 0) -> Element:
    """Up to four terms, those outside the caps left out.  pd_image asks
    for an element that admits divided powers: weight-zero terms get
    p-divisible residues."""
    p = ring.modulus.p
    terms = {}
    for _ in range(draw(st.integers(min_terms, 4))):
        o = tuple(draw(st.integers(0, max_exp)) for _ in ring.ordinary_gens)
        d = tuple(draw(st.integers(0, max_exp)) for _ in ring.pd_gens)
        if sum(o) > ring.poly_degree_cap or sum(d) > ring.pd_degree_cap:
            continue
        c = draw(coefficients(ring.modulus))
        if pd_image and not sum(d):
            c = Scalar(c.residue * p, c.modulus)
        terms[Monomial(o, d)] = c
    return Element(ring, terms, may_be_truncated and draw(st.booleans()))
