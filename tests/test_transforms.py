"""Frobenius transforms: frozen fixtures and oracle cross-checks."""

import itertools
import operator
import random
from math import comb

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from prism_forge import pdpoly, transforms
from prism_forge.padic import Modulus, Scalar
from prism_forge.pdpoly import (
    Element, Monomial, RingSpec, equal_reduced, partial_derivative, substitute,
)
from prism_forge.deltaring import FrobeniusLift, NotAFrobeniusLift
from prism_forge.exprparse import parse_expression
from prism_forge.derham import (
    WindowOverflow,
    _e_all,
    _e_identity,
    _e_map,
    _e_mul,
    PConnection,
    apply_pconnection,
    build_p_derham,
    polynomial_connection,
    polynomial_p_connection,
)
from prism_forge.homology import all_cohomology, mapping_cone
from prism_forge.transforms import (
    NotClosed,
    RelativeFrobenius,
    WindowTooSmall,
    ZetaUndefined,
    cartier_identity_check,
    check_frobenius_isogeny,
    check_pcurvature_formula,
    check_pushforward_quasi_iso,
    cotangent_comparison,
    f_transform,
    frobenius_comparison,
    isogeny_maps,
    p_curvature,
)

import oracles
from cases import elements
from oracles import mat_mul


def line_frobenius(p, N, cap=30):
    ring = RingSpec(("x",), (), Modulus(p, N), cap, 0)
    lift = FrobeniusLift(ring=ring, images={"x": ring.gen("x") ** p})
    return RelativeFrobenius(lift)


def plane_frobenius(p, N, cap=12, twist=False):
    ring = RingSpec(("x", "y"), (), Modulus(p, N), cap, 0)
    images = {"x": ring.gen("x") ** p, "y": ring.gen("y") ** p}
    if twist:
        # phi(x) = x^p + p y stays a lift but gives zeta a cross term
        images["x"] = images["x"] + ring.gen("y").scale(p)
    lift = FrobeniusLift(ring=ring, images=images)
    return RelativeFrobenius(lift)


class TestRelativeFrobenius:
    def test_zeta_of_the_power_map(self):
        rf = line_frobenius(3, 3)
        assert rf.domain_ring.ordinary_gens == ("xp",)
        z = rf.zeta["xp"]["x"]
        assert equal_reduced(z, rf.image_ring.gen("x") ** 2)
        # one digit is spent on the division
        assert z.min_precision() == 2

    def test_cross_term_zeta(self):
        rf = plane_frobenius(2, 3, twist=True)
        assert equal_reduced(rf.zeta["xp"]["x"], rf.image_ring.gen("x"))
        assert equal_reduced(rf.zeta["xp"]["y"], rf.image_ring.one())
        assert "x" not in rf.zeta["yp"]

    def test_requires_two_digits(self):
        ring = RingSpec(("x",), (), Modulus(3, 1), 12, 0)
        with pytest.raises(ZetaUndefined, match="precision"):
            RelativeFrobenius(FrobeniusLift(ring, {"x": ring.gen("x") ** 3}))

    def test_rejects_non_frobenius_images(self):
        # the lift refuses them before a relative Frobenius is formed
        ring = RingSpec(("x",), (), Modulus(3, 2), 12, 0)
        with pytest.raises(NotAFrobeniusLift, match="not congruent"):
            RelativeFrobenius(FrobeniusLift(ring, {"x": ring.gen("x") ** 2}))

    def test_refuses_a_lift_with_unchecked_generators(self):
        # x -> x^2 is no Frobenius at p = 3; unchecked, the lift keeps it
        ring = RingSpec(("x", "y"), (), Modulus(3, 2), 12, 0)
        images = {"x": ring.gen("x") ** 2, "y": ring.gen("y") ** 3}
        lift = FrobeniusLift(ring, images, unchecked=frozenset({"x"}))
        with pytest.raises(ValueError, match="unchecked: x"):
            RelativeFrobenius(lift)

    def test_mod_p_reads_the_map_and_zeta_at_precision_one(self):
        rf = plane_frobenius(2, 3, twist=True)
        low = rf.mod_p
        assert low.domain_ring == rf.domain_ring.at_precision(1)
        assert low.image_ring == rf.image_ring.at_precision(1)
        # phi(x) = x^2 + 2y is x^2 mod 2
        xp = low.domain_ring.gen("xp")
        assert substitute(xp, low.map) == low.image_ring.gen("x") ** 2
        assert low.zeta == {
            gp: {g: z.map_to(low.image_ring) for g, z in row.items()}
            for gp, row in rf.zeta.items()
        }
        assert equal_reduced(low.zeta["xp"]["y"], low.image_ring.one())

    def test_pushforward_substitutes(self):
        rf = line_frobenius(2, 2)
        xp = rf.domain_ring.gen("xp")
        assert substitute(xp**2, rf.map) == rf.image_ring.gen("x") ** 4


class TestFTransform:
    def test_trivial_goes_to_trivial(self):
        rf = line_frobenius(3, 3)
        conn = f_transform(rf, polynomial_p_connection(rf.domain_ring))
        assert conn.matrices == {}
        # untwisted rule d x = dx
        assert conn.gen_differentials["x"]["x"] == rf.image_ring.one()

    def test_unit_twist_becomes_power_matrix(self):
        # theta' = dx' turns into x^(p-1) dx
        for p in (2, 3, 5):
            rf = line_frobenius(p, 2)
            dom = rf.domain_ring
            conn = f_transform(
                rf,
                polynomial_p_connection(dom, matrices={"xp": [[dom.one()]]}),
            )
            want = rf.image_ring.gen("x") ** (p - 1)
            assert equal_reduced(conn.matrices["x"][0][0], want)

    def test_factorization_through_the_pullback(self):
        # p o F-transform = pullback, at full precision
        rf = line_frobenius(3, 3)
        dom = rf.domain_ring
        fixtures = [
            {},
            {"xp": [[dom.one()]]},
            {"xp": [[dom.gen("xp") ** 2]]},
        ]
        for mats in fixtures:
            assert_p_theta_is_the_pullback(rf, polynomial_p_connection(dom, matrices=mats))


# every entry point that reads Theta refuses the inputs f_transform refuses
TRANSFORM_READERS = {
    "f_transform": f_transform,
    "check_pcurvature_formula": check_pcurvature_formula,
    "check_pushforward_quasi_iso": (
        lambda rf, conn: check_pushforward_quasi_iso(rf, conn, 2)
    ),
}


class TestTransformGuards:
    @pytest.mark.parametrize("entry", sorted(TRANSFORM_READERS))
    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda rf: polynomial_p_connection(rf.image_ring), "Frobenius domain"),
            (lambda rf: polynomial_connection(rf.domain_ring), "canonical p-twisted"),
            (
                lambda rf: PConnection(
                    ring=rf.domain_ring,
                    coordinates=rf.domain_ring.all_gens(),
                    gen_differentials={},
                ),
                "canonical p-twisted",
            ),
            (
                # d'x' = 0 known mod 3 only, which 3 dx' agrees with there
                lambda rf: PConnection(
                    ring=rf.domain_ring,
                    coordinates=rf.domain_ring.all_gens(),
                    gen_differentials={
                        g: {g: rf.domain_ring.constant(Scalar(0, Modulus(3, 1)))}
                        for g in rf.domain_ring.all_gens()
                    },
                ),
                "canonical p-twisted",
            ),
        ],
        ids=["image-ring", "untwisted", "no-twist-row", "low-precision-twist-row"],
    )
    def test_refuses(self, entry, make, match):
        rf = line_frobenius(3, 2)
        with pytest.raises(ValueError, match=match):
            TRANSFORM_READERS[entry](rf, make(rf))


class TestTruncatedTransform:
    """A Theta the ring caps truncated, even to zero, is refused."""

    # at the parent, Theta truncated to zero passed both checks at cap 5
    # and failed the curvature formula at cap 7, and the truncated x^5
    # passed the pushforward check
    @pytest.mark.parametrize("cap, theta", [(5, "xp^2"), (7, "xp^2"), (5, "xp + xp^2")])
    @pytest.mark.parametrize("entry", sorted(TRANSFORM_READERS))
    def test_refused(self, entry, cap, theta):
        rf = line_frobenius(3, 2, cap=cap)
        dom = rf.domain_ring
        pconn = polynomial_p_connection(
            dom, matrices={"xp": [[parse_expression(theta, dom)]]}
        )
        readers = {
            **TRANSFORM_READERS,
            "check_pushforward_quasi_iso": (
                lambda rf, conn: check_pushforward_quasi_iso(rf, conn, 1)
            ),
        }
        with pytest.raises(WindowOverflow, match="F-transform"):
            readers[entry](rf, pconn)


class TestChecksReadTheTransform:
    """The mod-p checks reduce f_transform; they keep no copy of it."""

    @pytest.fixture
    def skewed(self, monkeypatch):
        real = transforms.f_transform

        def skewed_transform(rf, pconn):
            # rank one: Theta[x] + x^(p-1), the transform of theta' + 1
            img = rf.image_ring
            theta = real(rf, pconn).matrix("x") or [[img.zero()]]
            bumped = theta[0][0] + img.gen("x") ** (rf.prime - 1)
            return polynomial_connection(img, matrices={"x": [[bumped]]})

        monkeypatch.setattr(transforms, "f_transform", skewed_transform)

    def line(self):
        rf = line_frobenius(3, 2)
        dom = rf.domain_ring
        return rf, polynomial_p_connection(dom, matrices={"xp": [[dom.gen("xp")]]})

    def test_both_checks_pass_unpatched(self):
        rf, pconn = self.line()
        assert check_pcurvature_formula(rf, pconn).passed
        assert check_pushforward_quasi_iso(rf, pconn, 2).passed

    def test_curvature_formula_sees_the_skew(self, skewed):
        rf, pconn = self.line()
        assert not check_pcurvature_formula(rf, pconn).passed

    def test_pushforward_comparison_sees_the_skew(self, skewed):
        rf, pconn = self.line()
        try:
            rep = check_pushforward_quasi_iso(rf, pconn, 2)
        except ValueError as exc:
            assert "does not commute" in str(exc)
        else:
            assert not rep.passed


def pullback_matrix(rf, pconn, x):
    """sum_k F(A'[x'_k]) * d(F x'_k)/dx, the matrix in x of the pullback
    of pconn along F, formed here from the images and the Jacobian."""
    img, n = rf.image_ring, pconn.rank
    out = [[img.zero()] * n for _ in range(n)]
    for xp in rf.domain_ring.ordinary_gens:
        jacobian = partial_derivative(rf.images[xp], x)
        for i, row in enumerate(pconn.matrix(xp)):
            for j, e in enumerate(row):
                out[i][j] = out[i][j] + substitute(e, rf.map) * jacobian
    return out


def assert_p_theta_is_the_pullback(rf, pconn):
    """p * Theta[x] equals pullback_matrix in every x, both known to N."""
    theta, p, N = f_transform(rf, pconn), rf.prime, rf.image_ring.modulus.N
    for x in rf.image_ring.ordinary_gens:
        got = _e_map(lambda e: e.scale(p), theta.matrix(x))
        want = pullback_matrix(rf, pconn, x)
        assert _e_all(equal_reduced, got, want), x
        assert _e_all(lambda a, b: a.min_precision() == b.min_precision() == N, got, want)


class TestPTransform:
    """p times the F-transform is the pullback p-connection along F."""

    def test_factorization_with_cross_terms(self):
        rf = plane_frobenius(2, 3, twist=True)
        dom = rf.domain_ring
        pc = polynomial_p_connection(dom, matrices={"xp": [[dom.gen("yp")]]})
        assert_p_theta_is_the_pullback(rf, pc)

    def test_pullback_matrix_frozen(self):
        # theta' = dx', F = x^3: Jacobian contraction gives 3 x^2
        rf = line_frobenius(3, 3)
        dom = rf.domain_ring
        pc = polynomial_p_connection(dom, matrices={"xp": [[dom.one()]]})
        want = (rf.image_ring.gen("x") ** 2).scale(3)
        assert equal_reduced(pullback_matrix(rf, pc, "x")[0][0], want)
        assert_p_theta_is_the_pullback(rf, pc)


class TestIsogeny:
    def composite_diagonal(self, f, g, q):
        pN = f.source.modulus.cardinality
        comp = mat_mul(g.blocks[q], f.blocks[q], inner=f.source.ranks[q])
        return {comp[i][i] % pN for i in range(len(comp))}, any(
            comp[i][j] % pN for i in range(len(comp)) for j in range(len(comp)) if i != j
        )

    def test_composites_are_p_to_the_m(self):
        # at N = 2 on two coordinates p^2 vanishes, and blocks have empty rows
        for gens, N in ((("x",), 4), (("x", "y"), 4), (("x", "y"), 2)):
            ring = RingSpec(gens, (), Modulus(2, N), 6, 0)
            m = len(gens)
            cu = build_p_derham(polynomial_connection(ring), cap=4)
            ct = build_p_derham(polynomial_p_connection(ring), cap=4)
            b, bt = isogeny_maps(cu.complex, ct.complex)
            for q in range(m + 1):
                diag, off = self.composite_diagonal(b, bt, q)
                assert diag == {2**m % 2**N} and not off
                diag, off = self.composite_diagonal(bt, b, q)
                assert diag == {2**m % 2**N} and not off

    def test_rejects_unrelated_complexes(self):
        ring = RingSpec(("x",), (), Modulus(3, 2), 8, 0)
        cu = build_p_derham(polynomial_connection(ring), cap=4)
        with pytest.raises(ValueError, match="commute"):
            isogeny_maps(cu.complex, cu.complex)

    def test_comparison_cone_killed_by_p(self):
        # hand-checked at p=2, N=2, window 1: the cone carries exactly
        # two Z/2 classes in degrees 0 and 1
        rf = line_frobenius(2, 2, cap=8)
        c = frobenius_comparison(rf, 1)
        groups = all_cohomology(mapping_cone(c))
        assert groups[-1].exponents == ()
        assert groups[0].exponents == (1, 1)
        assert groups[1].exponents == (1, 1)

    def test_isogeny_report_one_and_two_variables(self):
        rep = check_frobenius_isogeny(line_frobenius(3, 2, cap=12), 2)
        assert rep.passed and rep.top_power == 1
        rep2 = check_frobenius_isogeny(plane_frobenius(2, 3, cap=8), 1)
        assert rep2.passed and rep2.top_power == 2

    def test_window_too_small(self):
        rf = line_frobenius(2, 2, cap=4)
        with pytest.raises(WindowTooSmall):
            frobenius_comparison(rf, 3)


class TestPCurvature:
    def mod_p_line(self, p, cap=60):
        return RingSpec(("x",), (), Modulus(p, 1), cap, 0)

    def test_flat_is_zero(self):
        for p in (2, 3, 5):
            ring = self.mod_p_line(p)
            psi = p_curvature(polynomial_connection(ring))
            assert psi["x"][0][0].is_zero()

    def test_constant_matrix_powers(self):
        # (d/dx + c)^p = d^p + c^p for constant commuting c
        ring = self.mod_p_line(3)
        c = ring.constant(2)
        psi = p_curvature(polynomial_connection(ring, matrices={"x": [[c]]}))
        assert psi["x"][0][0] == ring.constant(2**3)

    def test_power_twist_frozen(self):
        # nabla = d + x^(p-1) dx: psi = x^(p(p-1)) - 1
        for p in (2, 3, 5):
            ring = self.mod_p_line(p)
            x = ring.gen("x")
            psi = p_curvature(
                polynomial_connection(ring, matrices={"x": [[x ** (p - 1)]]})
            )
            want = x ** (p * (p - 1)) - ring.one()
            assert equal_reduced(psi["x"][0][0], want)

    def test_brute_force_operator_oracle(self):
        # the p-fold application of d/dx + A to a section must equal
        # multiplication by psi, monomial by monomial
        for p in (2, 3):
            ring = self.mod_p_line(p, cap=30)
            x = ring.gen("x")
            conn = polynomial_connection(
                ring, rank=2,
                matrices={"x": [[ring.zero(), x ** (p - 1)],
                                [ring.zero(), ring.zero()]]},
            )
            psi = p_curvature(conn)["x"]
            for d in range(5):
                for slot in range(2):
                    vec = [ring.zero(), ring.zero()]
                    vec[slot] = x**d
                    out = vec
                    for _ in range(p):
                        out = apply_pconnection(conn, "x", out)
                    want = [psi[i][slot] * (x**d) for i in range(2)]
                    for a, b in zip(out, want):
                        assert equal_reduced(a, b)

    def test_formula_rank_one_fixtures(self):
        for p, cap in ((2, 30), (3, 40), (5, 60)):
            rf = line_frobenius(p, 2, cap=cap)
            dom = rf.domain_ring
            for mats in ({}, {"xp": [[dom.one()]]}, {"xp": [[dom.gen("xp")]]}):
                pc = polynomial_p_connection(dom, matrices=mats)
                rep = check_pcurvature_formula(rf, pc)
                assert rep.passed, rep.failures

    def test_formula_frozen_values(self):
        rf = line_frobenius(3, 2, cap=40)
        dom = rf.domain_ring
        rep = check_pcurvature_formula(
            rf, polynomial_p_connection(dom, matrices={"xp": [[dom.one()]]})
        )
        x1 = rf.image_ring.at_precision(1)
        want = x1.gen("x") ** 6 - x1.one()
        assert rep.data.psi["x"][0][0] == want
        assert rep.data.theta_pullback["x"][0][0] == x1.gen("x") ** 2

    def test_formula_rank_two_nilpotent(self):
        rf = line_frobenius(3, 2, cap=40)
        dom = rf.domain_ring
        nil = [[dom.zero(), dom.one()], [dom.zero(), dom.zero()]]
        rep = check_pcurvature_formula(
            rf, polynomial_p_connection(dom, rank=2, matrices={"xp": nil})
        )
        assert rep.passed
        got = rep.data.psi["x"]
        assert got[0][0].is_zero() and got[1][0].is_zero() and got[1][1].is_zero()
        assert got[0][1] == -rf.image_ring.at_precision(1).one()

    def test_formula_two_variables(self):
        rf = plane_frobenius(3, 2, cap=24)
        dom = rf.domain_ring
        pc = polynomial_p_connection(
            dom, matrices={"xp": [[dom.one()]], "yp": [[dom.one()]]}
        )
        rep = check_pcurvature_formula(rf, pc)
        assert rep.passed, rep.failures

    def test_guards(self):
        ring = RingSpec(("x",), (), Modulus(3, 2), 10, 0)
        with pytest.raises(ValueError, match="precision 1"):
            p_curvature(polynomial_connection(ring))
        pd_ring = RingSpec((), ("t",), Modulus(3, 1), 0, 6)
        with pytest.raises(ValueError, match="polynomial"):
            p_curvature(polynomial_connection(pd_ring))
        ring1 = RingSpec(("x",), (), Modulus(3, 1), 10, 0)
        with pytest.raises(ValueError, match="untwisted"):
            p_curvature(polynomial_p_connection(ring1))

    def test_truncation_refused(self):
        from prism_forge.derham import WindowOverflow

        ring = RingSpec(("x",), (), Modulus(3, 1), 4, 0)
        x = ring.gen("x")
        with pytest.raises(WindowOverflow, match="caps"):
            p_curvature(polynomial_connection(ring, matrices={"x": [[x**2]]}))


def curvature_outcome(fn, *args):
    """What fn returned, or the class and message of the WindowOverflow
    it raised."""
    try:
        return fn(*args)
    except WindowOverflow as exc:
        return WindowOverflow, str(exc)


def same_matrices(a, b):
    """Per coordinate, the same entries by Element equality and
    truncation flag; the order of terms is free."""
    return a.keys() == b.keys() and all(
        x == y and x.truncated == y.truncated
        for k in a for ra, rb in zip(a[k], b[k]) for x, y in zip(ra, rb)
    )


@st.composite
def curvature_connections(draw):
    """An untwisted connection of rank 1 or 2 on F_p[x] or F_p[x,y],
    p <= 7, with sparse random matrices, one entry sometimes flagged
    truncated, and caps that some compositions leave."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    gens = draw(st.sampled_from((("x",), ("x", "y"))))
    # entries have degree at most 2, so psi has degree at most 2p
    cap = draw(st.integers(0, 2 * p + 2))
    ring = RingSpec(gens, (), Modulus(p, 1), cap, 0)
    rank = draw(st.integers(1, 2))
    matrices = {
        g: [[draw(elements(ring, max_exp=2 // len(gens)))
             for _ in range(rank)] for _ in range(rank)]
        for g in gens
    }
    if draw(st.integers(0, 4)) == 0:
        row = matrices[draw(st.sampled_from(gens))][draw(st.integers(0, rank - 1))]
        slot = draw(st.integers(0, rank - 1))
        row[slot] = Element(ring, row[slot].terms, truncated=True)
    return polynomial_connection(ring, rank=rank, matrices=matrices)


@st.composite
def curvature_transforms(draw):
    """A relative Frobenius of W[x] or W[x,y] at N = 2, with twisted
    images or not, and a p-connection of rank 1 or 2 with sparse random
    matrices; the caps are drawn so that some formulas leave them."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    # Theta has degree at most 2p - 1, and psi Theta at most p + 1 times that
    cap = draw(st.integers(p, (p + 1) * (2 * p - 1)))
    if p <= 3 and draw(st.booleans()):
        rf = plane_frobenius(p, 2, cap=cap, twist=draw(st.booleans()))
    else:
        rf = line_frobenius(p, 2, cap=cap)
    dom = rf.domain_ring
    rank = draw(st.integers(1, 2))
    matrices = {
        g: [[draw(elements(dom, max_exp=1)) for _ in range(rank)]
            for _ in range(rank)]
        for g in dom.ordinary_gens
    }
    return rf, polynomial_p_connection(dom, rank=rank, matrices=matrices)


def non_commuting_plane():
    """Rank two on W[x,y], p = 3, with nilpotent twists in transposed
    slots: the psi matrices commute neither with each other nor with
    the twist matrices, so the report lists three failures."""
    rf = plane_frobenius(3, 2, cap=8)
    dom = rf.domain_ring
    one, zero = dom.one(), dom.zero()
    return rf, polynomial_p_connection(dom, rank=2, matrices={
        "xp": [[zero, one], [zero, zero]], "yp": [[zero, zero], [one, zero]],
    })


def seeded_entry(rng, ring, max_exp):
    """A random element of ring with every exponent at most max_exp, each
    monomial kept with probability 1/2 and a random residue."""
    q = ring.modulus.p ** ring.modulus.N
    terms = {}
    for exps in itertools.product(range(max_exp + 1), repeat=len(ring.ordinary_gens)):
        c = rng.randrange(q)
        if c and rng.random() < 0.5:
            terms[Monomial(exps, ())] = Scalar(c, ring.modulus)
    return Element(ring, terms)


def seeded_plane(cap, seed):
    """Rank two on W[x,y], p = 2, N = 2, entries of degree at most 1 in
    each variable drawn from random.Random(seed)."""
    rf = plane_frobenius(2, 2, cap=cap)
    dom = rf.domain_ring
    rng = random.Random(seed)
    matrices = {g: [[seeded_entry(rng, dom, 1) for _ in range(2)] for _ in range(2)]
                for g in dom.ordinary_gens}
    return rf, polynomial_p_connection(dom, rank=2, matrices=matrices)


def seeded_line_connection(p, cap, rank, seed, max_exp=2):
    """An untwisted connection on F_p[x] whose entries have every
    coefficient up to x^max_exp nonzero, drawn from random.Random(seed)."""
    ring = RingSpec(("x",), (), Modulus(p, 1), cap, 0)
    rng = random.Random(seed)

    def entry():
        return Element(ring, {
            Monomial((i,), ()): Scalar(rng.randrange(1, p), ring.modulus)
            for i in range(max_exp + 1)
        })

    amat = [[entry() for _ in range(rank)] for _ in range(rank)]
    return polynomial_connection(ring, rank=rank, matrices={"x": amat})


def katz_coefficients(conn, coord):
    """[A_0, ..., A_p] with A_0 = 1 and A_(k+1) = dA_k + A A_k, as Element
    matrices."""
    amat = conn.matrix(coord)
    out = [_e_identity(conn.ring, conn.rank)]
    for _ in range(conn.ring.modulus.p):
        ak = out[-1]
        dak = _e_map(lambda e: partial_derivative(e, coord), ak)
        out.append(_e_map(operator.add, dak, _e_mul(amat, ak)))
    return out


def degree(e):
    return max(sum(m.ordinary) for m in e.terms)


def cap_for_last_product(conn, coord):
    """The least poly_degree_cap that holds every product of two terms in
    A A_(p-1), the widest product of the recursion; conn's own caps must
    hold A_(p-1)."""
    amat = conn.matrix(coord)
    last = katz_coefficients(conn, coord)[-2]
    return max(
        degree(amat[i][k]) + degree(last[k][j])
        for i, k, j in itertools.product(range(conn.rank), repeat=3)
        if amat[i][k].terms and last[k][j].terms
    )


class TestPCurvatureAgainstOracle:
    """The recursion on packed residues mod p against the composition of
    every order that takes each step as an Element operation."""

    @settings(max_examples=120, deadline=None)
    @given(curvature_connections())
    def test_p_curvature(self, conn):
        got = curvature_outcome(p_curvature, conn)
        want = curvature_outcome(oracles.p_curvature, conn)
        event("overflow" if isinstance(want, tuple) else "psi")
        if isinstance(want, tuple):
            assert got == want
        else:
            assert same_matrices(got, want)

    @settings(max_examples=60, deadline=None)
    @given(curvature_transforms())
    @example(non_commuting_plane())
    def test_formula_report(self, case):
        got = curvature_outcome(check_pcurvature_formula, *case)
        want = curvature_outcome(oracles.check_pcurvature_formula, *case)
        event("overflow" if isinstance(want, tuple) else "report")
        if isinstance(want, tuple):
            assert got == want
            return
        assert (got.passed, got.failures) == (want.passed, want.failures)
        for name in ("psi", "theta_source", "theta_pullback"):
            assert same_matrices(getattr(got.data, name), getattr(want.data, name))

    @pytest.mark.parametrize("p", [11, 13])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_benchmark_primes(self, p, rank):
        # the benchmark's scenarios take p = 11 and 13, past the draws
        # above; one cap short of the last product A A_(p-1), and at it
        wide = seeded_line_connection(p, 4 * p, rank, seed=p + rank)
        need = cap_for_last_product(wide, "x")
        for cap in (need - 1, need):
            conn = seeded_line_connection(p, cap, rank, seed=p + rank)
            got = curvature_outcome(p_curvature, conn)
            want = curvature_outcome(oracles.p_curvature, conn)
            if cap < need:
                assert want == (WindowOverflow, "the operator composition left "
                                "the coefficient ring caps; raise poly_degree_cap")
                assert got == want
            else:
                assert same_matrices(got, want)

    @pytest.mark.parametrize("cap, seed, context", [
        (15, 74, "the psi product"), (10, 105, "the psi-twist product"),
    ])
    def test_reversed_product_truncation_refused(self, cap, seed, context):
        # psi_x psi_y (or psi_x Theta_y) keeps every term at these caps
        # while the reversed product drops some; comparing the two would
        # report a failure to commute that the caps made up
        rf, pconn = seeded_plane(cap, seed)
        for fn in (check_pcurvature_formula, oracles.check_pcurvature_formula):
            with pytest.raises(WindowOverflow, match=context):
                fn(rf, pconn)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((2, 3, 5, 7, 11, 13)),
        st.lists(st.integers(0, 12), max_size=5),
    )
    def test_jacobson_closed_form(self, p, coeffs):
        # rank one: psi = a^p + (d/dx)^(p-1) a over F_p[x]
        a = [c % p for c in coeffs]
        while a and not a[-1]:
            a.pop()
        ring = RingSpec(("x",), (), Modulus(p, 1), p * max(len(a) - 1, 0), 0)
        entry = Element(ring, {
            Monomial((i,), ()): Scalar(c, ring.modulus) for i, c in enumerate(a)
        })
        psi = p_curvature(polynomial_connection(ring, matrices={"x": [[entry]]}))
        got = [0] * (ring.poly_degree_cap + 1)
        for m, c in psi["x"][0][0].terms.items():
            got[m.ordinary[0]] = c.residue
        while got and not got[-1]:
            got.pop()
        assert got == oracles.jacobson_psi(a, p)


class TestKatzRecursion:
    """The Leibniz identity that lets p_curvature run Katz's recursion: in
    (d/dx + A)^p, composed with every order kept, the coefficient of d^e
    is C(p, e) A_(p-e).  So the orders 1..p-1 vanish mod p, order p is
    the identity, and order 0 is A_p.  The library no longer forms the
    orders 1..p, so their check lives here."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_leibniz_orders(self, p, rank):
        conn = seeded_line_connection(p, p, rank, seed=10 * p + rank, max_exp=1)
        orders = oracles.composition_orders(conn)["x"]
        katz = katz_coefficients(conn, "x")
        assert len(orders) == p + 1
        for e, got in enumerate(orders):
            want = _e_map(lambda a: a.scale(comb(p, e)), katz[p - e])
            assert _e_all(equal_reduced, got, want), e
        for got in orders[1:p]:
            assert _e_all(Element.is_zero, got)
        assert _e_all(equal_reduced, orders[p], _e_identity(conn.ring, rank))
        assert same_matrices(p_curvature(conn), {"x": orders[0]})


class TestCartier:
    def test_power_forms(self):
        for p in (2, 3, 5):
            rf = line_frobenius(p, 2)
            x = rf.image_ring.gen("x")
            dom = rf.domain_ring
            assert cartier_identity_check(rf, {"x": x ** (p - 1)}, {"xp": dom.one()})
            assert cartier_identity_check(rf, {"x": rf.image_ring.one()}, {})
            assert cartier_identity_check(
                rf, {"x": x ** (2 * p - 1)}, {"xp": dom.gen("xp")}
            )

    def test_wrong_claim_fails(self):
        rf = line_frobenius(3, 2)
        x = rf.image_ring.gen("x")
        assert not cartier_identity_check(
            rf, {"x": x**2}, {"xp": rf.domain_ring.gen("xp")}
        )

    def test_two_variable_closed_form(self):
        rf = plane_frobenius(3, 2)
        img = rf.image_ring
        omega = {"x": img.gen("x") ** 2, "y": img.gen("y") ** 2}
        claimed = {"xp": rf.domain_ring.one(), "yp": rf.domain_ring.one()}
        assert cartier_identity_check(rf, omega, claimed)

    def test_not_closed_raises(self):
        rf = plane_frobenius(3, 2)
        with pytest.raises(NotClosed):
            cartier_identity_check(rf, {"x": rf.image_ring.gen("y")}, {})


class TestPushforwardComparison:
    def test_trivial_coefficients_window_eight(self):
        rf = line_frobenius(3, 2, cap=30)
        rep = check_pushforward_quasi_iso(
            rf, polynomial_p_connection(rf.domain_ring), 8
        )
        assert rep.passed
        # Cartier: both sides have one class per window monomial
        assert rep.source_dims == [9, 9]
        assert rep.target_dims == [9, 9]

    def test_rank_two_nilpotent(self):
        rf = line_frobenius(3, 2, cap=30)
        dom = rf.domain_ring
        nil = [[dom.zero(), dom.one()], [dom.zero(), dom.zero()]]
        rep = check_pushforward_quasi_iso(
            rf, polynomial_p_connection(dom, rank=2, matrices={"xp": nil}), 8
        )
        assert rep.passed
        assert rep.source_dims == rep.target_dims

    def test_zero_window_degenerate(self):
        rf = line_frobenius(2, 2, cap=10)
        rep = check_pushforward_quasi_iso(
            rf, polynomial_p_connection(rf.domain_ring), 0
        )
        assert rep.passed

    def test_cross_term_lift(self):
        rf = plane_frobenius(2, 3, cap=12, twist=True)
        rep = check_pushforward_quasi_iso(
            rf, polynomial_p_connection(rf.domain_ring), 2
        )
        assert rep.passed

    def test_window_too_small(self):
        rf = line_frobenius(3, 2, cap=10)
        with pytest.raises(WindowTooSmall):
            check_pushforward_quasi_iso(
                rf, polynomial_p_connection(rf.domain_ring), 8
            )


class TestOneMapPerComparison:
    """The comparisons apply F through ring maps built once, so each
    power of an image is formed once for all the substitutions."""

    @pytest.mark.parametrize("check", [
        lambda rf: check_frobenius_isogeny(rf, 1),
        lambda rf: check_pushforward_quasi_iso(rf, polynomial_p_connection(rf.domain_ring), 2),
    ], ids=["isogeny", "pushforward"])
    def test_each_image_power_formed_once(self, check, monkeypatch):
        formed, maps = [], []
        real_get = pdpoly.RingMap.get

        def get(self, divided, slot, n):
            if (divided, slot, n) not in self._table:
                # kept alive, so the ids of its images name its images
                maps.append(self)
                images = tuple(map(id, self.ordinary + self.pd))
                formed.append((self.target, images, divided, slot, n))
            return real_get(self, divided, slot, n)

        monkeypatch.setattr(pdpoly.RingMap, "get", get)
        rf = plane_frobenius(2, 3, cap=12, twist=True)
        for _ in range(2):
            assert check(rf).passed
        assert formed and len(formed) == len(set(formed))


class TestCotangent:
    def point_in_line(self, p, N):
        ring = RingSpec(("x",), (), Modulus(p, N), 10, 10)
        return FrobeniusLift(ring=ring, images={"x": ring.gen("x") ** p})

    def test_point_in_the_line(self):
        for N in (2, 3):
            rep = cotangent_comparison(self.point_in_line(2, N), ("x",), cap=4)
            assert rep.passed, rep.detail

    def test_cut_one_of_two(self):
        ring = RingSpec(("x", "y"), (), Modulus(3, 3), 10, 10)
        lift = FrobeniusLift(
            ring=ring,
            images={"x": ring.gen("x") ** 3, "y": ring.gen("y") ** 3},
        )
        rep = cotangent_comparison(lift, ("x",), cap=4)
        assert rep.passed, rep.detail

    def test_cut_both_of_two(self):
        ring = RingSpec(("x", "y"), (), Modulus(2, 2), 8, 8)
        lift = FrobeniusLift(
            ring=ring,
            images={"x": ring.gen("x") ** 2, "y": ring.gen("y") ** 2},
        )
        rep = cotangent_comparison(lift, ("x", "y"), cap=3)
        assert rep.passed, rep.detail

    def test_no_cut_degenerate(self):
        ring = RingSpec(("x", "y"), (), Modulus(3, 2), 8, 8)
        lift = FrobeniusLift(
            ring=ring,
            images={"x": ring.gen("x") ** 3, "y": ring.gen("y") ** 3},
        )
        rep = cotangent_comparison(lift, (), cap=3)
        assert rep.passed, rep.detail

    def test_unknown_cut_rejected(self):
        with pytest.raises(ValueError, match="ambient coordinate"):
            cotangent_comparison(self.point_in_line(2, 2), ("z",), cap=3)

    @pytest.mark.parametrize("gens", [("x", "y"), ("x", "y", "z")])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("cut", ["none", "first", "all"])
    def test_cap_one_on_two_coordinates(self, gens, p, cut):
        ring = RingSpec(gens, (), Modulus(p, 2), 8, 8)
        lift = FrobeniusLift(ring=ring, images={g: ring.gen(g) ** p for g in gens})
        cut_gens = {"none": (), "first": gens[:1], "all": gens}[cut]
        for cap in (1, 2):
            rep = cotangent_comparison(lift, cut_gens, cap=cap)
            assert rep.passed, rep.detail

    @pytest.mark.parametrize("gens", [("x",), ("x", "y"), ("x", "y", "z")])
    @pytest.mark.parametrize("p", [2, 3])
    def test_every_cut_and_cap(self, gens, p):
        ring = RingSpec(gens, (), Modulus(p, 2), 8, 8)
        lift = FrobeniusLift(ring=ring, images={g: ring.gen(g) ** p for g in gens})
        caps = range(1, 5 if len(gens) == 3 else 6)
        for size in range(len(gens) + 1):
            for cut in itertools.combinations(gens, size):
                for cap in caps:
                    rep = cotangent_comparison(lift, cut, cap=cap)
                    assert rep.passed, (cut, cap, rep.detail)

    def test_cap_zero_refused(self):
        with pytest.raises(ValueError, match="at least 1"):
            cotangent_comparison(self.point_in_line(2, 2), ("x",), cap=0)

    @pytest.mark.parametrize("p", [2, 3])
    def test_cap_one_on_a_line(self, p):
        for cut in ((), ("x",)):
            rep = cotangent_comparison(self.point_in_line(p, 2), cut, cap=1)
            assert rep.passed, rep.detail
