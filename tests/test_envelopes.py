"""Envelope constructions: frozen presentations and structural checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prism_forge.padic import Modulus, NotDivisible, Scalar
from prism_forge.pdpoly import RingSpec, divisible_by_p, equal_reduced
from prism_forge.deltaring import FrobeniusLift, delta
from prism_forge.envelopes import (
    CoordinateImmersion,
    EnvelopeKind,
    NotAligned,
    check_envelope_frobenius,
    dilatation,
    mod_p_dimensions,
    polynomial_dimensions,
    prismatic_envelope_aligned,
    prismatic_envelope_stages,
    two_gen_mixed_envelope,
)

from oracles import pd_envelope, pd_section_images, stage_basis_count


def poly_ring(p, N, gens, cap=12):
    return RingSpec(
        ordinary_gens=gens,
        pd_gens=(),
        modulus=Modulus(p, N),
        poly_degree_cap=cap,
        pd_degree_cap=0,
    )


def power_lift(ring):
    """phi(g) = g^p on every generator."""
    p = ring.modulus.p
    return FrobeniusLift(
        ring=ring, images={g: ring.gen(g) ** p for g in ring.ordinary_gens}
    )


# -- dilatation -------------------------------------------------------------


class TestDilatation:
    def test_two_gen_cut_one(self):
        ring = poly_ring(3, 3, ("x", "y"))
        pres = dilatation(CoordinateImmersion(power_lift(ring), ("x",)))
        assert pres.kind is EnvelopeKind.DILATATION
        assert pres.ring.ordinary_gens == ("y", "t")
        assert pres.structural.images["x"].render() == "3*t"
        assert pres.structural.images["y"].render() == "y"
        assert pres.relations == ("p*t = x",)
        assert pres.lift is None
        # no lift, nothing to check: the report is empty and passes
        report = check_envelope_frobenius(pres)
        assert report.checks == [] and report.passed

    def test_rho_divides_ideal_elements(self):
        ring = poly_ring(3, 3, ("x", "y"))
        pres = dilatation(CoordinateImmersion(power_lift(ring), ("x",)))
        x, y = ring.gen("x"), ring.gen("y")
        r = pres.rho(x * y + (y ** 2).scale(3))
        t = pres.ring.gen("t")
        yy = pres.ring.gen("y")
        assert equal_reduced(r, t * yy + (yy ** 2))
        assert r.min_precision() == 2

    def test_rho_of_p_is_one(self):
        ring = poly_ring(5, 3, ("x",))
        pres = dilatation(CoordinateImmersion(power_lift(ring), ("x",)))
        assert pres.rho(ring.constant(5)).render() == "1"

    def test_rho_rejects_non_ideal(self):
        ring = poly_ring(3, 3, ("x", "y"))
        pres = dilatation(CoordinateImmersion(power_lift(ring), ("x",)))
        with pytest.raises(NotDivisible):
            pres.rho(ring.gen("y"))

    def test_fresh_name_avoids_collision(self):
        ring = poly_ring(3, 3, ("x", "t"))
        pres = dilatation(CoordinateImmersion(power_lift(ring), ("x",)))
        assert pres.ring.ordinary_gens == ("t", "t1")
        assert pres.rho(ring.gen("x")).render() == "t1"

    def test_rho_on_random_ideal_elements(self):
        ring = poly_ring(3, 3, ("x", "y"))
        pres = dilatation(CoordinateImmersion(power_lift(ring), ("x",)))
        rng = random.Random(20260816)
        x, y = ring.gen("x"), ring.gen("y")
        for _ in range(50):
            b = _random_poly(rng, ring)
            c = _random_poly(rng, ring)
            a = b.scale(3) + x * c
            r = pres.rho(a)
            assert equal_reduced(r.scale(3), pres.structural_map(a))


def _random_poly(rng, ring, max_degree=2, max_terms=3):
    out = ring.zero()
    gens = ring.ordinary_gens
    for _ in range(rng.randrange(1, max_terms + 1)):
        coeff = rng.randrange(1, ring.modulus.cardinality)
        exps = {g: 0 for g in gens}
        for _ in range(rng.randrange(0, max_degree + 1)):
            exps[rng.choice(gens)] += 1
        out = out + ring.monomial(exps, {}, coeff)
    return out


# -- divided-power envelope -------------------------------------------------


class TestPdEnvelope:
    def test_moves_sections_to_pd_block(self):
        base = poly_ring(3, 3, ("x", "y"))
        env = pd_envelope(base, ("x",))
        assert env.ordinary_gens == ("y",)
        assert env.pd_gens == ("x",)
        assert env.pd_degree_cap == base.poly_degree_cap

    def test_section_images_square(self):
        base = poly_ring(3, 4, ("x", "y"))
        env = pd_envelope(base, ("x",))
        images = pd_section_images(base, env)
        from prism_forge.pdpoly import RingMap, substitute

        a = base.gen("x") ** 2 + base.gen("y")
        img = substitute(a, RingMap(base, images, env))
        # x^2 = 2! * x^[2] after the section
        assert img.render() == "2*x^[2] + y"


# -- stagewise prismatic envelope --------------------------------------------


class TestStagewise:
    def test_relation_rendering_p3(self):
        ring = poly_ring(3, 3, ("x",))
        pres = prismatic_envelope_stages(
            CoordinateImmersion(power_lift(ring), ("x",)), stages=2
        )
        assert pres.ring.ordinary_gens == ("t1", "t2")
        assert pres.relations[0] == "p*t1 = x"
        assert pres.relations[1] == "p*t2 = -t1^3"
        assert pres.gen_weights == {"t1": 1, "t2": 3}

    def test_frozen_frobenius_p2(self):
        ring = poly_ring(2, 4, ("x",))
        pres = prismatic_envelope_stages(
            CoordinateImmersion(power_lift(ring), ("x",)), stages=2
        )
        env = pres.ring
        t1, t2 = env.gen("t1"), env.gen("t2")
        psi1 = pres.lift.images["t1"]
        assert equal_reduced(psi1, (t1 ** 2).scale(2))
        assert psi1.min_precision() == 3
        psi2 = pres.lift.images["t2"]
        # -2*t1^4 carries precision 2, where -2 and 2 agree
        assert equal_reduced(psi2, (t1 ** 4).scale(2))
        assert psi2.min_precision() == 2

    def test_frobenius_report_passes(self):
        ring = poly_ring(2, 4, ("x",))
        lift = FrobeniusLift(
            ring=ring, images={"x": ring.gen("x") ** 2 + (ring.gen("x") ** 3).scale(2)}
        )
        pres = prismatic_envelope_stages(
            CoordinateImmersion(lift, ("x",)), stages=2
        )
        report = check_envelope_frobenius(pres)
        assert report.passed, [c.detail for c in report.failures()]

    def test_survivor_frobenius_and_connection(self):
        ring = poly_ring(2, 4, ("x", "y"))
        lift = power_lift(ring)
        pres = prismatic_envelope_stages(
            CoordinateImmersion(lift, ("x",)), stages=2
        )
        assert pres.ring.ordinary_gens == ("y", "t1", "t2")
        assert pres.lift.images["y"].render() == "y^2"
        # d't1 = dx, d't2 = -t1^(p-1) d't1 since delta(x) = 0
        assert set(pres.connection_images["t1"]) == {"x"}
        assert pres.connection_images["t1"]["x"].render() == "1"
        assert pres.connection_images["t2"]["x"].render() == "-t1"
        assert pres.connection_images["y"]["y"].render() == "2"
        report = check_envelope_frobenius(pres)
        assert report.passed, [c.detail for c in report.failures()]

    def test_stage_count_bounds(self):
        ring = poly_ring(3, 3, ("x",))
        imm = CoordinateImmersion(power_lift(ring), ("x",))
        with pytest.raises(ValueError):
            prismatic_envelope_stages(imm, stages=0)
        with pytest.raises(ValueError):
            prismatic_envelope_stages(imm, stages=3)

    def test_delta_correction_lands_on_named_generator(self):
        # phi(xi) = (x + xi)^p - x^p + p*y1 makes psi(t1) = y1 mod p:
        # the cross terms of the binomial all pick up extra powers of p
        # once xi becomes p*t1.
        p, N = 3, 3
        ring = poly_ring(p, N, ("x", "xi", "y1", "y2"), cap=14)
        x, xi, y1, y2 = (ring.gen(g) for g in ("x", "xi", "y1", "y2"))
        images = {
            "x": x ** p,
            "xi": (x + xi) ** p - x ** p + y1.scale(p),
            "y1": y1 ** p + y2.scale(p),
            "y2": y2 ** p,
        }
        lift = FrobeniusLift(ring=ring, images=images)
        pres = prismatic_envelope_stages(
            CoordinateImmersion(lift, ("xi",)), stages=1
        )
        psi_t1 = pres.lift.images["t1"]
        env_y1 = pres.ring.gen("y1")
        assert divisible_by_p(psi_t1 - env_y1)
        report = check_envelope_frobenius(pres)
        assert report.passed, [c.detail for c in report.failures()]


# -- aligned prismatic envelope ----------------------------------------------


class TestAligned:
    def test_frozen_power_case_p2(self):
        ring = poly_ring(2, 4, ("x",))
        pres = prismatic_envelope_aligned(
            CoordinateImmersion(power_lift(ring), ("x",))
        )
        assert pres.ring.pd_gens == ("t",)
        psi = pres.lift.images["t"]
        # psi(t) = p^(p-1) * p! * t^[p]
        expected = pres.ring.pd_power("t", 2).scale(4)
        assert equal_reduced(psi, expected)
        assert psi.min_precision() == 3

    def test_frozen_power_case_p3(self):
        ring = poly_ring(3, 5, ("x",))
        pres = prismatic_envelope_aligned(
            CoordinateImmersion(power_lift(ring), ("x",))
        )
        psi = pres.lift.images["t"]
        expected = pres.ring.pd_power("t", 3).scale(54)
        assert equal_reduced(psi, expected)
        report = check_envelope_frobenius(pres)
        assert report.passed, [c.detail for c in report.failures()]

    def test_rejects_misaligned_generator(self):
        ring = poly_ring(3, 4, ("x", "y"))
        x, y = ring.gen("x"), ring.gen("y")
        lift = FrobeniusLift(
            ring=ring, images={"x": x ** 3 + y.scale(3), "y": y ** 3}
        )
        with pytest.raises(NotAligned) as err:
            prismatic_envelope_aligned(CoordinateImmersion(lift, ("x",)))
        assert err.value.gen == "x"
        assert "3*y" in err.value.witness

    def test_accepts_p2_perturbation_and_ideal_terms(self):
        # 9y is a p^2-term, 3xy lands in the cut ideal: both allowed
        ring = poly_ring(3, 4, ("x", "y"))
        x, y = ring.gen("x"), ring.gen("y")
        lift = FrobeniusLift(
            ring=ring,
            images={"x": x ** 3 + y.scale(9) + (x * y).scale(3), "y": y ** 3},
        )
        pres = prismatic_envelope_aligned(CoordinateImmersion(lift, ("x",)))
        report = check_envelope_frobenius(pres)
        assert report.passed, [c.detail for c in report.failures()]


# -- explicit mixed envelope --------------------------------------------------


class TestMixedEnvelope:
    def test_frozen_frobenius_p2(self):
        pres = two_gen_mixed_envelope(Modulus(2, 5))
        env = pres.ring
        s = env.gen("s")
        t1 = env.gen("t")
        psi_s = pres.lift.images["s"]
        assert equal_reduced(psi_s, (s ** 2).scale(3) + t1.scale(2))
        psi_t = pres.lift.images["t"]
        expected = (s ** 4).scale(-4) + (s ** 2 * t1).scale(-4)
        assert equal_reduced(psi_t, expected)
        report = check_envelope_frobenius(pres)
        assert report.passed, [c.detail for c in report.failures()]

    def test_precision_collapse_at_n4(self):
        # at N=4 the t-image is only tracked mod p^2 and vanishes there;
        # the structure checks still pass
        pres = two_gen_mixed_envelope(Modulus(2, 4))
        assert pres.lift.images["t"].is_zero()
        report = check_envelope_frobenius(pres)
        assert report.passed, [c.detail for c in report.failures()]

    def test_connection_images(self):
        pres = two_gen_mixed_envelope(Modulus(2, 4))
        assert pres.connection_images["s"]["x"].render() == "1"
        assert pres.connection_images["t"]["y"].render() == "1"
        assert pres.connection_images["t"]["x"].render() == "-s"


# -- mod-p dimension counts ---------------------------------------------------


class TestDimensions:
    def test_single_variable_all_routes_agree(self):
        cap = 12
        ring3 = poly_ring(3, 3, ("x",), cap=30)
        stages = prismatic_envelope_stages(
            CoordinateImmersion(power_lift(ring3), ("x",)), stages=2
        )
        ring3b = RingSpec(
            ordinary_gens=("x",),
            pd_gens=(),
            modulus=Modulus(3, 5),
            poly_degree_cap=30,
            pd_degree_cap=30,
        )
        aligned = prismatic_envelope_aligned(
            CoordinateImmersion(power_lift(ring3b), ("x",))
        )
        dims_stages = mod_p_dimensions(stages, cap)
        dims_aligned = mod_p_dimensions(aligned, cap)
        dims_pred = polynomial_dimensions(1, cap)
        assert dims_stages == dims_aligned == dims_pred == [1] * (cap + 1)
        assert dims_stages == [stage_basis_count(3, 2, d) for d in range(cap + 1)]

    def test_with_survivor_matches_two_variables(self):
        cap = 8
        ring = poly_ring(2, 4, ("x", "y"), cap=20)
        stages = prismatic_envelope_stages(
            CoordinateImmersion(power_lift(ring), ("x",)), stages=2
        )
        assert mod_p_dimensions(stages, cap) == polynomial_dimensions(2, cap)

    def test_builders_form_no_lift_until_it_is_read(self, monkeypatch):
        from prism_forge import deltaring
        from prism_forge.derham import envelope_p_connection

        formed = []
        real_init = deltaring.FrobeniusLift.__post_init__

        def init(lift):
            formed.append(lift.ring)
            real_init(lift)

        ring = poly_ring(3, 3, ("x", "y"), cap=12)
        imm = CoordinateImmersion(power_lift(ring), ("x",))
        monkeypatch.setattr(deltaring.FrobeniusLift, "__post_init__", init)
        built = [prismatic_envelope_stages(imm, 2), prismatic_envelope_aligned(imm),
                 two_gen_mixed_envelope(Modulus(3, 3)), dilatation(imm)]
        for pres in built[:2]:
            envelope_p_connection(pres)
        # the mixed envelope's ambient lift is its input, not its lift
        assert len(formed) == 1 and formed[0] != built[2].ring
        for pres in built:
            lift = pres.lift
            assert pres.lift is lift
        assert formed[1:] == [pres.ring for pres in built[:3]]

    def test_mixed_envelope_weighted_dimensions(self):
        # basis s^a t^[n], graded by a + p n since t carries weight p
        pres = two_gen_mixed_envelope(Modulus(2, 4), poly_degree_cap=20,
                                      pd_degree_cap=20)
        assert mod_p_dimensions(pres, 8) == [d // 2 + 1 for d in range(9)]


# -- serialization -------------------------------------------------------------


class TestSerialization:
    def test_json_dict_shape(self):
        ring = poly_ring(3, 3, ("x",))
        pres = prismatic_envelope_stages(
            CoordinateImmersion(power_lift(ring), ("x",)), stages=2
        )
        d = pres.to_json_dict()
        assert d["kind"] == "prismatic_stages"
        assert d["prime"] == 3 and d["precision"] == 3
        assert d["relations"][1] == "p*t2 = -t1^3"
        assert d["stages"] == 2
        assert "frobenius" in d


# -- properties of the cut constructors -----------------------------------------


@st.composite
def immersions(draw):
    """W[x], W[x,y] or W[x,y,z] over Z/p^N with a nonempty cut and a lift
    phi(g) = g^p + p*h_g, h_g of up to two terms of degree at most 2 in
    each generator.  For a cut generator the terms of p*h_x outside the
    cut ideal are p^2-divisible, so the immersion is aligned."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(2, 4))
    gens = draw(st.sampled_from((("x",), ("x", "y"), ("x", "y", "z"))))
    ring = poly_ring(p, N, gens)
    cut = tuple(g for g in gens if draw(st.booleans())) or (gens[0],)
    cut_idx = [gens.index(x) for x in cut]
    images = {}
    for g in gens:
        h = {}
        for _ in range(draw(st.integers(0, 2))):
            o = tuple(draw(st.integers(0, 2)) for _ in gens)
            c = draw(st.integers(0, ring.modulus.cardinality - 1))
            if g in cut and not any(o[i] for i in cut_idx):
                c *= p
            h[o] = c
        images[g] = ring.gen(g) ** p + sum(
            (ring.monomial(dict(zip(gens, o)), {}, c) for o, c in h.items()),
            ring.zero(),
        ).scale(p)
    return CoordinateImmersion(FrobeniusLift(ring=ring, images=images), cut)


def _cut_envelopes(imm):
    """(presentation, names of the generators x/p) for the dilatation,
    every stage count below N and the aligned envelope."""
    r = len(imm.cut_gens)
    t_names = ("t",) if r == 1 else tuple(f"t{i}" for i in range(1, r + 1))
    firsts = ("t1",) if r == 1 else tuple(f"t{i}_1" for i in range(1, r + 1))
    out = [(dilatation(imm), t_names), (prismatic_envelope_aligned(imm), t_names)]
    for s in range(1, imm.ambient.ring.modulus.N):
        out.append((prismatic_envelope_stages(imm, s), firsts))
    return out


class TestCutProperties:
    @settings(max_examples=150, deadline=None)
    @given(immersions())
    def test_dimensions_rho_and_frobenius(self, imm):
        amb = imm.ambient.ring
        N = amb.modulus.N
        for pres, names in _cut_envelopes(imm):
            # the stage series telescope to that of a polynomial ring on
            # as many generators as the ambient ring has
            for cap in range(9):
                assert mod_p_dimensions(pres, cap) == polynomial_dimensions(
                    len(amb.ordinary_gens), cap)
            for x, t in zip(imm.cut_gens, names):
                assert pres.rho(amb.gen(x)) == pres.ring.gen(t).reduce_precision(N - 1)
            report = check_envelope_frobenius(pres)
            assert report.passed, [c.detail for c in report.failures()]
