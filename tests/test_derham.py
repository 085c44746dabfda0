"""Window de Rham complexes: frozen matrices, cohomology, contraction."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prism_forge.padic import Modulus, PrecisionExhausted, valuation, Scalar
from prism_forge.pdpoly import Element, Monomial, RingSpec, window_monomials
from prism_forge.deltaring import FrobeniusLift
from prism_forge.envelopes import (
    CoordinateImmersion,
    dilatation,
    prismatic_envelope_aligned,
    prismatic_envelope_stages,
    two_gen_mixed_envelope,
)
from prism_forge.derham import (
    NotIntegrable,
    _d_table,
    PConnection,
    WindowOverflow,
    apply_pconnection,
    assert_integrable,
    build_p_derham,
    check_poincare,
    check_quasi_nilpotent,
    contraction_identity_failures,
    curvature_failures,
    divided_power_cell,
    envelope_p_connection,
    poincare_contraction,
    poincare_homotopy,
    polynomial_connection,
    polynomial_p_connection,
)
from prism_forge.homology import dense

import oracles
from cases import elements
from oracles import mat_vec
from test_homology import brute_group_exponents


def poly_ring(p, N, gens, cap=12):
    return RingSpec(
        ordinary_gens=gens,
        pd_gens=(),
        modulus=Modulus(p, N),
        poly_degree_cap=cap,
        pd_degree_cap=0,
    )


def power_lift(ring):
    p = ring.modulus.p
    return FrobeniusLift(
        ring=ring, images={g: ring.gen(g) ** p for g in ring.ordinary_gens}
    )


def int_val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- the twisted exterior derivative on a line --------------------------------


class TestPolynomialLine:
    def test_matrix_is_the_scaled_shift(self):
        # d(x^n) = p n x^(n-1) dx on the degree window, ascending basis
        ring = poly_ring(3, 3, ("x",), cap=9)
        dr = build_p_derham(polynomial_p_connection(ring), cap=9)
        d0 = dense(dr.differential(0), dr.rank(0))
        assert dr.rank(0) == 10 and dr.rank(1) == 9
        for m in range(9):
            for n in range(10):
                assert d0[m][n] == (3 * n if n == m + 1 else 0) % 27

    def test_line_cohomology_formulas(self):
        p, N, D = 3, 3, 9
        ring = poly_ring(p, N, ("x",), cap=D)
        dr = build_p_derham(polynomial_p_connection(ring), cap=D)
        kernel_exps = [min(N, 1 + int_val(n, p)) for n in range(1, D + 1)]
        assert dr.cohomology(0).exponents == tuple(sorted([N] + kernel_exps))
        assert dr.cohomology(1).exponents == tuple(sorted(kernel_exps))

    def test_line_cohomology_formulas_p2(self):
        p, N, D = 2, 4, 6
        ring = poly_ring(p, N, ("x",), cap=D)
        dr = build_p_derham(polynomial_p_connection(ring), cap=D)
        kernel_exps = [min(N, 1 + int_val(n, p)) for n in range(1, D + 1)]
        assert dr.cohomology(1).exponents == tuple(sorted(kernel_exps))


class TestTwoVariablePolynomial:
    def make(self, p=2, N=3, cap=4):
        ring = poly_ring(p, N, ("x", "y"), cap=cap)
        return ring, build_p_derham(polynomial_p_connection(ring), cap=cap)

    def test_ranks(self):
        _, dr = self.make()
        # windows 4, 3, 2 in two variables
        assert dr.rank(0) == 15
        assert dr.rank(1) == 2 * 10
        assert dr.rank(2) == 6

    def test_sign_convention_on_one_forms(self):
        # d(xy dx) = -2x dx^dy and d(xy dy) = +2y dx^dy at p = 2
        ring, dr = self.make()
        xy = Monomial((1, 1), ())
        x = Monomial((1, 0), ())
        y = Monomial((0, 1), ())
        d1 = dense(dr.differential(1), dr.rank(1))
        col_dx = dr.index_of(1, (xy, 0, (0,)))
        col_dy = dr.index_of(1, (xy, 0, (1,)))
        row_x = dr.index_of(2, (x, 0, (0, 1)))
        row_y = dr.index_of(2, (y, 0, (0, 1)))
        assert d1[row_x][col_dx] == (-2) % 8
        assert d1[row_y][col_dy] == 2
        assert d1[row_y][col_dx] == 0
        assert d1[row_x][col_dy] == 0

    def test_vector_form_round_trip(self):
        ring, dr = self.make()
        parts = {
            (0,): [ring.gen("x") + ring.gen("y").scale(3)],
            (1,): [ring.gen("y") ** 2 - 1],
        }
        vec = dr.vector_of(1, parts)
        back = dr.form_of(1, vec)
        assert back[(0,)][0] == parts[(0,)][0]
        assert back[(1,)][0] == parts[(1,)][0]

    @pytest.mark.parametrize("make_x, error", [
        (lambda x, y: x.reduce_precision(1), PrecisionExhausted),
        (lambda x, y: x + x ** 4 * y, WindowOverflow),
    ], ids=["known-mod-p", "truncated"])
    def test_vector_of_refuses_what_the_window_cannot_hold(self, make_x, error):
        # at N = 2 a coefficient known mod 3 only, or an x whose x^5 y the
        # caps dropped, must not be read as the residue of x known to N
        ring, dr = self.make(p=3, N=2, cap=4)
        dx = make_x(ring.gen("x"), ring.gen("y"))
        with pytest.raises(error):
            dr.vector_of(1, {(0,): [dx], (1,): [ring.zero()]})

    def test_against_brute_force_counting(self):
        # small enough to enumerate the quotient group directly
        ring = poly_ring(2, 2, ("x", "y"), cap=2)
        dr = build_p_derham(polynomial_p_connection(ring), cap=2)
        assert (dr.rank(0), dr.rank(1), dr.rank(2)) == (6, 6, 1)
        modulus = ring.modulus
        for q in (1, 2):
            d_out = dr.differential(q)
            expected = brute_group_exponents(
                dense(dr.differential(q - 1), dr.rank(q - 1)),
                None if d_out is None else dense(d_out, dr.rank(q)),
                modulus, dr.rank(q),
            )
            assert dr.cohomology(q).exponents == expected


# -- integrability ------------------------------------------------------------


class TestIntegrability:
    def test_polynomial_connection_is_flat(self):
        ring = poly_ring(3, 2, ("x", "y"), cap=4)
        assert curvature_failures(polynomial_p_connection(ring)) == []

    def test_curved_matrix_is_rejected(self):
        # A_x = [[y]], A_y = 0 has curvature -d'_y y = -p
        ring = poly_ring(3, 2, ("x", "y"), cap=4)
        conn = polynomial_p_connection(
            ring, rank=1, matrices={"x": [[ring.gen("y")]]}
        )
        failures = curvature_failures(conn)
        assert len(failures) == 1 and "curvature" in failures[0]
        with pytest.raises(NotIntegrable):
            assert_integrable(conn)
        # strict windows refuse the weight-raising matrix outright
        with pytest.raises(WindowOverflow):
            build_p_derham(conn, cap=2)
        # and the clipped model still cannot assemble a non-complex
        with pytest.raises(ValueError, match="d o d"):
            build_p_derham(conn, cap=2, clip=True)

    def test_mixed_envelope_connection_is_flat(self):
        pres = two_gen_mixed_envelope(Modulus(2, 4))
        assert curvature_failures(envelope_p_connection(pres)) == []


# -- connections coming from envelopes ----------------------------------------


class TestEnvelopeComplexes:
    def test_aligned_envelope_has_no_cohomology(self):
        ring = poly_ring(3, 2, ("x",), cap=6)
        pres = prismatic_envelope_aligned(
            CoordinateImmersion(power_lift(ring), ("x",)), pd_degree_cap=6
        )
        dr = build_p_derham(envelope_p_connection(pres), cap=5)
        assert dr.cohomology(0).exponents == (2,)
        assert dr.cohomology(1).is_trivial()

    @pytest.mark.parametrize("p, N", [(3, 3), (2, 3), (3, 2)])
    def test_aligned_envelope_over_divided_powers(self, p, N):
        # cutting x = 0 out of W[x,y]<u> keeps W[y]<u>: the envelope's
        # ambient divided power u gets d'u = p du and a coordinate, and
        # its complex has the cohomology of W[y]<u>'s own, window by window
        amb = RingSpec(("x", "y"), ("u",), Modulus(p, N), 12, 12)
        images = {"x": amb.gen("x") ** p, "y": amb.gen("y") ** p, "u": amb.gen("u").scale(p)}
        pres = prismatic_envelope_aligned(
            CoordinateImmersion(FrobeniusLift(ring=amb, images=images), ("x",))
        )
        conn = envelope_p_connection(pres)
        assert conn.coordinates == ("x", "y", "u")
        assert conn.gen_differentials["u"] == {"u": pres.ring.constant(p)}
        assert curvature_failures(conn) == []
        line = polynomial_p_connection(RingSpec(("y",), ("u",), Modulus(p, N), 12, 12))
        for cap in range(1, 7):
            got = build_p_derham(conn, cap=cap).all_cohomology()
            want = build_p_derham(line, cap=cap).all_cohomology()
            assert {q: g.exponents for q, g in got.items()} == {
                **{q: g.exponents for q, g in want.items()}, 3: ()
            }, cap

    def test_dilatation_complex_frozen(self):
        # kernel: constants (exp 2), y and y^2 against 3n b_n = 0 (exp 1
        # each), y^3 with 9 b_3 = 0 (exp 2), and 3 t^3 since d't = dx
        # differentiates t with integer coefficients (exp 1)
        ring = poly_ring(3, 2, ("x", "y"), cap=8)
        pres = dilatation(CoordinateImmersion(power_lift(ring), ("x",)))
        dr = build_p_derham(envelope_p_connection(pres), cap=3)
        assert dr.cohomology(0).exponents == (1, 1, 1, 2, 2)

    def test_mixed_envelope_frozen_kernel(self):
        # ker d' = constants + torsion from integer coefficients a c_a s^(a-1)
        pres = two_gen_mixed_envelope(Modulus(2, 4))
        dr = build_p_derham(envelope_p_connection(pres), cap=4)
        assert dr.cohomology(0).exponents == (1, 2, 4)
        assert dr.cohomology(0).free_rank == 1

    def test_stagewise_free_model_frozen_kernel(self):
        # d't1 = dx and d't2 = -t1 dx; on the weighted window a + 2b <= 4
        # the kernel constraints (a+1)c[a+1,b] = (b+1)c[a-1,b+1] leave
        # c[0,0], c[2,0] (dragging c[0,1] = 2c[2,0]), c[4,0] (dragging
        # c[2,1] = 4c[4,0]) free and pin c[0,2] to order 2
        ring = poly_ring(2, 3, ("x",), cap=8)
        pres = prismatic_envelope_stages(
            CoordinateImmersion(power_lift(ring), ("x",)), stages=2
        )
        conn = envelope_p_connection(pres)
        assert curvature_failures(conn) == []
        dr = build_p_derham(conn, cap=4)
        assert dr.weights == {"t1": 1, "t2": 2}
        assert dr.cohomology(0).exponents == (1, 3, 3, 3)
        assert dr.cohomology(0).free_rank == 3


# -- rank-one twist on the divided-power cell ---------------------------------


class TestTwistedCell:
    def make(self, p=3, N=2, cap=6):
        conn0 = divided_power_cell(Modulus(p, N), 1, cap)
        ring = conn0.ring
        twist = conn0.with_matrices({"x": [[ring.gen("t")]]}, rank=1)
        # the twist raises the weight, so this is the clipped model
        return ring, build_p_derham(twist, cap=cap, clip=True)

    def test_horizontal_section_by_recursion(self):
        # a_(n+1) = -n a_(n-1) solves (d/dt + t^[1]) f = 0 termwise
        ring, dr = self.make()
        coeffs = [1, 0]
        for n in range(1, 6):
            coeffs.append(-n * coeffs[n - 1])
        vec = [0] * dr.rank(0)
        for n, a in enumerate(coeffs):
            vec[dr.index_of(0, (Monomial((), (n,)), 0, ()))] = a % 9
        assert all(v % 9 == 0 for v in mat_vec(dense(dr.differential(0), dr.rank(0)), vec))

    def test_cohomology_is_the_constants(self):
        _, dr = self.make()
        assert dr.cohomology(0).exponents == (2,)
        assert dr.cohomology(1).is_trivial()


# -- quasi-nilpotence ----------------------------------------------------------


class TestQuasiNilpotence:
    def test_cell_index_is_cap_plus_one(self):
        conn = divided_power_cell(Modulus(3, 2), 1, 5)
        report = check_quasi_nilpotent(conn, cap=5)
        assert report.passed and report.indices == {"x": 6}

    def test_twisted_polynomial_rules_vanish_immediately(self):
        # d' = p d is zero mod p
        ring = poly_ring(5, 2, ("x", "y"), cap=3)
        report = check_quasi_nilpotent(polynomial_p_connection(ring), cap=3)
        assert report.passed and report.indices == {"x": 1, "y": 1}

    def test_unit_twist_is_not_quasi_nilpotent(self):
        conn0 = divided_power_cell(Modulus(3, 2), 1, 4)
        conn = conn0.with_matrices({"x": [[conn0.ring.one()]]}, rank=1)
        report = check_quasi_nilpotent(conn, cap=4)
        assert not report.passed
        assert "still nonzero" in report.detail


# -- the contraction ------------------------------------------------------------


class TestPoincare:
    def test_one_variable(self):
        report = check_poincare(Modulus(3, 3), 1, 8)
        assert report.passed
        assert report.constants.exponents == (3,)
        assert report.higher_trivial and report.homotopy_identity

    def test_two_variables(self):
        report = check_poincare(Modulus(2, 3), 2, 5)
        assert report.passed, report.detail

    def test_three_variables_smoke(self):
        assert check_poincare(Modulus(2, 2), 3, 4).passed

    def test_contraction_rejects_other_connections(self):
        ring = poly_ring(3, 2, ("x",), cap=4)
        dr = build_p_derham(polynomial_p_connection(ring), cap=4)
        with pytest.raises(ValueError, match="divided-power cell"):
            poincare_homotopy(dr)


# -- failure modes --------------------------------------------------------------


class TestWindowGuards:
    def test_weight_preserving_rule_overflows(self):
        # d't = t^[1] dx keeps the weight, so the staircase must refuse it
        modulus = Modulus(3, 2)
        ring = RingSpec((), ("t",), modulus, 0, 6)
        conn = PConnection(
            ring=ring,
            coordinates=("x",),
            gen_differentials={"t": {"x": ring.gen("t")}},
            weights={"t": 1},
        )
        with pytest.raises(WindowOverflow, match="window"):
            build_p_derham(conn, cap=4)

    def test_low_precision_coefficient_is_refused(self):
        modulus = Modulus(3, 2)
        ring = RingSpec((), ("t",), modulus, 0, 6)
        conn = PConnection(
            ring=ring,
            coordinates=("x",),
            gen_differentials={"t": {"x": ring.one().reduce_precision(1)}},
            weights={"t": 1},
        )
        with pytest.raises(PrecisionExhausted):
            build_p_derham(conn, cap=3)

    def test_image_truncated_to_zero_is_refused(self):
        # d'x = x^3 dx with poly cap 3: d'(x^2) = 2x^4 leaves the caps and
        # comes back as a truncated zero
        ring = poly_ring(3, 2, ("x",), cap=3)
        conn = PConnection(
            ring=ring,
            coordinates=("x",),
            gen_differentials={"x": {"x": ring.gen("x") ** 3}},
        )
        x0, x2 = Monomial((0,), ()), Monomial((2,), ())
        windows = [[x0, x2], [Monomial((e,), ()) for e in range(4)]]
        with pytest.raises(WindowOverflow, match="ring caps"):
            build_p_derham(conn, cap=3, windows=windows)
        clipped = build_p_derham(conn, cap=3, clip=True, windows=windows)
        assert clipped.differential(0) == [{}, {}, {}, {}]

    def test_unknown_coordinate_rejected(self):
        ring = poly_ring(3, 2, ("x",), cap=4)
        with pytest.raises(ValueError, match="unknown coordinate"):
            PConnection(
                ring=ring,
                coordinates=("x",),
                gen_differentials={"x": {"z": ring.one()}},
            )


# -- the element-level contraction ---------------------------------------------


class TestContraction:
    def cell(self, p=3, N=3, num_vars=1, cap=6):
        return divided_power_cell(Modulus(p, N), num_vars, cap)

    def test_constants_are_fixed(self):
        conn = self.cell()
        assert poincare_contraction(conn, conn.ring.one()) == conn.ring.one()
        five = conn.ring.constant(5)
        assert poincare_contraction(conn, five) == five

    def test_divided_powers_die(self):
        conn = self.cell()
        ring = conn.ring
        for n in range(1, 7):
            assert poincare_contraction(conn, ring.pd_power("t", n)).is_zero()
        assert poincare_contraction(conn, ring.pd_power("t", 2).scale(4)).is_zero()

    def test_projects_onto_constant_term(self):
        conn = self.cell(p=2, N=3, num_vars=2, cap=5)
        ring = conn.ring
        e = (
            ring.constant(3)
            + ring.pd_power("t1", 2).scale(5)
            + ring.pd_power("t1", 1) * ring.pd_power("t2", 3)
        )
        assert poincare_contraction(conn, e) == ring.constant(3)

    def test_identities_on_window_basis(self):
        from prism_forge.pdpoly import window_monomials

        for num_vars in (1, 2):
            conn = self.cell(p=3, N=2, num_vars=num_vars, cap=4)
            ring = conn.ring
            basis = [
                Element(ring, {m: Scalar(1, ring.modulus)})
                for m in window_monomials(ring, 4)
            ]
            assert contraction_identity_failures(conn, basis) == []

    def test_rejects_polynomial_rings(self):
        ring = poly_ring(3, 2, ("x",), cap=4)
        conn = polynomial_p_connection(ring)
        with pytest.raises(ValueError, match="divided-power cell"):
            poincare_contraction(conn, ring.one())

    def test_identities_refuse_other_connections_before_any_element(self):
        ring = poly_ring(3, 2, ("x",), cap=4)
        conn = polynomial_p_connection(ring)
        for batch in ([], [ring.one()]):
            with pytest.raises(ValueError, match="divided-power cell"):
                contraction_identity_failures(conn, batch)

    def test_one_derivation_per_nonzero_d_i(self, monkeypatch):
        # the Taylor reconstruction reads r(d^I e) off e's own d^I table,
        # so the only derivations are the walk's and the horizontality
        # check's, one per coordinate
        from prism_forge.pdpoly import window_monomials

        conn = self.cell(p=3, N=2, num_vars=2, cap=8)
        ring = conn.ring
        dense_e = Element(ring, {
            m: Scalar(1 + i % 8, ring.modulus)
            for i, m in enumerate(window_monomials(ring, 8))
        })
        nonzero = len(list(oracles.d_walk(conn, dense_e)))
        assert nonzero == len(window_monomials(ring, 8))
        calls = []
        original = PConnection.d_component

        def counted(self, a, coord):
            calls.append(coord)
            return original(self, a, coord)

        monkeypatch.setattr(PConnection, "d_component", counted)
        assert contraction_identity_failures(conn, [dense_e]) == []
        assert len(calls) <= nonzero + len(conn.coordinates)


def cell_case(p, N, num_vars, cap, *elements_terms, truncated=False):
    """A divided-power cell and elements given as {pd index: (residue,
    precision)} dicts; the last element carries the truncation flag when
    truncated is set."""
    conn = divided_power_cell(Modulus(p, N), num_vars, cap)
    batch = [
        Element(conn.ring, {
            Monomial((), index): Scalar(r, Modulus(p, prec))
            for index, (r, prec) in terms.items()
        }, truncated and k == len(elements_terms) - 1)
        for k, terms in enumerate(elements_terms)
    ]
    return conn, batch


@st.composite
def cells_with_elements(draw):
    """A divided-power cell over Z/p^N in one to three coordinates and two
    or three of its elements, with low-precision coefficients and zeros,
    and possibly the truncation flag."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(1, 4))
    num_vars = draw(st.integers(1, 3))
    cap = draw(st.integers(0, 4 if num_vars == 3 else 8))
    conn = divided_power_cell(Modulus(p, N), num_vars, cap)
    batch = draw(st.lists(
        elements(conn.ring, max_exp=cap, may_be_truncated=True),
        min_size=2, max_size=3,
    ))
    return conn, batch


def in_order(e):
    """Terms in the element's own order, with residue and precision, and
    the truncation flag."""
    return [(m, c.residue, c.precision) for m, c in e.terms.items()], e.truncated


class TestContractionAgainstOracle:
    """The walk that builds each d^I e from its parent against the one that
    rebuilds every d^I e from e."""

    @settings(max_examples=150, deadline=None)
    @given(cells_with_elements())
    # cap 0: the window is the constant monomial alone
    @example(cell_case(3, 2, 2, 0, {(0, 0): (5, 2)}, {}))
    # one term at pd weight equal to the cap, in 2 and in 3 coordinates
    @example(cell_case(2, 3, 2, 4, {(1, 3): (3, 3)}, {(4, 0): (1, 3)}))
    @example(cell_case(5, 2, 3, 4, {(1, 2, 1): (7, 2)}, {(0, 0, 4): (1, 1)}))
    # a truncated element carrying a low-precision zero, at the cap and
    # below it
    @example(cell_case(
        3, 3, 2, 3, {(1, 0): (2, 3)}, {(2, 1): (0, 1), (0, 1): (4, 3)}, truncated=True,
    ))
    @example(cell_case(2, 4, 3, 3, {(0, 0, 0): (1, 4)}, {(1, 1, 0): (0, 2)}, truncated=True))
    def test_walk_contraction_and_identities(self, case):
        conn, batch = case
        window = window_monomials(conn.ring, conn.ring.pd_degree_cap)
        for e in batch:
            table = _d_table(conn, e, window)
            assert [(m, in_order(t)) for m, t in table.values()] == [
                (m, in_order(t)) for m, t in oracles.d_walk(conn, e)
            ]
            assert in_order(poincare_contraction(conn, e)) == in_order(
                oracles.poincare_contraction(conn, e)
            )
        assert contraction_identity_failures(
            conn, batch
        ) == oracles.contraction_identity_failures(conn, batch)


# -- untwisted connections and the Leibniz rule ----------------------------------


class TestConnectionRule:
    def test_polynomial_connection_is_untwisted(self):
        ring = poly_ring(5, 2, ("x",), cap=6)
        conn = polynomial_connection(ring)
        x = ring.gen("x")
        # d(x^3) = 3x^2 dx with integer, not p-twisted, coefficients
        assert conn.d_component(x**3, "x") == (x**2).scale(3)

    def test_apply_pconnection_shape_guard(self):
        ring = poly_ring(3, 2, ("x",), cap=4)
        conn = polynomial_connection(ring, rank=2)
        with pytest.raises(ValueError, match="rank"):
            apply_pconnection(conn, "x", [ring.one()])

    def random_element(self, rng, ring, degree):
        out = ring.zero()
        from prism_forge.pdpoly import window_monomials

        monos = window_monomials(ring, degree)
        for _ in range(4):
            m = rng.choice(monos)
            c = rng.randrange(ring.modulus.cardinality)
            out = out + Element(ring, {m: Scalar(c, ring.modulus)})
        return out

    def test_leibniz_spot_checks(self):
        # 200 seeded (a, e) pairs: the section image of a*e must equal
        # d'a (x) e + a * (section image of e), per coordinate
        import random

        rng = random.Random(20260816)
        ring = RingSpec(("x", "y"), (), Modulus(3, 2), 8, 0)
        conn = polynomial_p_connection(
            ring,
            rank=2,
            matrices={
                "x": [[ring.zero(), ring.one()], [ring.zero(), ring.zero()]],
            },
        )
        for _ in range(200):
            a = self.random_element(rng, ring, 3)
            e = [self.random_element(rng, ring, 3) for _ in range(2)]
            ae = [a * v for v in e]
            for coord in conn.coordinates:
                lhs = apply_pconnection(conn, coord, ae)
                da = conn.d_component(a, coord)
                rhs = [
                    da * v + a * w
                    for v, w in zip(e, apply_pconnection(conn, coord, e))
                ]
                for got, want in zip(lhs, rhs):
                    assert got == want
