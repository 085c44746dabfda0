"""The benchmark's own tests: its checkers reject corrupted outputs, and
the tracer counts calls as a hand count of a tiny input says it must."""

import json
import random

import pytest

import independent as ind
import workloads as wl
from prism_forge import derham, deltaring, pdpoly
from prism_forge.padic import Modulus, Scalar
from prism_forge.pdpoly import Element, RingSpec
from tracer import Tracer


def with_residue(e: Element, mono, delta: int) -> Element:
    terms = dict(e.terms)
    old = terms.get(mono, Scalar(0, e.ring.modulus))
    terms[mono] = Scalar(old.residue + delta, old.modulus)
    return Element(e.ring, terms)


# -- delta-axioms ------------------------------------------------------------------


@pytest.mark.parametrize("p,gens,pd", [(2, ("x", "y"), ()), (3, ("u",), ("t",))])
def test_delta_checker_rejects_a_changed_residue(p, gens, pd):
    ring = RingSpec(gens, pd, Modulus(p, 4), 30, 12 if pd else 0)
    lift = deltaring.FrobeniusLift(
        ring=ring, images={g: ring.gen(g) ** p for g in ring.all_gens()})
    rng = random.Random(7)
    for _ in range(5):
        a = wl.random_element(rng, ring, 2, 1, 3)
        d = deltaring.delta(lift, a)
        assert wl.delta_problems(a, d) == []
        mono = next(iter(d.terms), ring.one().sorted_terms()[0][0])
        assert wl.delta_problems(a, with_residue(d, mono, 1))


def test_axiom_report_with_skipped_pairs_is_rejected():
    bench = wl.DeltaAxioms(0, "")
    p, lift = bench.kinds[0]
    rep = deltaring.check_delta_axioms(lift, samples=5, seed=3)
    assert bench.verify(lift, 5, 3, rep) == []
    rep.checked, rep.skipped = 4, 1
    assert bench.verify(lift, 5, 3, rep)


# -- window-cohomology -------------------------------------------------------------


def test_window_checker_rejects_a_changed_exponent():
    bench = wl.WindowCohomology(0, "")
    ring = RingSpec(("x", "y"), (), Modulus(3, 4), 9, 0)
    shape = ("polynomial", 2, 3, 4, 8)
    ranks, groups = bench.compute(derham.polynomial_p_connection(ring), 8)
    assert bench.verify(shape, (ranks, groups)) == []
    bad = {q: list(v) for q, v in groups.items()}
    bad[1][0] += 1
    found = bench.verify(shape, (ranks, bad))
    assert any("Euler" in f for f in found)
    assert any("closed form" in f for f in found)


def test_closed_form_matches_the_shapes_it_was_checked_on():
    for m, p, N, cap in ((1, 3, 4, 12), (2, 3, 4, 8), (2, 2, 4, 10), (3, 3, 3, 5), (2, 5, 2, 9)):
        ring = RingSpec(("x", "y", "z")[:m], (), Modulus(p, N), cap + 1, 0)
        _, groups = wl.WindowCohomology.compute(derham.polynomial_p_connection(ring), cap)
        assert groups == ind.polynomial_window_cohomology(m, p, N, cap)


def test_envelope_checker_rejects_a_changed_exponent():
    bench = wl.WindowCohomology(0, "")
    label, connection, shape = next(k for k in bench.kinds if k[2][0] == "envelope")
    ranks, groups = bench.compute(connection(), 6)
    assert bench.verify(shape, (ranks, groups)) == []
    bad = {q: list(v) for q, v in groups.items()}
    bad[0][-1] -= 1
    assert bench.verify(shape, (ranks, bad))


# -- pd-cell-contraction -----------------------------------------------------------


def test_contraction_checker_rejects_a_changed_constant():
    bench = wl.PdCellContraction(1, "")
    check = bench.round()[0]
    report, failures = check.run()
    shape = bench.kinds[0][0]
    assert check.verify((report, failures)) == []
    assert check.verify((report, ["reconstruction failed"]))
    conn = derham.divided_power_cell(Modulus(*shape[:2]), *shape[2:])
    e = bench._element(conn.ring, bench.kinds[0][2])
    got = derham.poincare_contraction(conn, e)
    assert wl.contraction_problems(e, got) == []
    zero = pdpoly.Monomial((), (0,) * shape[2])
    assert wl.contraction_problems(e, with_residue(got, zero, 1))


# -- transforms-scenarios ----------------------------------------------------------


def test_psi_checker_rejects_a_wrong_term(tmp_path):
    bench = wl.TransformsScenarios(5, str(tmp_path))
    check = next(c for c in bench.round() if c.kind == "pcurvature-p11")
    code, data = check.collect(check.run())
    assert code == 0
    stem, _, meta = next(f for f in bench.files if f[0] == "pcurvature-p11")
    report = json.loads(data)
    assert bench.verify_pcurvature(meta, report) == []
    psi = report["checks"][0]["psi"]["x"]
    head, _, rest = psi.partition(" + ")
    report["checks"][0]["psi"]["x"] = "2*" + head + " + " + rest
    assert bench.verify_pcurvature(meta, report)


def test_jacobson_formula_by_hand():
    # theta' = xp^2 + 3 xp + 1 at p = 11: Theta = x^32 + 3 x^21 + x^10, and
    # d^10 sends x^(10 + 11k) to 10! x^(11k) = -x^(11k) mod 11
    want = {352: 1, 231: 3, 110: 1, 22: -1, 11: -3, 0: -1}
    assert ind.same_mod(ind.jacobson_psi({2: 1, 1: 3, 0: 1}, 11), want, 11)
    assert ind.parse_univariate("x^352 + 3*x^231 + x^110 - x^22 - 3*x^11 - 1", "x") == want


def test_isogeny_composite_check_multiplies_out():
    assert wl.isogeny_composite_problems(3, 3, ("x", "y"), 3) == []
    assert ind.is_scalar_identity([[9, 0], [0, 36]], 9, 27)
    assert not ind.is_scalar_identity([[9, 1], [0, 9]], 9, 27)


def test_failing_scenario_is_an_operation_failure(tmp_path):
    bench = wl.TransformsScenarios(0, str(tmp_path))
    check = next(c for c in bench.round() if c.kind == "pushforward-cotangent")
    with pytest.raises(wl.OperationFailed):
        check.collect(check.run())


# -- tracer ------------------------------------------------------------------------


def test_tracer_counts_a_tiny_delta_by_hand():
    # delta(x) for phi(x) = x^2 + 2x over Z/2^3:
    #   x ** 2                -> Element.__pow__, one mul
    #   apply_phi -> substitute: zero(), constant(1), img ** 1 (no product),
    #                constant * img (one mul), result + acc (one add)
    #   phi(x) - x^2          -> __sub__ -> __neg__, __add__
    #   exact_div_p_elem      -> one exact_div_p for the one term 2x
    ring = RingSpec(("x",), (), Modulus(2, 3), 8, 0)
    x = ring.gen("x")
    lift = deltaring.FrobeniusLift(ring=ring, images={"x": x ** 2 + x.scale(2)})
    tracer = Tracer()
    with tracer:
        d = deltaring.delta(lift, x)
    assert d.render() == "x"
    calls = dict(tracer.calls)
    assert calls == {
        "deltaring.delta": 1,
        "deltaring.apply_phi": 1,
        "pdpoly.substitute": 1,
        "pdpoly.element_pow": 2,
        "pdpoly.mul": 2,
        "pdpoly.element_add": 2,
        "pdpoly.element_sub": 1,
        "pdpoly.element_neg": 1,
        "pdpoly.exact_div_p_elem": 1,
        "padic.exact_div_p": 1,
        # zero, constant, two products, the sum, the negation, the
        # difference and the quotient
        "pdpoly.element_init": 8,
    }
    roots = [s for s in tracer.spans if s[1] == -1]
    assert [s[0] for s in roots] == ["deltaring.delta"]
    total = tracer.spans[0][3] - tracer.spans[0][2]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-6)


def test_tracer_puts_every_function_back():
    before = (pdpoly.mul, derham.apply_derivation, pdpoly.Element.__init__,
              pdpoly.Element.__add__, pdpoly.Element.__radd__)
    with Tracer():
        assert derham.apply_derivation is not before[1]
        assert pdpoly.Element.__add__ is pdpoly.Element.__radd__
    after = (pdpoly.mul, derham.apply_derivation, pdpoly.Element.__init__,
             pdpoly.Element.__add__, pdpoly.Element.__radd__)
    assert after == before
