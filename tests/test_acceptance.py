"""The ten acceptance properties, one pass/fail line each.

Run with -s to see the lines; every criterion asserts after printing.
Numbers quoted in the detail strings are what the criterion fixes:
primes, precisions, window caps, sample counts, and time budgets.
"""

import json
import random
import time
from importlib.resources import files

from prism_forge.padic import Modulus, Scalar
from prism_forge.pdpoly import (
    Element,
    RingSpec,
    divisible_by_p,
    equal_reduced,
    window_monomials,
)
from prism_forge.deltaring import FrobeniusLift, check_delta_axioms
from prism_forge.envelopes import (
    CoordinateImmersion,
    check_envelope_frobenius,
    mod_p_dimensions,
    polynomial_dimensions,
    prismatic_envelope_stages,
    two_gen_mixed_envelope,
)
from prism_forge.derham import (
    apply_pconnection,
    build_p_derham,
    check_poincare,
    contraction_identity_failures,
    divided_power_cell,
    polynomial_connection,
    polynomial_p_connection,
)
from prism_forge.homology import dense, smith_normal_form
from prism_forge.transforms import (
    RelativeFrobenius,
    check_frobenius_isogeny,
    check_pcurvature_formula,
    check_pushforward_quasi_iso,
    cotangent_comparison,
    isogeny_maps,
    p_curvature,
)
from prism_forge.cli import main

from oracles import mat_mul, minors_gcd_divisors, split_cokernel_divisors


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def line_frobenius(p: int, N: int, cap: int) -> RelativeFrobenius:
    ring = RingSpec(("x",), (), Modulus(p, N), cap, 0)
    lift = FrobeniusLift(ring=ring, images={"x": ring.gen("x") ** p})
    return RelativeFrobenius(lift)


def test_criterion_01_delta_axioms():
    start = time.perf_counter()
    problems = []
    for p in (2, 3, 5):
        modulus = Modulus(p, 4)
        rings = [
            RingSpec(("x", "y"), (), modulus, 30, 0),
            RingSpec(("u",), ("t",), modulus, 30, 12),
        ]
        for ring in rings:
            lift = FrobeniusLift(
                ring=ring, images={g: ring.gen(g) ** p for g in ring.all_gens()}
            )
            rep = check_delta_axioms(lift, samples=550, seed=p)
            if rep.checked < 500:
                problems.append(f"p={p}: only {rep.checked} pairs checked")
            if rep.failures:
                w = rep.failures[0]
                problems.append(f"p={p}: {w.axiom} axiom fails at {w.a}, {w.b}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10:
        problems.append(f"took {elapsed:.1f}s, budget 10s")
    ok = not problems
    report(1, ok, f"delta axioms, p in 2/3/5, N=4, >=500 pairs per ring, "
                  f"{elapsed:.1f}s" + ("; " + "; ".join(problems) if problems else ""))
    assert ok, problems


def test_criterion_02_envelope_fixtures():
    problems = []

    # (a) the mixed two-variable fixture
    modulus = Modulus(2, 4)
    pres = two_gen_mixed_envelope(modulus, 12, 10)
    ring = pres.ring
    p = 2
    s, t = ring.gen("s"), ring.gen("t")
    if not equal_reduced(pres.structural.images["x"], s.scale(p)):
        problems.append("mixed: x does not go to p*s")
    if not equal_reduced(pres.structural.images["y"], t.scale(p) + s**p):
        problems.append("mixed: y does not go to p*t + s^p")
    if not divisible_by_p(pres.lift.images["s"] - s**p):
        problems.append("mixed: psi(s) != s^p mod p")
    if not divisible_by_p(pres.lift.images["t"]):
        problems.append("mixed: psi(t) != 0 mod p")
    if not divisible_by_p(t**p):
        problems.append("mixed: t^p != 0 mod p")
    if not check_envelope_frobenius(pres).passed:
        problems.append("mixed: frobenius checks fail")

    # (b) stagewise (p, x) in W[x] with phi(x) = x^p
    for p in (2, 3, 5):
        amb = RingSpec(("x",), (), Modulus(p, 4), 3 * p * p, 0)
        lift = FrobeniusLift(ring=amb, images={"x": amb.gen("x") ** p})
        stage = prismatic_envelope_stages(CoordinateImmersion(lift, ("x",)), 3)
        want = ("p*t1 = x",) + tuple(
            f"p*t{j + 1} = -t{j}^{p}" for j in (1, 2)
        )
        if stage.relations != want:
            problems.append(f"stagewise p={p}: relations {stage.relations}")
        if not check_envelope_frobenius(stage).passed:
            problems.append(f"stagewise p={p}: frobenius checks fail")

        # (c) graded mod-p dimensions against the polynomial prediction
        dims = mod_p_dimensions(stage, 8)
        if dims != polynomial_dimensions(1, 8):
            problems.append(f"stagewise p={p}: dims {dims}")

    amb2 = RingSpec(("x", "y"), (), Modulus(3, 4), 30, 0)
    lift2 = FrobeniusLift(
        ring=amb2,
        images={"x": amb2.gen("x") ** 3, "y": amb2.gen("y") ** 3},
    )
    both = prismatic_envelope_stages(CoordinateImmersion(lift2, ("x", "y")), 2)
    if mod_p_dimensions(both, 6) != polynomial_dimensions(2, 6):
        problems.append("two-variable stagewise dims off the prediction")
    mixed_dims = mod_p_dimensions(pres, 8)
    if mixed_dims != [d // 2 + 1 for d in range(9)]:
        problems.append(f"mixed dims {mixed_dims}")

    ok = not problems
    report(2, ok, "envelope fixtures: mixed images and congruences, stagewise "
                  "relations p*t(j+1) = -t(j)^p, graded dimension counts"
                  + ("; " + "; ".join(problems) if problems else ""))
    assert ok, problems


def test_criterion_03_poincare():
    start = time.perf_counter()
    problems = []
    cap = 8
    for p, N, r in ((2, 4, 1), (2, 2, 2), (3, 3, 1), (3, 2, 2), (5, 2, 1)):
        modulus = Modulus(p, N)
        rep = check_poincare(modulus, r, cap)
        if not rep.passed:
            problems.append(f"p={p} N={N} r={r}: {rep.detail}")
            continue
        if rep.constants.exponents != (N,):
            problems.append(f"p={p} N={N} r={r}: H^0 is {rep.constants.describe()}")
        conn = divided_power_cell(modulus, r, cap)
        ring = conn.ring
        basis = [
            Element(ring, {mono: Scalar(1, modulus)})
            for mono in window_monomials(
                ring, cap, {g: 1 for g in ring.all_gens()}
            )
        ]
        failures = contraction_identity_failures(conn, basis)
        if failures:
            problems.append(f"p={p} N={N} r={r}: contraction: {failures[0]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    ok = not problems
    report(3, ok, f"Poincare lemma, r in 1/2, pd cap 8: H^0 = Z/p^N, higher "
                  f"vanish, contraction identities on every basis element, "
                  f"{elapsed:.1f}s" + ("; " + "; ".join(problems) if problems else ""))
    assert ok, problems


def test_criterion_04_line_cohomology_divisors():
    D = 12
    problems = []
    for p, N in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        ring = RingSpec(("x",), (), Modulus(p, N), D, 0)
        dr = build_p_derham(polynomial_p_connection(ring), cap=D)
        got = sorted(p**e for e in dr.all_cohomology()[1].exponents)

        closed = sorted(
            p ** min(N, 1 + (0 if n % p else next(
                v for v in range(1, 40) if n % p ** (v + 1)
            ))) for n in range(1, D + 1)
        )
        oracle = split_cokernel_divisors(dense(dr.differential(0), dr.rank(0)), p**N)
        if got != closed:
            problems.append(f"p={p} N={N}: library {got} vs formula {closed}")
        if got != oracle:
            problems.append(f"p={p} N={N}: library {got} vs split oracle {oracle}")

        # small-window cross-check through the generic minors-gcd route
        ring6 = RingSpec(("x",), (), Modulus(p, N), 6, 0)
        dr6 = build_p_derham(polynomial_p_connection(ring6), cap=6)
        d0 = dense(dr6.differential(0), dr6.rank(0))
        rows = len(d0)
        aug = [
            list(d0[i]) + [p**N if j == i else 0 for j in range(rows)]
            for i in range(rows)
        ]
        minors = [d for d in minors_gcd_divisors(aug) if d > 1]
        lib6 = sorted(p**e for e in dr6.all_cohomology()[1].exponents)
        if sorted(minors) != lib6:
            problems.append(f"p={p} N={N}: minors oracle {minors} vs {lib6}")
    ok = not problems
    report(4, ok, f"H^1 divisors of the twisted line at D={D} equal "
                  f"p^min(N, 1+v_p(n)) and match the brute-force oracles"
                  + ("; " + "; ".join(problems) if problems else ""))
    assert ok, problems


def test_criterion_05_frobenius_isogeny():
    problems = []
    for p in (2, 3):
        for gens in (("x",), ("x", "y")):
            m = len(gens)
            ring = RingSpec(gens, (), Modulus(p, 4), 6, 0)
            cu = build_p_derham(polynomial_connection(ring), cap=4)
            ct = build_p_derham(polynomial_p_connection(ring), cap=4)
            b, bt = isogeny_maps(cu.complex, ct.complex)
            pm = p**m
            pN = p**4
            for f, g in ((b, bt), (bt, b)):
                for q in range(m + 1):
                    comp = mat_mul(
                        g.blocks[q], f.blocks[q], inner=f.source.ranks[q]
                    )
                    n = len(comp)
                    exact = all(
                        comp[i][j] % pN == (pm if i == j else 0)
                        for i in range(n) for j in range(n)
                    )
                    if not exact:
                        problems.append(
                            f"p={p} m={m} degree {q}: composite is not p^{m} id"
                        )

    cone_fixtures = [
        (2, 2, 8, 1),
        (3, 2, 12, 2),
    ]
    for p, N, cap, window in cone_fixtures:
        rep = check_frobenius_isogeny(line_frobenius(p, N, cap), window)
        if not (rep.passed and rep.top_power == 1):
            problems.append(f"cone p={p} window {window}: {rep.detail}")
    ok = not problems
    report(5, ok, "isogeny composites equal p^m id exactly for m in 1/2; "
                  "comparison cone killed by p on one-variable fixtures"
                  + ("; " + "; ".join(problems) if problems else ""))
    assert ok, problems


def test_criterion_06_pushforward_comparison():
    problems = []
    window = 8
    for p, cap in ((2, 20), (3, 30)):
        rf = line_frobenius(p, 2, cap)
        dom = rf.domain_ring
        bundles = [
            ("trivial", polynomial_p_connection(dom)),
            (
                "nilpotent",
                polynomial_p_connection(
                    dom, rank=2,
                    matrices={"xp": [[dom.zero(), dom.one()],
                                     [dom.zero(), dom.zero()]]},
                ),
            ),
        ]
        for label, pconn in bundles:
            rep = check_pushforward_quasi_iso(rf, pconn, window)
            if not rep.passed:
                problems.append(f"p={p} {label}: {rep.detail}")
            if rep.source_dims[:2] != rep.target_dims[:2]:
                problems.append(
                    f"p={p} {label}: H^0/H^1 dims "
                    f"{rep.source_dims} vs {rep.target_dims}"
                )
    ok = not problems
    report(6, ok, f"pushforward comparison at N=1, window {window}: "
                  "F_p ranks of H^0 and H^1 agree through the zeta map, "
                  "trivial and rank-2 nilpotent coefficients"
                  + ("; " + "; ".join(problems) if problems else ""))
    assert ok, problems


def test_criterion_07_pcurvature_formula():
    problems = []

    def oracle_agrees(conn, psi, coord, rank, degrees):
        ring = conn.ring
        x = ring.gen(coord)
        p = ring.modulus.p
        for d in degrees:
            for slot in range(rank):
                vec = [ring.zero()] * rank
                vec[slot] = x**d
                out = vec
                for _ in range(p):
                    out = apply_pconnection(conn, coord, out)
                want = [psi[i][slot] * (x**d) for i in range(rank)]
                if not all(equal_reduced(a, b) for a, b in zip(out, want)):
                    return False
        return True

    for p in (2, 3, 5):
        cap = (p + 1) * (2 * p - 1)
        rf = line_frobenius(p, 2, cap)
        dom = rf.domain_ring
        fixtures = [
            ("0", {}, 1),
            ("dx'", {"xp": [[dom.one()]]}, 1),
            ("x'dx'", {"xp": [[dom.gen("xp")]]}, 1),
            (
                "nilpotent",
                {"xp": [[dom.zero(), dom.one()], [dom.zero(), dom.zero()]]},
                2,
            ),
        ]
        for label, mats, rank in fixtures:
            pconn = polynomial_p_connection(dom, rank=rank, matrices=mats)
            rep = check_pcurvature_formula(rf, pconn)
            if not rep.passed:
                problems.append(f"p={p} theta'={label}: {rep.failures}")
                continue
            ring1 = rf.image_ring.at_precision(1)
            mats1 = {
                x: [[e.map_to(ring1) for e in row] for row in mat]
                for x, mat in rep.data.theta_pullback.items()
            }
            conn1 = polynomial_connection(
                ring1, rank=rank,
                matrices={x: m for x, m in mats1.items()},
            )
            psi = p_curvature(conn1)["x"]
            lib = rep.data.psi["x"]
            same = all(
                equal_reduced(psi[i][j], lib[i][j])
                for i in range(rank) for j in range(rank)
            )
            if not same:
                problems.append(f"p={p} theta'={label}: psi recomputation differs")
            if not oracle_agrees(conn1, psi, "x", rank, range(3)):
                problems.append(f"p={p} theta'={label}: expansion oracle differs")
    ok = not problems
    report(7, ok, "p-curvature formula psi = Theta^p - F*(theta') exact for "
                  "p in 2/3/5, rank-1 gallery and rank-2 nilpotent, against "
                  "the p-fold expansion oracle"
                  + ("; " + "; ".join(problems) if problems else ""))
    assert ok, problems


def test_criterion_08_cotangent_comparison():
    problems = []
    for N in (2, 3):
        ring = RingSpec(("x",), (), Modulus(2, N), 10, 10)
        lift = FrobeniusLift(ring=ring, images={"x": ring.gen("x") ** 2})
        rep = cotangent_comparison(lift, ("x",), cap=4)
        if not rep.passed:
            problems.append(f"point in W[x], N={N}: {rep.detail}")
    for N in (2, 3):
        ring = RingSpec(("x", "y"), (), Modulus(3, N), 10, 10)
        lift = FrobeniusLift(
            ring=ring,
            images={"x": ring.gen("x") ** 3, "y": ring.gen("y") ** 3},
        )
        rep = cotangent_comparison(lift, ("x",), cap=4)
        if not rep.passed:
            problems.append(f"cut x in W[x,y], N={N}: {rep.detail}")
    ok = not problems
    report(8, ok, "cotangent comparison quasi-isomorphism: point in W[x] and "
                  "cut {x} in W[x,y] at N <= 3"
                  + ("; " + "; ".join(problems) if problems else ""))
    assert ok, problems


def test_criterion_09_snf_oracle():
    rng = random.Random(20260816)
    problems = []
    for trial in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = [
            [rng.randint(-20, 20) if rng.random() < 0.8 else 0
             for _ in range(cols)]
            for _ in range(rows)
        ]
        dec = smith_normal_form(matrix)
        got = [d for d in dec.divisors if d != 0]
        want = minors_gcd_divisors(matrix)
        if got != want:
            problems.append(f"trial {trial}: {got} vs {want} on {matrix}")
            break
    ok = not problems
    report(9, ok, "Smith divisors match the k x k minors gcd oracle on 200 "
                  "seeded matrices up to 6 x 6"
                  + ("; " + "; ".join(problems) if problems else ""))
    assert ok, problems


def test_criterion_10_determinism(tmp_path):
    problems = []
    scen_dir = files("prism_forge") / "scenarios"
    names = sorted(
        entry.name for entry in scen_dir.iterdir() if entry.name.endswith(".json")
    )
    if not names:
        problems.append("no bundled scenarios found")
    for name in names:
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{name}.{run}.json"
            code = main(["run", str(scen_dir / name), "--out", str(out)])
            if code != 0:
                problems.append(f"{name}: exit {code}")
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            problems.append(f"{name}: reports differ between runs")
        try:
            json.loads(outputs[0])
        except json.JSONDecodeError:
            problems.append(f"{name}: report is not valid JSON")
    ok = not problems
    report(10, ok, f"bundled scenarios ({', '.join(names)}) exit 0 with "
                   "byte-identical JSON reports on repeated runs"
                   + ("; " + "; ".join(problems) if problems else ""))
    assert ok, problems
