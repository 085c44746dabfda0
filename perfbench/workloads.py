"""The four workloads: seeded inputs, timed checks, untimed verification.

A workload builds its inputs in its constructor from one seeded
generator and hands out rounds.  A round is the list of checks that
covers every case kind once, in the same order each time; the runner
times each check's `run` and nothing else.  `collect` runs right after
the timed call, untimed, and may raise OperationFailed; `verify` runs
after the timed phase and returns the problems found in an output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import independent as ind
from prism_forge import cli, deltaring, derham, envelopes, pdpoly, transforms
from prism_forge.padic import Modulus, Scalar
from prism_forge.pdpoly import Element, Monomial, RingSpec

# Library functions are called through their modules, so that a traced
# run, which rebinds module attributes, sees the calls the benchmark makes.
FrobeniusLift = deltaring.FrobeniusLift


class OperationFailed(Exception):
    """The checked call did not complete: it raised or gave no output."""


class Report(NamedTuple):
    """What one `prism-forge run` left: its exit code and report bytes."""

    code: int
    data: bytes


@dataclass
class Check:
    kind: str
    run: Callable[[], Any]
    verify: Callable[[Any], List[str]]
    collect: Optional[Callable[[Any], Any]] = None


def _coeffs(e: Element) -> Dict[Tuple[tuple, tuple], int]:
    return {(m.ordinary, m.pd): c.residue for m, c in e.terms.items()}


# -- delta-axioms -----------------------------------------------------------------


class DeltaAxioms:
    """check_delta_axioms on W[x,y] for p = 2, 3, 5 at N = 4.

    The ordinary cap 30 holds (ab)^p for every sampled pair at these
    primes, so no pair is skipped.  Each round draws a fresh seed per
    prime.  W[u]<t> is left out: there, on some seeds, delta claims a
    digit it does not have and the axiom check reports a false failure
    (see CHANGES.md), and a case that fails on some seeds only cannot
    give a steady failure count.
    """

    name = "delta-axioms"
    N = 4
    samples = {2: 640, 3: 460, 5: 270}
    reference_elements = 2

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(seed)
        self.kinds = []
        for p in (2, 3, 5):
            ring = RingSpec(("x", "y"), (), Modulus(p, self.N), 30, 0)
            lift = FrobeniusLift(ring=ring, images={g: ring.gen(g) ** p for g in ring.all_gens()})
            self.kinds.append((p, lift))

    def round(self) -> List[Check]:
        checks = []
        for p, lift in self.kinds:
            s = self.rng.randrange(1 << 30)
            n = self.samples[p]
            label = f"p={p} {'/'.join(lift.ring.all_gens())}"
            checks.append(Check(
                label,
                run=lambda lift=lift, n=n, s=s: deltaring.check_delta_axioms(
                    lift, samples=n, seed=s),
                verify=lambda rep, lift=lift, n=n, s=s: self.verify(lift, n, s, rep),
            ))
        return checks

    def verify(self, lift: FrobeniusLift, samples: int, seed: int, rep) -> List[str]:
        problems = []
        if rep.checked != samples or rep.skipped:
            problems.append(f"{rep.checked} of {samples} pairs checked, {rep.skipped} skipped")
        if rep.failures:
            problems.append(f"{len(rep.failures)} axiom failures, first {rep.failures[0]}")
        rng = random.Random(seed)
        for _ in range(self.reference_elements):
            a = random_element(rng, lift.ring, 2, 1, 3)
            problems += delta_problems(a, deltaring.delta(lift, a))
        return problems


def delta_problems(a: Element, d: Element) -> List[str]:
    """d = delta(a) under g -> g^p against (phi(a) - a^p)/p computed over Z.

    They are compared mod p^(N-1), the precision delta gives its terms for
    an input known mod p^N, or at the lower precision of a term of d.  A
    result with no terms claims precision N by the Element convention,
    though only N-1 digits are determined (see CHANGES.md); comparing at N
    there would flag a precision claim, not a wrong value.
    """
    if d.truncated:
        return [f"delta({a.render()}) is truncated"]
    p, N = a.ring.modulus.p, a.ring.modulus.N
    ours = ind.delta_power_lift(_coeffs(a), p)
    bad = ind.residues_agree(ours, _coeffs(d), p ** min(d.min_precision(), N - 1))
    return [f"delta({a.render()}): {bad[0]}"] if bad else []


def random_element(rng: random.Random, ring: RingSpec, max_degree: int,
                   max_pd_weight: int, max_terms: int) -> Element:
    """A random element of the shape check_delta_axioms samples."""
    terms: Dict[Monomial, Scalar] = {}
    for _ in range(rng.randint(1, max_terms)):
        budget, ords = max_degree, []
        for _ in ring.ordinary_gens:
            e = rng.randint(0, budget)
            ords.append(e)
            budget -= e
        budget, pds = max_pd_weight, []
        for _ in ring.pd_gens:
            e = rng.randint(0, budget)
            pds.append(e)
            budget -= e
        mono = Monomial(tuple(ords), tuple(pds))
        c = rng.randrange(ring.modulus.cardinality)
        old = terms.get(mono)
        terms[mono] = Scalar(c + (old.residue if old else 0), ring.modulus)
    return Element(ring, terms)


# -- window-cohomology ------------------------------------------------------------------


class WindowCohomology:
    """build_p_derham + all_cohomology where Smith form does the work.

    Polynomial rings in 1-3 variables (closed form known) and the
    p-de Rham complexes of stagewise prismatic envelopes of x = 0 in W[x]
    and W[x,y] under phi = x^p (Euler identity only).  The shapes are
    fixed; the seed sets the order of the cases in the rounds.
    """

    name = "window-cohomology"
    # (variables, p, N, window cap)
    polynomial = [(1, 3, 4, 40), (1, 2, 5, 48), (2, 2, 4, 10), (2, 5, 3, 10),
                  (3, 2, 3, 5), (3, 3, 3, 5)]
    # (ambient gens, p, N, stages, window cap)
    envelope = [(("x",), 2, 4, 3, 12), (("x",), 3, 3, 2, 16), (("x", "y"), 2, 3, 2, 7)]

    def __init__(self, seed: int, workdir: str) -> None:
        self.kinds: List[Tuple[str, Callable[[], Any], tuple]] = []
        for m, p, N, cap in self.polynomial:
            ring = RingSpec(("x", "y", "z")[:m], (), Modulus(p, N), cap + 1, 0)
            self.kinds.append((f"W[{m} vars] p={p} N={N} cap {cap}",
                               lambda ring=ring, cap=cap: derham.polynomial_p_connection(ring),
                               ("polynomial", m, p, N, cap)))
        for gens, p, N, stages, cap in self.envelope:
            ring = RingSpec(gens, (), Modulus(p, N), 4 * cap, 0)
            lift = FrobeniusLift(ring=ring, images={g: ring.gen(g) ** p for g in gens})
            pres = envelopes.prismatic_envelope_stages(
                envelopes.CoordinateImmersion(lift, ("x",)), stages)
            self.kinds.append((f"envelope {'/'.join(gens)} p={p} N={N} cap {cap}",
                               lambda pres=pres: derham.envelope_p_connection(pres),
                               ("envelope", N, cap)))
        random.Random(seed).shuffle(self.kinds)
        self.closed: Dict[tuple, Dict[int, List[int]]] = {}

    def round(self) -> List[Check]:
        checks = []
        for label, connection, shape in self.kinds:
            cap = shape[-1]
            checks.append(Check(
                label,
                run=lambda connection=connection, cap=cap: self.compute(connection(), cap),
                verify=lambda out, shape=shape: self.verify(shape, out),
            ))
        return checks

    @staticmethod
    def compute(conn, cap: int):
        dr = derham.build_p_derham(conn, cap=cap)
        groups = dr.all_cohomology()
        return dr.complex.ranks, {q: list(g.exponents) for q, g in groups.items()}

    def verify(self, shape: tuple, out) -> List[str]:
        ranks, groups = out
        problems = []
        N = shape[3] if shape[0] == "polynomial" else shape[1]
        defect = ind.euler_defect(groups, ranks, N)
        if defect:
            problems.append(f"Euler identity fails: defect {defect}")
        if shape[0] == "polynomial":
            if shape not in self.closed:
                self.closed[shape] = ind.polynomial_window_cohomology(*shape[1:])
            want = self.closed[shape]
            for q in sorted(set(want) | set(groups)):
                if sorted(groups.get(q, [])) != want.get(q, []):
                    problems.append(f"H^{q} exponents differ from the closed form")
        return problems


# -- pd-cell-contraction --------------------------------------------------------------


class PdCellContraction:
    """check_poincare + contraction_identity_failures on divided-power cells.

    Each check takes one cell (p, N, variables r, pd cap), as in acceptance
    criterion 3, and a seeded batch of dense elements: every monomial of
    the window with a random nonzero coefficient, so that the
    work of a check does not depend on the seed.
    """

    name = "pd-cell-contraction"
    # (p, N, r, pd cap, elements per check)
    cells = [(2, 2, 2, 8, 1), (3, 2, 2, 8, 1), (5, 2, 2, 7, 2), (3, 3, 1, 20, 2),
             (2, 4, 1, 24, 1)]
    reference_elements = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(seed)
        self.kinds = []
        for p, N, r, cap, count in self.cells:
            ring = derham.divided_power_cell(Modulus(p, N), r, cap).ring
            monomials = pdpoly.window_monomials(ring, cap, {g: 1 for g in ring.all_gens()})
            self.kinds.append(((p, N, r, cap), ring, monomials, count))

    def _element(self, ring: RingSpec, monomials: List[Monomial]) -> Element:
        top = ring.modulus.cardinality
        return Element(ring, {m: Scalar(self.rng.randrange(1, top), ring.modulus)
                              for m in monomials})

    def round(self) -> List[Check]:
        checks = []
        for shape, ring, monomials, count in self.kinds:
            p, N, r, cap = shape
            elements = [self._element(ring, monomials) for _ in range(count)]
            checks.append(Check(
                f"p={p} N={N} r={r} cap {cap}",
                run=lambda shape=shape, elements=elements: self.compute(shape, elements),
                verify=lambda out, shape=shape, elements=elements:
                    self.verify(shape, elements, out),
            ))
        return checks

    @staticmethod
    def compute(shape: tuple, elements: List[Element]):
        p, N, r, cap = shape
        modulus = Modulus(p, N)
        report = derham.check_poincare(modulus, r, cap)
        failures = derham.contraction_identity_failures(
            derham.divided_power_cell(modulus, r, cap), elements)
        return report, failures

    def verify(self, shape: tuple, elements: List[Element], out) -> List[str]:
        report, failures = out
        p, N, r, cap = shape
        problems = []
        if report.constants.exponents != (N,):
            problems.append(f"H^0 is {report.constants.describe()}, not Z/{p}^{N}")
        if not (report.higher_trivial and report.homotopy_identity and report.passed):
            problems.append(f"Poincare report: {report.detail or 'not passed'}")
        if failures:
            problems.append(f"{len(failures)} contraction failures, first {failures[0]}")
        conn = derham.divided_power_cell(Modulus(p, N), r, cap)
        for e in elements[: self.reference_elements]:
            problems += contraction_problems(e, derham.poincare_contraction(conn, e))
        return problems


def contraction_problems(e: Element, got: Element) -> List[str]:
    """got = poincare_contraction(e) must be the constant term of e."""
    zero = ((), (0,) * len(e.ring.pd_gens))
    want = {zero: _coeffs(e).get(zero, 0)}
    p = e.ring.modulus.p
    bad = ind.residues_agree(want, _coeffs(got), p ** got.min_precision())
    return [f"contraction of {e.render()}: {bad[0]}"] if bad else []


# -- transforms-scenarios ---------------------------------------------------------------


class TransformsScenarios:
    """Scenario files run through `prism-forge run ... --out <tmp>`.

    Isogeny cones and p-curvature (p = 11, 13, seeded twists theta')
    must pass; the pushforward and cotangent file fails on every run,
    because their reports hold an object json cannot serialize, and is
    counted in `failed`.  Its content does not depend on the seed.
    """

    name = "transforms-scenarios"
    # (file stem, prime, precision, ring, isogeny windows)
    isogeny = [("isogeny-x-p2", 2, 2, "W[x]", (16, 20, 24, 28)),
               ("isogeny-x-p3", 3, 3, "W[x]", (10, 12, 14, 16, 18)),
               ("isogeny-xy-p2", 2, 2, "W[x,y]", (3, 5)),
               ("isogeny-xy-p3", 3, 2, "W[x,y]", (2, 3))]
    curvature = [("pcurvature-p11", 11, 10), ("pcurvature-p13", 13, 8)]
    theta_degree = 4
    failing = {
        "schema": 1, "prime": 2, "precision": 2, "ring": "W[x,y]", "cut": ["x"],
        "checks": [{"name": "ftransform", "window": 6, "rank": 1},
                   {"name": "ftransform", "window": 4, "rank": 3},
                   {"name": "cotangent", "cap": 5}],
        "seed": 0,
    }

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.files: List[Tuple[str, str, dict]] = []
        for stem, p, N, ring, windows in self.isogeny:
            self._add(stem, {
                "schema": 1, "prime": p, "precision": N, "ring": ring,
                "checks": [{"name": "isogeny", "window": w} for w in windows],
                "seed": rng.randrange(1000),
            }, {"kind": "isogeny", "p": p, "N": N, "ring": ring})
        for stem, p, count in self.curvature:
            thetas = []
            for _ in range(count):
                poly = {e: rng.randrange(p) for e in range(self.theta_degree)}
                poly[self.theta_degree] = rng.randrange(1, p)
                thetas.append(poly)
            self._add(stem, {
                "schema": 1, "prime": p, "precision": 2, "ring": "W[x]",
                "checks": [{"name": "pcurvature", "theta": render_theta(t)} for t in thetas],
                "seed": rng.randrange(1000),
            }, {"kind": "pcurvature", "p": p, "thetas": thetas})
        self._add("pushforward-cotangent", self.failing, {"kind": "failing"})
        self.first_report: Dict[str, bytes] = {}
        self.composites: Dict[tuple, List[str]] = {}

    def _add(self, stem: str, scenario: dict, meta: dict) -> None:
        path = os.path.join(self.workdir, stem + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh, indent=2, sort_keys=True)
        self.files.append((stem, path, meta))

    def round(self) -> List[Check]:
        checks = []
        for stem, path, meta in self.files:
            out = os.path.join(self.workdir, stem + ".report.json")
            checks.append(Check(
                stem,
                run=lambda path=path, out=out: self.invoke(path, out),
                collect=lambda res, out=out: self.collect(res, out),
                verify=lambda report, stem=stem, meta=meta: self.verify(stem, meta, report),
            ))
        return checks

    @staticmethod
    def invoke(path: str, out: str):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["run", path, "--out", out])
        return code, stderr.getvalue()

    @staticmethod
    def collect(res, out: str) -> Report:
        code, err = res
        if not os.path.exists(out):
            raise OperationFailed(f"exit {code}, no report: {err.strip()}")
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        return Report(code, data)

    def verify(self, stem: str, meta: dict, result: Report) -> List[str]:
        code, data = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        first = self.first_report.setdefault(stem, data)
        if data != first:
            problems.append("report differs from the first repetition")
        try:
            report = json.loads(data)
        except json.JSONDecodeError:
            return problems + ["report is not JSON"]
        if not report.get("passed"):
            problems.append("report says the scenario failed")
        if meta["kind"] == "isogeny":
            problems += self.verify_isogeny(meta, report)
        elif meta["kind"] == "pcurvature":
            problems += self.verify_pcurvature(meta, report)
        return problems

    def verify_isogeny(self, meta: dict, report: dict) -> List[str]:
        problems = []
        gens = tuple(meta["ring"][2:-1].split(","))
        m = len(gens)
        for chk in report["checks"]:
            if chk["top_power"] != m:
                problems.append(f"top power {chk['top_power']} for {m} coordinates")
            if any(e > m for exps in chk["cone_exponents"].values() for e in exps):
                problems.append(f"cone of window {chk['window']} not killed by p^{m}")
            key = (meta["p"], meta["N"], gens, chk["window"])
            if key not in self.composites:
                self.composites[key] = isogeny_composite_problems(*key)
            problems += self.composites[key]
        return problems

    def verify_pcurvature(self, meta: dict, report: dict) -> List[str]:
        p = meta["p"]
        problems = []
        for theta, chk in zip(meta["thetas"], report["checks"]):
            try:
                got = ind.parse_univariate(chk["psi"]["x"], "x")
            except ValueError as exc:
                problems.append(str(exc))
                continue
            if not ind.same_mod(got, ind.jacobson_psi(theta, p), p):
                problems.append(f"psi for theta' = {chk['theta']} is not Jacobson's")
        if len(report["checks"]) != len(meta["thetas"]):
            problems.append("report lists another number of checks")
        return problems


def render_theta(poly: Dict[int, int]) -> str:
    terms = [f"{c}*xp^{e}" if e else str(c) for e, c in sorted(poly.items()) if c]
    return " + ".join(terms) or "0"


def isogeny_composite_problems(p: int, N: int, gens: tuple, window: int) -> List[str]:
    """Both composites of the library's isogeny maps must be p^m * id."""
    ring = RingSpec(gens, (), Modulus(p, N), window + 1, 0)
    cu = derham.build_p_derham(derham.polynomial_connection(ring), cap=window)
    ct = derham.build_p_derham(derham.polynomial_p_connection(ring), cap=window)
    forward, backward = transforms.isogeny_maps(cu.complex, ct.complex)
    m = len(gens)
    problems = []
    for f, g in ((forward, backward), (backward, forward)):
        for q in range(m + 1):
            comp = ind.matmul(g.blocks[q], f.blocks[q])
            if not ind.is_scalar_identity(comp, p ** m, p ** N):
                problems.append(f"isogeny composite in degree {q} is not {p}^{m} id")
    return problems


WORKLOADS = {w.name: w for w in (DeltaAxioms, WindowCohomology,
                                  PdCellContraction, TransformsScenarios)}
