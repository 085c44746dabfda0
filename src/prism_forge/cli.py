"""Scenario runner and one-shot subcommands.

Scenario files are JSON with "schema": 1.  A scenario fixes the prime,
the precision, degree caps, optionally a ring with Frobenius images and
a cut set, and lists checks to execute in order.  Identical scenario +
seed produces byte-identical report JSON.  Exit codes: 0 all checks
pass, 1 a check failed, 2 the input did not parse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .padic import Modulus
from .pdpoly import RingSpec
from .deltaring import FrobeniusLift, check_delta_axioms
from .envelopes import (
    CoordinateImmersion,
    check_envelope_frobenius,
    dilatation,
    mod_p_dimensions,
    polynomial_dimensions,
    prismatic_envelope_stages,
    two_gen_mixed_envelope,
)
from .derham import build_p_derham, check_poincare, polynomial_p_connection
from .exprparse import ParseError, parse_expression, parse_image_map, parse_ring
from .transforms import (
    RelativeFrobenius,
    check_frobenius_isogeny,
    check_pcurvature_formula,
    check_pushforward_quasi_iso,
    cotangent_comparison,
)

__all__ = ["CheckFailure", "Scenario", "load_scenario", "main", "run_scenario"]

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_PARSE = 2

SEED_ENV = "PRISM_FORGE_SEED"


class CheckFailure(Exception):
    """A requested check executed and did not pass."""


@dataclass(frozen=True)
class Scenario:
    prime: int
    precision: int
    poly_degree: int
    pd_degree: int
    stages: int
    ring_text: str
    frobenius: Tuple[str, ...]
    cut: Tuple[str, ...]
    checks: Tuple[dict, ...]
    seed: int
    # relative Frobenius per ordinary cap, built once for all the checks
    frobenius_maps: Dict[int, RelativeFrobenius] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # refuse, before any work, what a check cannot use
        for chk in self.checks:
            name, kind = chk["name"], chk.get("kind", "stages")
            if name == "axioms" and self.precision < 2:
                raise ParseError("axioms needs precision >= 2: delta divides by p")
            if name in ("envelope", "dimensions") and kind != "mixed" and not self.cut:
                raise ParseError(f"{name} of kind {kind} needs a cut set")

    @property
    def modulus(self) -> Modulus:
        return Modulus(self.prime, self.precision)

    def ring(
        self,
        poly_cap: Optional[int] = None,
        pd_cap: Optional[int] = None,
    ) -> RingSpec:
        return parse_ring(
            self.ring_text,
            self.modulus,
            self.poly_degree if poly_cap is None else poly_cap,
            self.pd_degree if pd_cap is None else pd_cap,
        )

    def lift(self, ring: RingSpec) -> FrobeniusLift:
        """Frobenius lift from the arrow clauses; g -> g^p where absent."""
        images = parse_image_map(self.frobenius, ring)
        for g in ring.all_gens():
            if g not in images:
                images[g] = ring.gen(g) ** self.prime
        try:
            return FrobeniusLift(ring=ring, images=images)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    @cached_property
    def _theta_degrees(self) -> Tuple[RingSpec, int]:
        """The primed ring a p-curvature check parses theta in, and the
        largest degree of a Frobenius image, at least p: both at the cap
        p(p + 1), or the scenario's own if larger."""
        p = self.prime
        ring = self.ring(poly_cap=max(self.poly_degree, p * (p + 1)), pd_cap=0)
        if not ring.ordinary_gens:
            raise ParseError("this check needs a polynomial ring")
        images = self.lift(ring).images.values()
        degree = max([p] + [im.ordinary_degree() for im in images])
        return RelativeFrobenius.primed_ring(ring), degree

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "prime": self.prime,
            "precision": self.precision,
            "caps": {
                "poly_degree": self.poly_degree,
                "pd_degree": self.pd_degree,
                "stages": self.stages,
            },
            "ring": self.ring_text,
            "frobenius": list(self.frobenius),
            "cut": list(self.cut),
            "checks": list(self.checks),
            "seed": self.seed,
        }


@dataclass
class CheckResult:
    name: str
    passed: bool
    info: dict = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)


_SCENARIO_KEYS = {
    "schema", "prime", "precision", "caps", "ring",
    "frobenius", "cut", "checks", "seed",
}
_CAP_KEYS = {"poly_degree", "pd_degree", "stages"}


def _require_int(value, what: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParseError(f"{what} must be an integer >= {minimum}")
    return value


def parse_scenario_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ParseError("scenario must be a JSON object")
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ParseError(f"unknown scenario fields: {sorted(unknown)}")
    if raw.get("schema") != 1:
        raise ParseError("scenario schema must be 1")
    caps = raw.get("caps", {})
    if not isinstance(caps, dict) or set(caps) - _CAP_KEYS:
        raise ParseError(f"caps accepts only {sorted(_CAP_KEYS)}")
    checks = raw.get("checks", [])
    if not isinstance(checks, list) or not checks:
        raise ParseError("scenario needs a non-empty list of checks")
    for chk in checks:
        if not isinstance(chk, dict) or "name" not in chk:
            raise ParseError("each check needs a name")
        if chk["name"] not in CHECKS:
            raise ParseError(
                f"unknown check {chk['name']!r}; "
                f"known: {', '.join(sorted(CHECKS))}"
            )
    frob = raw.get("frobenius", {})
    if isinstance(frob, dict):
        clauses = tuple(f"{g}->{body}" for g, body in sorted(frob.items()))
    else:
        raise ParseError("frobenius must be an object of generator: image")
    cut = raw.get("cut", [])
    if not isinstance(cut, list) or not all(isinstance(g, str) for g in cut):
        raise ParseError("cut must be a list of generator names")
    return Scenario(
        prime=_require_int(raw.get("prime"), "prime", 2),
        precision=_require_int(raw.get("precision"), "precision"),
        poly_degree=_require_int(caps.get("poly_degree", 10), "poly_degree"),
        pd_degree=_require_int(caps.get("pd_degree", 8), "pd_degree"),
        stages=_require_int(caps.get("stages", 2), "stages"),
        ring_text=raw.get("ring", "W[x]"),
        frobenius=clauses,
        cut=tuple(cut),
        checks=tuple(checks),
        seed=_require_int(raw.get("seed", 0), "seed", 0),
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario_dict(raw)


# -- check implementations -----------------------------------------------------
#
# Every check consumes the scenario plus its own parameter dict and
# returns a CheckResult whose info dict is JSON-ready; the one-shot
# subcommands call the same functions and print the lines.


def _check_axioms(sc: Scenario, params: dict) -> CheckResult:
    # sampled elements have degree <= 2 and pd weight <= 1, so (ab)^p
    # fits these caps and the standard lift skips no pair
    p = sc.prime
    ring = sc.ring(
        poly_cap=max(sc.poly_degree, 4 * p), pd_cap=max(sc.pd_degree, 2 * p)
    )
    lift = sc.lift(ring)
    samples = params.get("samples", 200)
    rep = check_delta_axioms(lift, samples=samples, seed=sc.seed)
    info = {
        "samples": rep.samples,
        "checked": rep.checked,
        "skipped": rep.skipped,
        "failures": [
            {"axiom": w.axiom, "a": w.a, "b": w.b, "discrepancy": w.discrepancy}
            for w in rep.failures
        ],
    }
    lines = [
        f"delta-ring axioms on {sc.ring_text} over Z/{sc.prime}^{sc.precision}:"
        f" {rep.checked} pairs checked, {rep.skipped} skipped"
    ]
    for w in rep.failures:
        lines.append(f"  {w.axiom} axiom fails at a={w.a}, b={w.b}")
    if rep.skipped:
        lines.append(
            f"  {rep.skipped} pairs left the ring caps unchecked;"
            " raise the poly_degree or pd_degree cap"
        )
    return CheckResult("axioms", rep.passed, info, lines)


def _check_poincare(sc: Scenario, params: dict) -> CheckResult:
    ring = sc.ring()
    num_vars = len(ring.pd_gens) if ring.pd_gens else params.get("vars", 1)
    rep = check_poincare(sc.modulus, num_vars, sc.pd_degree)
    info = {
        "vars": num_vars,
        "H0": rep.constants.describe(),
        "higher_trivial": rep.higher_trivial,
        "homotopy_identity": rep.homotopy_identity,
        "detail": rep.detail,
    }
    lines = [
        f"divided-power cell in {num_vars} variable(s), "
        f"p={sc.prime}, N={sc.precision}, cap {sc.pd_degree}:",
        f"  H^0 = {rep.constants.describe()}",
        f"  H^q = 0 for q >= 1: {'yes' if rep.higher_trivial else 'NO'}",
        f"  homotopy identity: {'holds' if rep.homotopy_identity else 'FAILS'}",
    ]
    return CheckResult("poincare", rep.passed, info, lines)


def _check_envelope(sc: Scenario, params: dict) -> CheckResult:
    kind = params.get("kind", "stages")
    if kind == "mixed":
        pres = two_gen_mixed_envelope(sc.modulus, sc.poly_degree, sc.pd_degree)
    else:
        ring = sc.ring(pd_cap=0)
        imm = CoordinateImmersion(sc.lift(ring), sc.cut)
        if kind == "stages":
            pres = prismatic_envelope_stages(imm, sc.stages)
        elif kind == "dilatation":
            pres = dilatation(imm)
        else:
            raise ParseError(f"unknown envelope kind {kind!r}")
    if pres.lift is None:
        # dilatations carry no Frobenius; rho exactness was enforced
        # by the presentation constructor
        checks = []
        passed = True
    else:
        rep = check_envelope_frobenius(pres)
        checks = rep.checks
        passed = rep.passed
    info = {
        "kind": kind,
        "presentation": pres.to_json_dict(),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in checks
        ],
    }
    env_ring = pres.ring
    lines = [f"envelope kind: {pres.kind.value}"]
    gens = ", ".join(env_ring.ordinary_gens)
    pds = ", ".join(env_ring.pd_gens)
    ring_str = "W" + (f"[{gens}]" if gens else "") + (f"<{pds}>" if pds else "")
    lines.append(
        f"ring: {ring_str} over Z/{sc.prime}^{sc.precision}"
    )
    lines.append("structural map:")
    for g, e in sorted(pres.structural_images.items()):
        lines.append(f"  {g} -> {e.render()}")
    if pres.relations:
        lines.append("relations:")
        for rel in pres.relations:
            lines.append(f"  {rel}")
    if pres.lift is not None:
        lines.append("frobenius:")
        for g in env_ring.all_gens():
            lines.append(f"  {g} -> {pres.lift.images[g].render()}")
    for c in checks:
        tag = "pass" if c.passed else "FAIL"
        lines.append(f"  [{tag}] {c.name}" + (f": {c.detail}" if c.detail else ""))
    return CheckResult("envelope", passed, info, lines)


def _divisor_rows(exponents: Sequence[int], p: int) -> List[Tuple[str, int]]:
    rows: List[Tuple[str, int]] = []
    for e in sorted(set(exponents)):
        rows.append((str(p**e), exponents.count(e)))
    return rows


def _check_cohomology(sc: Scenario, params: dict) -> CheckResult:
    which = params.get("complex", "pderham")
    if which != "pderham":
        raise ParseError(f"unknown complex {which!r}; known: pderham")
    ring = sc.ring(pd_cap=0)
    if not ring.ordinary_gens:
        raise ParseError("cohomology needs at least one ordinary generator")
    dr = build_p_derham(polynomial_p_connection(ring), cap=sc.poly_degree)
    groups = dr.all_cohomology()
    info: dict = {"complex": which, "groups": {}}
    lines = [
        f"p-de Rham complex of {sc.ring_text} over Z/{sc.prime}^{sc.precision},"
        f" window degree <= {sc.poly_degree}:"
    ]
    expect = params.get("expect", {})
    passed = True
    for q in sorted(groups):
        g = groups[q]
        info["groups"][str(q)] = list(g.exponents)
        lines.append(f"  H^{q} = {g.describe()}")
        if str(q) in expect and list(g.exponents) != list(expect[str(q)]):
            passed = False
            lines.append(f"    expected exponents {expect[str(q)]}")
    one_var = len(ring.ordinary_gens) == 1
    if one_var and 1 in groups:
        lines.append("  H^1 elementary divisors:")
        for divisor, count in _divisor_rows(groups[1].exponents, sc.prime):
            lines.append(f"    {divisor} x {count}")
    return CheckResult("cohomology", passed, info, lines)


def _relative_frobenius(sc: Scenario, min_poly_cap: int) -> RelativeFrobenius:
    cap = max(sc.poly_degree, min_poly_cap)
    if cap not in sc.frobenius_maps:
        ring = sc.ring(poly_cap=cap, pd_cap=0)
        if not ring.ordinary_gens:
            raise ParseError("this check needs a polynomial ring")
        try:
            sc.frobenius_maps[cap] = RelativeFrobenius.from_lift(sc.lift(ring))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return sc.frobenius_maps[cap]


def _nilpotent_pconn(rf: RelativeFrobenius, rank: int):
    dom = rf.domain_ring
    if rank == 1:
        return polynomial_p_connection(dom)
    mats = {
        dom.ordinary_gens[0]: [
            [
                dom.one() if (i, j) == (0, 1) else dom.zero()
                for j in range(rank)
            ]
            for i in range(rank)
        ]
    }
    return polynomial_p_connection(dom, rank=rank, matrices=mats)


def _check_ftransform(sc: Scenario, params: dict) -> CheckResult:
    window = params.get("window", 8)
    rank = params.get("rank", 1)
    m = len(sc.ring(pd_cap=0).ordinary_gens)
    need = m * (sc.prime - 1) + sc.prime * window
    rf = _relative_frobenius(sc, need)
    rep = check_pushforward_quasi_iso(rf, _nilpotent_pconn(rf, rank), window)
    info = {
        "window": window,
        "rank": rank,
        "source_dims": rep.source_dims,
        "target_dims": rep.target_dims,
        "quasi_iso": rep.quasi_iso.passed,
        "detail": rep.detail,
    }
    lines = [
        f"pushforward comparison, p={sc.prime}, rank {rank},"
        f" window {window}:",
        f"  source F_p-cohomology dims: {rep.source_dims}",
        f"  target F_p-cohomology dims: {rep.target_dims}",
        f"  quasi-isomorphism: {'yes' if rep.quasi_iso.passed else 'NO'}",
    ]
    return CheckResult("ftransform", rep.passed, info, lines)


def _check_isogeny(sc: Scenario, params: dict) -> CheckResult:
    window = params.get("window", 2)
    rf = _relative_frobenius(sc, sc.prime * window)
    rep = check_frobenius_isogeny(rf, window)
    info = {
        "window": window,
        "top_power": rep.top_power,
        "cone_exponents": {str(q): list(v) for q, v in rep.cone_exponents.items()},
        "detail": rep.detail,
    }
    lines = [
        f"Frobenius isogeny, p={sc.prime}, window {window}:",
        f"  cone killed by p^{rep.top_power}: {'yes' if rep.passed else 'NO'}",
    ]
    return CheckResult("isogeny", rep.passed, info, lines)


def _check_pcurvature(sc: Scenario, params: dict) -> CheckResult:
    theta_text = str(params.get("theta", "1"))
    p = sc.prime
    # phi-images of degree e put Theta in degree (deg + 1) e - 1; psi is p
    # times that, and its products with Theta and with psi p + 1 and 2p
    theta_ring, e = sc._theta_degrees
    theta = parse_expression(theta_text, theta_ring)
    factor = 2 * p if len(theta_ring.ordinary_gens) > 1 else p + 1
    need = factor * ((theta.ordinary_degree() + 1) * e - 1)
    rf = _relative_frobenius(sc, need)
    dom = rf.domain_ring
    pconn = polynomial_p_connection(
        dom, matrices={dom.ordinary_gens[0]: [[theta.map_to(dom)]]}
    )
    rep = check_pcurvature_formula(rf, pconn)
    psi = {
        x: mat[0][0].render() for x, mat in sorted(rep.data.psi.items())
    }
    info = {
        "theta": theta_text,
        "psi": psi,
        "failures": list(rep.failures),
    }
    lines = [f"p-curvature of the transform, p={p}, theta' = {theta_text}:"]
    for x, val in psi.items():
        lines.append(f"  psi[{x}] = {val}")
    lines.append(
        "  matches Theta^p - F*(theta'): " + ("yes" if rep.passed else "NO")
    )
    for msg in rep.failures:
        lines.append(f"  {msg}")
    return CheckResult("pcurvature", rep.passed, info, lines)


def _check_cotangent(sc: Scenario, params: dict) -> CheckResult:
    cap = params.get("cap", 3)
    ring = sc.ring(pd_cap=max(sc.pd_degree, cap + 1))
    lift = sc.lift(ring)
    rep = cotangent_comparison(lift, sc.cut, cap)
    info = {"cap": cap, "quasi_iso": rep.quasi_iso.passed, "detail": rep.detail}
    lines = [
        f"cotangent comparison, cut {{{', '.join(sc.cut)}}} in {sc.ring_text},"
        f" cap {cap}:",
        f"  quasi-isomorphism: {'yes' if rep.quasi_iso.passed else 'NO'}",
    ]
    return CheckResult("cotangent", rep.passed, info, lines)


def _check_dimensions(sc: Scenario, params: dict) -> CheckResult:
    kind = params.get("kind", "stages")
    weight_cap = params.get("weight_cap", 6)
    if kind == "mixed":
        pres = two_gen_mixed_envelope(sc.modulus, sc.poly_degree, sc.pd_degree)
        # one weight-1 generator and one weight-p divided power
        want = [d // sc.prime + 1 for d in range(weight_cap + 1)]
    else:
        ring = sc.ring(pd_cap=0)
        imm = CoordinateImmersion(sc.lift(ring), sc.cut)
        pres = prismatic_envelope_stages(imm, sc.stages)
        want = polynomial_dimensions(len(ring.ordinary_gens), weight_cap)
    got = mod_p_dimensions(pres, weight_cap)
    info = {"kind": kind, "dimensions": got, "predicted": want}
    lines = [
        f"mod-p graded dimensions up to weight {weight_cap}: {got}",
        f"prediction:                                   {want}",
    ]
    return CheckResult("dimensions", got == want, info, lines)


CHECKS: Dict[str, Callable[[Scenario, dict], CheckResult]] = {
    "axioms": _check_axioms,
    "poincare": _check_poincare,
    "envelope": _check_envelope,
    "cohomology": _check_cohomology,
    "ftransform": _check_ftransform,
    "isogeny": _check_isogeny,
    "pcurvature": _check_pcurvature,
    "cotangent": _check_cotangent,
    "dimensions": _check_dimensions,
}


# -- the runner ----------------------------------------------------------------


def run_scenario(sc: Scenario) -> Tuple[bool, dict, List[str]]:
    """Execute the checks in order; report dict is JSON-ready.  A check
    that raises anything but ParseError fails alone: its entry names the
    exception, and the rest still run."""
    results = []
    lines: List[str] = []
    for chk in sc.checks:
        params = {k: v for k, v in chk.items() if k != "name"}
        try:
            res = CHECKS[chk["name"]](sc, params)
        except ParseError:
            raise
        except Exception as exc:  # noqa: BLE001 - the check fails, not the scenario
            info = {"error": type(exc).__name__, "message": str(exc)}
            res = CheckResult(chk["name"], False, info, [f"{info['error']}: {exc}"])
        results.append(res)
        lines.extend(res.lines)
        lines.append(f"{'PASS' if res.passed else 'FAIL'} {res.name}")
    report = {
        "schema": 1,
        "scenario": sc.to_json_dict(),
        "seed": sc.seed,
        "checks": [
            {"name": r.name, "passed": r.passed, **r.info} for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    return report["passed"], report, lines


def _write_report(report: dict, out: Optional[str]) -> None:
    if out is None:
        return
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    Path(out).write_text(text, encoding="utf-8")


def _seed_override(seed: int) -> int:
    env = os.environ.get(SEED_ENV)
    if env is None:
        return seed
    try:
        return int(env)
    except ValueError as exc:
        raise ParseError(f"{SEED_ENV} must be an integer") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    sc = replace(sc, seed=_seed_override(sc.seed))
    passed, report, lines = run_scenario(sc)
    out = args.out or Path(args.scenario).stem + ".report.json"
    _write_report(report, out)
    for line in lines:
        print(line)
    print(f"report written to {out}")
    return EXIT_OK if passed else EXIT_CHECK


def _scenario_from_flags(args: argparse.Namespace, check: dict) -> Scenario:
    return Scenario(
        prime=args.prime,
        precision=args.precision,
        poly_degree=args.poly_degree,
        pd_degree=args.pd_degree,
        stages=args.stages,
        ring_text=getattr(args, "ring", "W[x]"),
        frobenius=tuple(getattr(args, "phi", None) or ()),
        cut=tuple(getattr(args, "cut", None) or ()),
        checks=(check,),
        seed=_seed_override(args.seed),
    )


def _run_single(args: argparse.Namespace, check: dict) -> int:
    sc = _scenario_from_flags(args, check)
    passed, report, lines = run_scenario(sc)
    _write_report(report, args.out)
    for line in lines:
        print(line)
    return EXIT_OK if passed else EXIT_CHECK


def _cmd_envelope(args: argparse.Namespace) -> int:
    return _run_single(args, {"name": "envelope", "kind": args.kind})


def _cmd_cohomology(args: argparse.Namespace) -> int:
    return _run_single(
        args, {"name": "cohomology", "complex": args.complex}
    )


def _cmd_poincare(args: argparse.Namespace) -> int:
    return _run_single(args, {"name": "poincare", "vars": args.vars})


def _cmd_ftransform(args: argparse.Namespace) -> int:
    return _run_single(
        args, {"name": "ftransform", "window": args.window, "rank": args.rank}
    )


def _cmd_pcurvature(args: argparse.Namespace) -> int:
    return _run_single(args, {"name": "pcurvature", "theta": args.theta})


def _cmd_axioms(args: argparse.Namespace) -> int:
    return _run_single(args, {"name": "axioms", "samples": args.samples})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prism-forge",
        description="Envelopes, p-de Rham complexes, and structural checks "
        "over truncated p-adic coefficient rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=2)
    common.add_argument("--precision", type=int, default=3)
    common.add_argument("--pd-degree", type=int, default=8)
    common.add_argument("--poly-degree", type=int, default=10)
    common.add_argument("--stages", type=int, default=2)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", help="write the JSON report here")

    run_p = sub.add_parser(
        "run", parents=[common],
        help="run a scenario file (report defaults to ./<stem>.report.json)",
    )
    run_p.add_argument("scenario")
    run_p.set_defaults(func=_cmd_run)

    env_p = sub.add_parser(
        "envelope", parents=[common], help="present an envelope and check it"
    )
    env_p.add_argument("--ring", default="W[x]")
    env_p.add_argument(
        "--phi", action="append", default=None,
        help='Frobenius image clause, e.g. "x->x^3"; repeatable',
    )
    env_p.add_argument(
        "--cut", action="append", default=None,
        help="generator cutting the center; repeatable",
    )
    env_p.add_argument(
        "--kind", choices=("stages", "dilatation", "mixed"), default="stages"
    )
    env_p.set_defaults(func=_cmd_envelope)

    coh_p = sub.add_parser(
        "cohomology", parents=[common], help="cohomology of a window complex"
    )
    coh_p.add_argument("--ring", default="W[x]")
    coh_p.add_argument("--complex", default="pderham")
    coh_p.set_defaults(func=_cmd_cohomology)

    poi_p = sub.add_parser(
        "poincare", parents=[common], help="divided-power cell acyclicity"
    )
    poi_p.add_argument("--vars", type=int, default=1)
    poi_p.set_defaults(func=_cmd_poincare)

    ft_p = sub.add_parser(
        "ftransform", parents=[common],
        help="pushforward comparison for the transform",
    )
    ft_p.add_argument("--ring", default="W[x]")
    ft_p.add_argument("--phi", action="append", default=None)
    ft_p.add_argument("--window", type=int, default=8)
    ft_p.add_argument("--rank", type=int, choices=(1, 2), default=1)
    ft_p.set_defaults(func=_cmd_ftransform)

    pc_p = sub.add_parser(
        "pcurvature", parents=[common], help="p-curvature of the transform"
    )
    pc_p.add_argument("--ring", default="W[x]")
    pc_p.add_argument("--phi", action="append", default=None)
    pc_p.add_argument(
        "--theta", default="1",
        help="twist coefficient over the primed ring, e.g. \"xp\"",
    )
    pc_p.set_defaults(func=_cmd_pcurvature)

    ax_p = sub.add_parser(
        "axioms", parents=[common], help="delta-ring axioms on random pairs"
    )
    ax_p.add_argument("--ring", default="W[x,y]")
    ax_p.add_argument("--phi", action="append", default=None)
    ax_p.add_argument("--samples", type=int, default=200)
    ax_p.set_defaults(func=_cmd_axioms)

    return parser


# parse_args gives each call a fresh namespace, so one parser serves
# every call in a process
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # noqa: BLE001 - checks surface as exit 1
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
