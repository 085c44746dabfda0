"""Scenario runner and one-shot subcommands.

Scenario files are JSON with "schema": 1.  A scenario fixes the prime,
the precision, degree caps, optionally a ring with Frobenius images and
a cut set, and lists checks to execute in order.  PARAMS names each
check kind's parameters and their defaults: a scenario may give only
those, and a tuple lists the values one accepts.  Each one-shot
subcommand runs the one-check scenario its flags describe, with a flag
per parameter.  Identical scenario + seed produces byte-identical report
JSON.  Exit codes: 0 all checks pass, 1 a check failed, 2 the input did
not parse or was refused.
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

__all__ = ["Scenario", "load_scenario", "main", "run_scenario"]

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_PARSE = 2

SEED_ENV = "PRISM_FORGE_SEED"


# Each check kind's parameters and their defaults.  A tuple lists the
# values the parameter accepts, the first being its default.
PARAMS: Dict[str, Dict[str, object]] = {
    "axioms": {"samples": 200},
    "poincare": {"vars": 1},
    "envelope": {"kind": ("stages", "dilatation", "mixed")},
    "cohomology": {"complex": ("pderham",), "expect": {}},
    "ftransform": {"window": 8, "rank": 1},
    "isogeny": {"window": 2},
    "pcurvature": {"theta": "1"},
    "cotangent": {"cap": 3},
    "dimensions": {"kind": ("stages", "mixed"), "weight_cap": 6},
}

# the help of a one-shot flag whose name does not say what it takes
HELP = {
    "samples": "random pairs to check",
    "vars": "divided-power variables of the cell",
    "window": "degree window of the comparison",
    "rank": "rank of the nilpotent p-connection",
    "theta": 'twist coefficient over the primed ring, e.g. "xp"',
}

# the checks that build their ring with no divided powers; they and the
# checks that cut the ring refuse a ring with divided-power generators
POLYNOMIAL_ONLY = ("cohomology", "ftransform", "isogeny", "pcurvature")

# the degree caps of a scenario, and of the subcommands' flags
CAPS = {"poly_degree": 10, "pd_degree": 8, "stages": 2}


def _require_int(value, what: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParseError(f"{what} must be an integer >= {minimum}")
    return value


def _params(chk: dict) -> dict:
    """The check's parameters over the defaults of PARAMS; a name the
    kind does not have, or a value outside its list, is refused."""
    name, table = chk["name"], PARAMS.get(chk["name"], {})
    unknown = sorted(set(chk) - set(table) - {"name"})
    if unknown:
        raise ParseError(
            f"{name} has no parameter {unknown[0]!r}; "
            f"it takes: {', '.join(table) or 'none'}"
        )
    params = {}
    for key, default in table.items():
        if isinstance(default, tuple):
            value = chk.get(key, default[0])
            if value not in default:
                raise ParseError(
                    f"{name} {key} must be one of {', '.join(default)}, not {value!r}"
                )
        elif isinstance(default, int):
            value = _require_int(chk.get(key, default), f"{name} {key}")
        else:
            value = chk.get(key, default)
            if not isinstance(value, type(default)):
                what = "string" if isinstance(default, str) else "object"
                raise ParseError(f"{name} {key} must be a JSON {what}")
        params[key] = value
    return params


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
        _require_int(self.prime, "prime", 2)
        for what in ("precision", *CAPS):
            _require_int(getattr(self, what), what)
        _require_int(self.seed, "seed", 0)
        for chk, params in zip(self.checks, self.params):
            name = chk["name"]
            if name == "axioms" and self.precision < 2:
                raise ParseError("axioms needs precision >= 2: delta divides by p")
            if "kind" in params and params["kind"] != "mixed" and not self.cut:
                raise ParseError(f"{name} of kind {params['kind']} needs a cut set")
            cuts = name == "cotangent" or params.get("kind") in ("stages", "dilatation")
            if (cuts or name in POLYNOMIAL_ONLY) and self.ring().pd_gens:
                raise ParseError(f"{name} needs a polynomial ring, not {self.ring_text}")
            if cuts:
                ring = self.ring()
                stray = [g for g in self.cut if g not in ring.ordinary_gens]
                if stray:
                    raise ParseError(f"{name} cut {stray[0]!r} is not in {self.ring_text}")
                if len(set(self.cut)) != len(self.cut):
                    raise ParseError(f"{name} cut {list(self.cut)} repeats a generator")
            if params.get("kind") == "stages" and self.stages >= self.precision:
                raise ParseError(f"{name} needs precision above its {self.stages} stages")
            if name == "cohomology" and params["expect"]:
                top = len(self.ring().ordinary_gens)
                degrees = {str(q) for q in range(top + 1)}
                stray = sorted(set(params["expect"]) - degrees)
                if stray:
                    raise ParseError(
                        f"cohomology expect names degree {stray[0]!r};"
                        f" the complex of {self.ring_text} has degrees 0 to {top}"
                    )
            if name == "poincare":
                ring = self.ring()
                if ring.ordinary_gens:
                    raise ParseError(
                        f"poincare reads a divided-power cell, and {self.ring_text}"
                        " has ordinary generators"
                    )
                pds = len(ring.pd_gens)
                if "vars" in chk and pds and pds != params["vars"]:
                    raise ParseError(
                        f"poincare vars {params['vars']} differs from the {pds}"
                        f" divided-power generator(s) of {self.ring_text}"
                    )

    @cached_property
    def params(self) -> Tuple[dict, ...]:
        """Each check's parameters over the defaults of PARAMS."""
        return tuple(map(_params, self.checks))

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
            "caps": {cap: getattr(self, cap) for cap in CAPS},
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


def parse_scenario_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ParseError("scenario must be a JSON object")
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ParseError(f"unknown scenario fields: {sorted(unknown)}")
    if raw.get("schema") != 1:
        raise ParseError("scenario schema must be 1")
    caps = raw.get("caps", {})
    if not isinstance(caps, dict) or set(caps) - set(CAPS):
        raise ParseError(f"caps accepts only {sorted(CAPS)}")
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
        prime=raw.get("prime"),
        precision=raw.get("precision"),
        **{cap: caps.get(cap, n) for cap, n in CAPS.items()},
        ring_text=raw.get("ring", "W[x]"),
        frobenius=clauses,
        cut=tuple(cut),
        checks=tuple(checks),
        seed=raw.get("seed", 0),
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
    rep = check_delta_axioms(lift, samples=params["samples"], seed=sc.seed)
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
    num_vars = len(sc.ring().pd_gens) or params["vars"]
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


def _presentation(sc: Scenario, kind: str):
    """The two-generator mixed envelope, or the stagewise envelope or the
    dilatation of the scenario's cut."""
    if kind == "mixed":
        return two_gen_mixed_envelope(sc.modulus, sc.poly_degree, sc.pd_degree)
    imm = CoordinateImmersion(sc.lift(sc.ring(pd_cap=0)), sc.cut)
    if kind == "stages":
        return prismatic_envelope_stages(imm, sc.stages)
    return dilatation(imm)


def _check_envelope(sc: Scenario, params: dict) -> CheckResult:
    kind = params["kind"]
    pres = _presentation(sc, kind)
    rep = check_envelope_frobenius(pres)
    info = {
        "kind": kind,
        "presentation": pres.to_json_dict(),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in rep.checks
        ],
    }
    env_ring = pres.ring
    lines = [f"envelope kind: {pres.kind.value}"]
    gens = ", ".join(env_ring.ordinary_gens)
    pds = ", ".join(env_ring.pd_gens)
    ring_str = "W" + (f"[{gens}]" if gens else "") + (f"<{pds}>" if pds else "")
    lines.append(f"ring: {ring_str} over Z/{sc.prime}^{sc.precision}")
    lines.append("structural map:")
    for g, e in sorted(pres.structural.images.items()):
        lines.append(f"  {g} -> {e.render()}")
    if pres.relations:
        lines.append("relations:")
        for rel in pres.relations:
            lines.append(f"  {rel}")
    if pres.lift is not None:
        lines.append("frobenius:")
        for g in env_ring.all_gens():
            lines.append(f"  {g} -> {pres.lift.images[g].render()}")
    for c in rep.checks:
        tag = "pass" if c.passed else "FAIL"
        lines.append(f"  [{tag}] {c.name}" + (f": {c.detail}" if c.detail else ""))
    return CheckResult("envelope", rep.passed, info, lines)


def _divisor_rows(exponents: Sequence[int], p: int) -> List[Tuple[str, int]]:
    return [(str(p**e), exponents.count(e)) for e in sorted(set(exponents))]


def _check_cohomology(sc: Scenario, params: dict) -> CheckResult:
    which = params["complex"]
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
    expect = params["expect"]
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
            sc.frobenius_maps[cap] = RelativeFrobenius(sc.lift(ring))
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
    window, rank = params["window"], params["rank"]
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
    window = params["window"]
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
    theta_text = params["theta"]
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
    psi = {x: mat[0][0].render() for x, mat in sorted(rep.data.psi.items())}
    info = {"theta": theta_text, "psi": psi, "failures": list(rep.failures)}
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
    cap = params["cap"]
    ring = sc.ring(pd_cap=max(sc.pd_degree, cap + 1))
    lift = sc.lift(ring)
    rep = cotangent_comparison(lift, sc.cut, cap)
    info = {"cap": cap, "quasi_iso": rep.passed, "detail": rep.detail}
    lines = [
        f"cotangent comparison, cut {{{', '.join(sc.cut)}}} in {sc.ring_text},"
        f" cap {cap}:",
        f"  quasi-isomorphism: {'yes' if rep.passed else 'NO'}",
    ]
    return CheckResult("cotangent", rep.passed, info, lines)


def _check_dimensions(sc: Scenario, params: dict) -> CheckResult:
    kind, weight_cap = params["kind"], params["weight_cap"]
    pres = _presentation(sc, kind)
    if kind == "mixed":
        # one weight-1 generator and one weight-p divided power
        want = [d // sc.prime + 1 for d in range(weight_cap + 1)]
    else:
        m = len(sc.ring(pd_cap=0).ordinary_gens)
        want = polynomial_dimensions(m, weight_cap)
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
    for chk, params in zip(sc.checks, sc.params):
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


def _execute(sc: Scenario, out: Optional[str]) -> int:
    passed, report, lines = run_scenario(sc)
    _write_report(report, out)
    for line in lines:
        print(line)
    return EXIT_OK if passed else EXIT_CHECK


def _cmd_run(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    out = args.out or Path(args.scenario).stem + ".report.json"
    code = _execute(replace(sc, seed=_seed_override(sc.seed)), out)
    print(f"report written to {out}")
    return code


# each one-shot subcommand: (help, default ring, takes --phi, takes --cut);
# it runs the one check of its name, with a flag per parameter in PARAMS
# but "expect", which only a scenario file gives.  poincare has no --ring:
# it reads only a ring's divided powers, which --vars sets; it runs on W.
SUBCOMMANDS = {
    "envelope": ("present an envelope and check it", "W[x]", True, True),
    "cohomology": ("cohomology of a window complex", "W[x]", False, False),
    "poincare": ("divided-power cell acyclicity", None, False, False),
    "ftransform": ("pushforward comparison for the transform", "W[x]", True, False),
    "pcurvature": ("p-curvature of the transform", "W[x]", True, False),
    "axioms": ("delta-ring axioms on random pairs", "W[x,y]", True, False),
}


def _run_single(args: argparse.Namespace) -> int:
    name = args.command
    check = {"name": name, **{k: getattr(args, k) for k in PARAMS[name] if k in args}}
    sc = Scenario(
        prime=args.prime,
        precision=args.precision,
        **{cap: getattr(args, cap) for cap in CAPS},
        ring_text=getattr(args, "ring", "W"),
        frobenius=tuple(getattr(args, "phi", None) or ()),
        cut=tuple(getattr(args, "cut", None) or ()),
        checks=(check,),
        seed=_seed_override(args.seed),
    )
    return _execute(sc, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prism-forge",
        description="Envelopes, p-de Rham complexes, and structural checks "
        "over truncated p-adic coefficient rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out_help = "write the JSON report here"

    run_p = sub.add_parser(
        "run", help="run a scenario file (report defaults to ./<stem>.report.json)"
    )
    run_p.add_argument("scenario")
    run_p.add_argument("--out", help=out_help)
    run_p.set_defaults(func=_cmd_run)

    for name, (text, ring, phi, cut) in SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--prime", type=int, default=2)
        cmd.add_argument("--precision", type=int, default=3)
        for cap, default in CAPS.items():
            cmd.add_argument("--" + cap.replace("_", "-"), type=int, default=default)
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out", help=out_help)
        if ring is not None:
            cmd.add_argument("--ring", default=ring)
        if phi:
            cmd.add_argument(
                "--phi", action="append",
                help='Frobenius image clause, e.g. "x->x^3"; repeatable',
            )
        if cut:
            cmd.add_argument(
                "--cut", action="append",
                help="generator cutting the center; repeatable",
            )
        for key, default in PARAMS[name].items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, tuple):
                choices = "one of " + ", ".join(default)
                cmd.add_argument(flag, default=default[0], help=choices)
            elif not isinstance(default, dict):
                cmd.add_argument(
                    flag, type=type(default), default=default, help=HELP.get(key)
                )
        cmd.set_defaults(func=_run_single)

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
