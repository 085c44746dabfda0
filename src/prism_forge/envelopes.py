"""Envelope presentations for coordinate immersions.

A closed immersion is presented by an ambient ring with a Frobenius lift
together with a list of cut generators spanning the defining ideal along
with p.  Constructions on top of this data produce explicit
presentations: the dilatation that freely divides each cut generator by
p, the stagewise prismatic envelope that adjoins one new variable per
delta-iterate, and the aligned prismatic envelope that collapses those
stages into a single divided-power variable when the Frobenius image of
each cut generator falls back into the cut ideal up to p^2-terms.

All three start from one cut of the ambient ring: t = x/p adjoined for
each cut generator x, the structural map x -> p*t, the connection rows
d'g = p*dg (ambient divided powers included) and d't = dx, and the
first Frobenius images psi(t) = phi(x)/p.

Monomials in the new variables, constrained stage-by-stage below the
prime, form a normal-form basis mod p; the presentations expose enough
data (weights, structural map, Frobenius images, connection coefficients)
for the dimension counts, Frobenius congruences, and differential
calculus downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from math import comb
from typing import Callable, Optional, Sequence

from .padic import Modulus, valuation
from .pdpoly import (
    Element,
    RingMap,
    RingSpec,
    UnknownGenerator,
    div_p,
    divisible_by_p,
    equal_reduced,
    fresh_name,
    partial_derivative,
    substitute,
)
from .deltaring import FrobeniusLift, apply_phi, delta_iterate


class NotAligned(ValueError):
    """Cut generator whose Frobenius image leaves the cut ideal mod p^2."""

    def __init__(self, gen: str, witness: str) -> None:
        super().__init__(
            f"phi({gen}) is not aligned: witness terms {witness} "
            "lie outside the cut ideal and are not divisible by p^2"
        )
        self.gen = gen
        self.witness = witness


class EnvelopeKind(Enum):
    DILATATION = "dilatation"
    PRISMATIC_STAGES = "prismatic_stages"
    PRISMATIC_ALIGNED = "prismatic_aligned"
    PRISMATIC_EXPLICIT = "prismatic_explicit"


@dataclass(frozen=True)
class CoordinateImmersion:
    """Ambient delta-ring plus the ordinary generators cutting the center."""

    ambient: FrobeniusLift
    cut_gens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.cut_gens:
            raise ValueError("immersion needs at least one cut generator")
        if len(set(self.cut_gens)) != len(self.cut_gens):
            raise ValueError("duplicate cut generator")
        ring = self.ambient.ring
        for g in self.cut_gens:
            if g not in ring.ordinary_gens:
                raise UnknownGenerator(
                    f"cut generator {g!r} is not an ordinary ambient generator"
                )

    @property
    def surviving_gens(self) -> tuple[str, ...]:
        return tuple(
            g for g in self.ambient.ring.ordinary_gens if g not in self.cut_gens
        )


@dataclass
class EnvelopePresentation:
    """Explicit model of an envelope ring.

    structural is the ring map from the ambient ring into the envelope
    ring, which sends a cut generator x to p times a new generator, that
    is rho(x).  form_lift forms the Frobenius lift, read as lift, when the
    lift is first read; it is None where no lift is installed.  The lift
    satisfies its defining congruences only modulo the recorded relations
    (the envelope ring is modeled as a free polynomial ring), which is
    why stagewise presentations mark their new generators as exempt from
    the constructor-level congruence check.  connection_images[g][x] is
    the coefficient of dx in d'g for the canonical p-connection.
    """

    kind: EnvelopeKind
    ring: RingSpec
    ambient: FrobeniusLift
    cut_gens: tuple[str, ...]
    structural: RingMap
    form_lift: Optional[Callable[[], FrobeniusLift]] = field(compare=False, repr=False)
    relations: tuple[str, ...] = ()
    stage_count: int = 0
    gen_weights: dict[str, int] = field(default_factory=dict)
    connection_images: dict[str, dict[str, Element]] = field(default_factory=dict)
    stage_names: dict[tuple[str, int], str] = field(default_factory=dict)

    @cached_property
    def lift(self) -> Optional[FrobeniusLift]:
        return None if self.form_lift is None else self.form_lift()

    def structural_map(self, a: Element) -> Element:
        """Push an ambient element into the envelope ring."""
        return substitute(a, self.structural)

    def rho(self, a: Element) -> Element:
        """Divide an element of the cut ideal (p, x_1, ..., x_r) by p.

        Raises NotDivisible when a does not lie in the cut ideal.
        """
        return div_p(self.structural_map(a))

    def to_json_dict(self) -> dict:
        out: dict = {
            "kind": self.kind.value,
            "prime": self.ring.modulus.p,
            "precision": self.ring.modulus.N,
            "ordinary_generators": list(self.ring.ordinary_gens),
            "pd_generators": list(self.ring.pd_gens),
            "cut_generators": list(self.cut_gens),
            "relations": list(self.relations),
            "structural_map": {
                g: e.render() for g, e in sorted(self.structural.images.items())
            },
            "weights": {g: w for g, w in sorted(self.gen_weights.items())},
        }
        if self.stage_count:
            out["stages"] = self.stage_count
        if self.lift is not None:
            out["frobenius"] = {
                g: self.lift.images[g].render()
                for g in self.ring.all_gens()
            }
        return out


def _fresh_names(base: str, count: int, taken: Sequence[str]) -> tuple[str, ...]:
    """count names derived from base, avoiding collisions with taken."""
    taken_set = set(taken)
    if count == 1 and base not in taken_set:
        return (base,)
    return tuple(fresh_name(f"{base}{i}", taken_set) for i in range(1, count + 1))


def _cut(
    amb: RingSpec,
    cut_gens: Sequence[str],
    t_names: Sequence[str],
    new_gens: Sequence[str],
    pd_degree_cap: Optional[int] = None,
) -> tuple[RingSpec, RingMap, dict[str, dict[str, Element]]]:
    """Adjoin t = x/p to the ambient ring amb for each cut generator x,
    named in t_names.

    The ring is amb without the cut generators, with new_gens, which hold
    the t's, adjoined as ordinary generators or, given a divided-power
    cap, as divided-power generators after the ambient ones.  Returns the
    ring, the structural map (x -> p*t, every other ambient generator to
    itself) and the connection rows: d'g = p*dg on every uncut ambient
    generator, divided powers included, and d't = dx.
    """
    kept = tuple(g for g in amb.ordinary_gens if g not in cut_gens)
    divided = pd_degree_cap is not None
    ring = RingSpec(
        ordinary_gens=kept + (() if divided else tuple(new_gens)),
        pd_gens=amb.pd_gens + (tuple(new_gens) if divided else ()),
        modulus=amb.modulus,
        poly_degree_cap=amb.poly_degree_cap,
        pd_degree_cap=pd_degree_cap if divided else amb.pd_degree_cap,
    )
    p = amb.modulus.p
    structural = {g: ring.gen(g) for g in kept + amb.pd_gens}
    conn = {g: {g: ring.constant(p)} for g in kept + amb.pd_gens}
    for x, t in zip(cut_gens, t_names):
        structural[x] = ring.gen(t).scale(p)
        conn[t] = {x: ring.one()}
    return ring, RingMap(amb, structural, ring), conn


def _first_images(
    immersion: CoordinateImmersion,
    structural: RingMap,
    t_names: Sequence[str],
) -> dict[str, Element]:
    """Frobenius images on the cut's ring: phi(g) pushed through the
    structural map for every uncut ambient generator g, and psi(t) =
    phi(x)/p for each cut generator x."""
    lift = immersion.ambient
    images = {
        g: substitute(lift.images[g], structural)
        for g in immersion.surviving_gens + lift.ring.pd_gens
    }
    for x, t in zip(immersion.cut_gens, t_names):
        images[t] = div_p(substitute(lift.images[x], structural))
    return images


def dilatation(immersion: CoordinateImmersion) -> EnvelopePresentation:
    """Adjoin x_i / p freely for each cut generator.

    The result is a plain polynomial ring on the surviving generators and
    one new generator per cut generator; no Frobenius lift is installed
    since phi(x_i)/p need not be integral here.
    """
    amb = immersion.ambient.ring
    if amb.pd_gens:
        raise ValueError("dilatation expects a purely polynomial ambient ring")
    t_names = _fresh_names("t", len(immersion.cut_gens), amb.ordinary_gens)
    ring, structural, conn = _cut(amb, immersion.cut_gens, t_names, t_names)
    return EnvelopePresentation(
        kind=EnvelopeKind.DILATATION,
        ring=ring,
        ambient=immersion.ambient,
        cut_gens=immersion.cut_gens,
        structural=structural,
        form_lift=None,
        relations=tuple(
            f"p*{t} = {x}" for x, t in zip(immersion.cut_gens, t_names)
        ),
        gen_weights={g: 1 for g in ring.all_gens()},
        connection_images=conn,
    )


def prismatic_envelope_stages(
    immersion: CoordinateImmersion, stages: int
) -> EnvelopePresentation:
    """Stagewise prismatic envelope with the given number of stages.

    Stage j adjoins a generator for delta^(j-1)(x_i)/p-corrections; the
    chain of relations p*t[i,j+1] = delta^j(x_i) - t[i,j]^p is recorded
    in rendered form.  Frobenius images are produced by the recursion
    psi(t[i,1]) = phi(x_i)/p, psi(t[i,j+1]) = (phi(delta^j x_i) -
    psi(t[i,j])^p)/p, each a div_p quotient, formed when the lift is
    first read.  Precision drops by one per stage, so stages must stay
    below the working precision.
    """
    amb_lift = immersion.ambient
    amb = amb_lift.ring
    modulus = amb.modulus
    if amb.pd_gens:
        raise ValueError("stagewise envelope expects a purely polynomial ambient")
    if stages < 1:
        raise ValueError("stage count must be at least 1")
    if stages >= modulus.N:
        raise ValueError(
            f"stage count {stages} needs precision above {stages}, have {modulus.N}"
        )
    survivors = immersion.surviving_gens
    single = len(immersion.cut_gens) == 1
    stage_names: dict[tuple[str, int], str] = {}
    taken = set(amb.ordinary_gens)
    for idx, x in enumerate(immersion.cut_gens, start=1):
        base = "t" if single else f"t{idx}_"
        for j in range(1, stages + 1):
            stage_names[(x, j)] = fresh_name(f"{base}{j}", taken)
    firsts = tuple(stage_names[(x, 1)] for x in immersion.cut_gens)
    ring, structural, conn = _cut(
        amb, immersion.cut_gens, firsts, tuple(stage_names.values())
    )
    p = modulus.p

    # ambient delta-iterates, kept in ambient coordinates for the
    # differential recursion as well as for the relations
    deltas: dict[tuple[str, int], Element] = {}
    for x in immersion.cut_gens:
        for j in range(1, stages):
            deltas[(x, j)] = delta_iterate(amb_lift, amb.gen(x), j)

    relations = [f"p*{t} = {x}" for x, t in zip(immersion.cut_gens, firsts)]
    for x in immersion.cut_gens:
        for j in range(1, stages):
            rhs = substitute(deltas[(x, j)], structural) - ring.gen(
                stage_names[(x, j)]
            ) ** p
            relations.append(f"p*{stage_names[(x, j + 1)]} = {rhs.render()}")

    def form_lift() -> FrobeniusLift:
        # Frobenius recursion; unchecked congruence for the stage generators
        # since psi(t) = t^p holds only modulo the relations above.
        images = _first_images(immersion, structural, firsts)
        for x in immersion.cut_gens:
            prev = images[stage_names[(x, 1)]]
            for j in range(1, stages):
                phi_delta = substitute(apply_phi(amb_lift, deltas[(x, j)]), structural)
                prev = div_p(phi_delta, prev ** p)
                images[stage_names[(x, j + 1)]] = prev
        return FrobeniusLift(
            ring=ring,
            images=images,
            unchecked=frozenset(stage_names.values()),
        )

    weights = {g: 1 for g in survivors}
    for (x, j), name in stage_names.items():
        weights[name] = p ** (j - 1)

    # canonical p-connection coefficients past the cut's d't[i,1] = dx_i:
    # d't[i,j+1] = d(delta^j x_i) - t[i,j]^(p-1) * d't[i,j]
    coords = amb.ordinary_gens
    for x in immersion.cut_gens:
        for j in range(1, stages):
            t_prev = ring.gen(stage_names[(x, j)])
            prev_row = conn[stage_names[(x, j)]]
            row: dict[str, Element] = {}
            for y in coords:
                part = substitute(partial_derivative(deltas[(x, j)], y), structural)
                if y in prev_row:
                    part = part - t_prev ** (p - 1) * prev_row[y]
                if not part.is_zero():
                    row[y] = part
            conn[stage_names[(x, j + 1)]] = row

    return EnvelopePresentation(
        kind=EnvelopeKind.PRISMATIC_STAGES,
        ring=ring,
        ambient=amb_lift,
        cut_gens=immersion.cut_gens,
        structural=structural,
        form_lift=form_lift,
        relations=tuple(relations),
        stage_count=stages,
        gen_weights=weights,
        connection_images=conn,
        stage_names=stage_names,
    )


def _alignment_witness(
    phi_image: Element, cut: Sequence[str]
) -> Optional[Element]:
    """Terms of phi(x) outside the cut ideal that fail p^2-divisibility."""
    ring = phi_image.ring
    cut_idx = [ring.ordinary_index(g) for g in cut]
    bad = ring.zero()
    for mono, coeff in phi_image.terms.items():
        in_ideal = any(mono.ordinary[i] > 0 for i in cut_idx)
        if in_ideal:
            continue
        if valuation(coeff) < 2:
            bad = bad + Element(ring, {mono: coeff})
    return None if bad.is_zero() else bad


def prismatic_envelope_aligned(
    immersion: CoordinateImmersion,
    pd_degree_cap: Optional[int] = None,
) -> EnvelopePresentation:
    """One divided-power generator per cut generator.

    Requires each phi(x_i) to lie in the cut ideal up to p^2-terms;
    otherwise NotAligned reports the offending generator with the terms
    that block the construction.
    """
    amb_lift = immersion.ambient
    amb = amb_lift.ring
    for x in immersion.cut_gens:
        witness = _alignment_witness(amb_lift.images[x], immersion.cut_gens)
        if witness is not None:
            raise NotAligned(x, witness.render())
    t_names = _fresh_names("t", len(immersion.cut_gens), amb.ordinary_gens)
    if pd_degree_cap is None:
        pd_degree_cap = (
            amb.pd_degree_cap if amb.pd_degree_cap > 0 else amb.poly_degree_cap
        )
    ring, structural, conn = _cut(
        amb, immersion.cut_gens, t_names, t_names, pd_degree_cap
    )
    return EnvelopePresentation(
        kind=EnvelopeKind.PRISMATIC_ALIGNED,
        ring=ring,
        ambient=amb_lift,
        cut_gens=immersion.cut_gens,
        structural=structural,
        form_lift=lambda: FrobeniusLift(
            ring=ring, images=_first_images(immersion, structural, t_names)
        ),
        relations=tuple(
            f"p*{t} = {x}  (divided powers adjoined to {t})"
            for x, t in zip(immersion.cut_gens, t_names)
        ),
        gen_weights={g: 1 for g in ring.all_gens()},
        connection_images=conn,
    )


def two_gen_mixed_envelope(
    modulus: Modulus,
    poly_degree_cap: int = 12,
    pd_degree_cap: int = 12,
) -> EnvelopePresentation:
    """Envelope of the cut {x} in W[x, y] with phi(x) = x^p + p*y.

    x is not aligned (p*y blocks it), yet the envelope is still explicit:
    dividing x by p forces y - s^p to become p-divisible, so the result
    is W[s] with divided powers of one extra generator t, where
    x -> p*s and y -> p*t^[1] + s^p.
    """
    p = modulus.p
    amb = RingSpec(
        ordinary_gens=("x", "y"),
        pd_gens=(),
        modulus=modulus,
        poly_degree_cap=poly_degree_cap,
        pd_degree_cap=0,
    )
    amb_lift = FrobeniusLift(
        ring=amb,
        images={
            "x": amb.gen("x") ** p + amb.gen("y").scale(p),
            "y": amb.gen("y") ** p,
        },
    )
    ring = RingSpec(
        ordinary_gens=("s",),
        pd_gens=("t",),
        modulus=modulus,
        poly_degree_cap=poly_degree_cap,
        pd_degree_cap=pd_degree_cap,
    )
    s = ring.gen("s")
    t1 = ring.gen("t")
    structural = RingMap(amb, {"x": s.scale(p), "y": t1.scale(p) + s ** p}, ring)

    def form_lift() -> FrobeniusLift:
        psi_s = div_p(substitute(amb_lift.images["x"], structural))
        psi_t = div_p(substitute(amb_lift.images["y"], structural), psi_s ** p)
        return FrobeniusLift(ring=ring, images={"s": psi_s, "t": psi_t})
    conn = {
        "s": {"x": ring.one()},
        # t^[1] = (y - s^p)/p, so d't = dy - s^(p-1)*dx
        "t": {"y": ring.one(), "x": (s ** (p - 1)).scale(-1)},
    }
    return EnvelopePresentation(
        kind=EnvelopeKind.PRISMATIC_EXPLICIT,
        ring=ring,
        ambient=amb_lift,
        cut_gens=("x",),
        structural=structural,
        form_lift=form_lift,
        relations=("p*s = x", f"p*t^[1] = y - s^{p}"),
        # t divides the weight-p element y - s^p, so it carries weight p;
        # this keeps d't = dy - s^(p-1) dx weight-lowering
        gen_weights={"s": 1, "t": p},
        connection_images=conn,
    )


@dataclass
class EnvelopeCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class EnvelopeReport:
    checks: list[EnvelopeCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[EnvelopeCheck]:
        return [c for c in self.checks if not c.passed]


def check_envelope_frobenius(pres: EnvelopePresentation) -> EnvelopeReport:
    """Verify the Frobenius structure of a presentation.

    A presentation without a Frobenius lift (a dilatation) has nothing to
    check, and its report is empty and passes.  For stagewise
    presentations the mod-p congruence for a stage generator is against
    the image of the matching delta-iterate, since t^p only reduces to
    that iterate modulo the recorded relations.  The intertwining
    psi(structural(g)) = structural(phi(g)) is exact at the precision
    both sides carry.
    """
    checks: list[EnvelopeCheck] = []
    if pres.lift is None:
        return EnvelopeReport(checks)
    lift = pres.lift
    ring = pres.ring
    p = ring.modulus.p
    stage_of = {name: (x, j) for (x, j), name in pres.stage_names.items()}
    amb_lift = pres.ambient
    for g in ring.ordinary_gens:
        if g in stage_of:
            x, j = stage_of[g]
            target = pres.structural_map(
                delta_iterate(amb_lift, amb_lift.ring.gen(x), j)
            )
            ok = divisible_by_p(lift.images[g] - target)
            checks.append(
                EnvelopeCheck(
                    f"congruence:{g}",
                    ok,
                    f"psi({g}) = delta^{j}({x}) mod p",
                )
            )
        else:
            ok = divisible_by_p(lift.images[g] - ring.gen(g) ** p)
            checks.append(
                EnvelopeCheck(f"congruence:{g}", ok, f"psi({g}) = {g}^p mod p")
            )
    for u in ring.pd_gens:
        ok = divisible_by_p(lift.images[u])
        checks.append(
            EnvelopeCheck(f"divisibility:{u}", ok, f"psi({u}) lies in p*ring")
        )
    for g in amb_lift.ring.all_gens():
        lhs = apply_phi(lift, pres.structural.images[g])
        rhs = pres.structural_map(amb_lift.images[g])
        ok = equal_reduced(lhs, rhs)
        checks.append(
            EnvelopeCheck(
                f"intertwining:{g}",
                ok,
                f"psi(structural({g})) = structural(phi({g}))",
            )
        )
    return EnvelopeReport(checks)


def mod_p_dimensions(
    pres: EnvelopePresentation, weight_cap: int
) -> list[int]:
    """Dimension of the weight-d part of the mod-p normal-form basis.

    Ordinary generators contribute free exponents except stage
    generators below the top stage, which are capped below p; pd
    generators contribute one divided power per weight.  So the counts
    for d = 0 .. weight_cap are the coefficients of the product, cut at
    z^weight_cap, of one series 1 + z^w + ... + z^(bound*w) per
    generator of weight w.
    """
    p = pres.ring.modulus.p
    capped = {
        name for (_, j), name in pres.stage_names.items() if j < pres.stage_count
    }
    counts = [1] + [0] * weight_cap
    for g in pres.ring.all_gens():
        w = pres.gen_weights.get(g, 1)
        bound = p - 1 if g in capped else weight_cap
        counts = [
            sum(counts[d - e * w] for e in range(min(bound, d // w) + 1))
            for d in range(weight_cap + 1)
        ]
    return counts


def polynomial_dimensions(num_vars: int, weight_cap: int) -> list[int]:
    """Monomial counts per degree for a polynomial ring mod p.

    This is the prediction every envelope of a length-r cut with s
    surviving generators must match degree-by-degree: r + s variables.
    """
    return [comb(d + num_vars - 1, num_vars - 1) for d in range(weight_cap + 1)]
