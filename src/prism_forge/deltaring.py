"""Frobenius lifts and the delta operator on capped polynomial rings.

A lift assigns to every generator an image congruent to its p-th power
mod p; delta(a) = (phi(a) - a^p) / p then carries one level less
precision than a.  The two delta-ring axioms (additivity with its
binomial correction, and the twisted Leibniz rule) are checked on
seeded random samples rather than assumed; the check keeps every sample
as pdpoly's packed residues and builds elements only for the witnesses
of a failure.  phi is a pdpoly.RingMap, built once per lift: apply_phi
and the check apply it, it keeps the powers of the images, and it forms
the image of each monomial once.  Each delta is phi(x).div_p(x^p), the
one division of residues by p.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .padic import PrecisionExhausted
from .pdpoly import (
    Element,
    RingMap,
    RingSpec,
    _Residues,
    _from_packed,
    _product_into,
    div_p,
    divisible_by_p,
    substitute,
)

# a sampled element of the axiom check: at most SAMPLE_TERMS terms, each
# of degree <= SAMPLE_DEGREE and divided-power weight <= SAMPLE_PD_WEIGHT
SAMPLE_DEGREE = 2
SAMPLE_PD_WEIGHT = 1
SAMPLE_TERMS = 3


class NotAFrobeniusLift(ValueError):
    """Some generator image fails phi(g) = g^p mod p."""


@dataclass(frozen=True)
class FrobeniusLift:
    """Generator images of a Frobenius lift on one ring.

    Ordinary generators need phi(g) = g^p mod p.  Divided-power
    generators need phi(u) divisible by p, which is the same congruence
    because u^p = p! * u^[p] vanishes mod p.

    Names listed in unchecked are exempt from the congruence test.  The
    single intended use is rings presented by generators and relations
    (envelope stages), where phi(g) = g^p mod p holds only modulo the
    relations and the presentation performs its own congruence checks.
    """

    ring: RingSpec
    images: Mapping[str, Element]
    unchecked: frozenset = frozenset()
    # phi as a ring map, which keeps the powers of the images once formed
    phi: RingMap = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in self.ring.all_gens():
            if name not in self.images:
                raise NotAFrobeniusLift(f"no image for generator {name}")
        for name, img in self.images.items():
            if not self.ring.has_gen(name):
                raise NotAFrobeniusLift(f"image for unknown generator {name}")
            if img.ring != self.ring:
                raise NotAFrobeniusLift(f"image of {name} lives in another ring")
        p = self.ring.modulus.p
        for name in self.ring.ordinary_gens:
            if name in self.unchecked:
                continue
            g = self.ring.gen(name)
            diff = self.images[name] - g ** p
            if not divisible_by_p(diff):
                raise NotAFrobeniusLift(
                    f"phi({name}) is not congruent to {name}^{p} mod {p}"
                )
        for name in self.ring.pd_gens:
            if name in self.unchecked:
                continue
            if not divisible_by_p(self.images[name]):
                raise NotAFrobeniusLift(
                    f"phi({name}) must be divisible by {p} for a divided-power "
                    "generator"
                )
        object.__setattr__(self, "phi", RingMap(self.ring, self.images, self.ring))


def apply_phi(lift: FrobeniusLift, a: Element) -> Element:
    """phi(a); divided powers go to divided powers of the image."""
    if a.ring is not lift.ring and a.ring != lift.ring:
        raise ValueError("element is not in the lift's ring")
    return substitute(a, lift.phi)


def delta(lift: FrobeniusLift, a: Element) -> Element:
    """(phi(a) - a^p) / p, known to one level less precision.

    The quotient is div_p's: a zero where phi(a) - a^p vanishes is known
    mod p^(N-1), and at N = 1 PrecisionExhausted is raised.
    """
    return div_p(apply_phi(lift, a), a ** lift.ring.modulus.p)


def delta_iterate(lift: FrobeniusLift, a: Element, j: int) -> Element:
    """delta applied j times; needs j levels of headroom below N."""
    if j < 0:
        raise ValueError("negative delta iteration")
    if j >= a.min_precision():
        raise PrecisionExhausted(
            f"iterating delta {j} times from precision {a.min_precision()}"
        )
    out = a
    for _ in range(j):
        out = delta(lift, out)
    return out


@dataclass
class AxiomWitness:
    axiom: str
    a: str
    b: str
    discrepancy: str


@dataclass
class AxiomReport:
    samples: int
    checked: int
    skipped: int
    failures: List[AxiomWitness] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Some pair checked, none skipped, no failure: a skipped pair
        left the caps, so the axioms went unchecked there."""
        return self.checked > 0 and self.skipped == 0 and not self.failures


class _PackedLift:
    """The element arithmetic check_delta_axioms needs, on pdpoly's
    _Residues.

    Sums, products and powers are _Residues' operators, phi is the lift's
    ring map applied to residues (RingMap.apply_residues), and each delta
    is phi(x).div_p(x^p), so every residue, precision, truncation flag,
    exception and term order is the one the element computation gives.
    Sums, products and powers are only formed of elements known to N
    everywhere, so they track no precision, and the residuals of the two
    identities are summed at the precision they are compared at
    (residual).
    """

    def __init__(self, lift: FrobeniusLift) -> None:
        self.ring = lift.ring
        self.phi = lift.phi.apply_residues

    def draw(self, rng: random.Random) -> _Residues:
        """A random element: a sum of ring.monomial terms with random
        exponents and coefficients, drawn from rng in that order."""
        ring = self.ring
        width, card = ring._codec.width, ring.modulus.cardinality
        terms: Dict[int, int] = {}
        top = 0
        for _ in range(rng.randint(1, SAMPLE_TERMS)):
            key = 0
            budget = SAMPLE_DEGREE
            for _ in ring.ordinary_gens:
                e = rng.randint(0, budget)
                budget -= e
                key = key << width | e
            degree = SAMPLE_DEGREE - budget
            budget = SAMPLE_PD_WEIGHT
            for _ in ring.pd_gens:
                e = rng.randint(0, budget)
                budget -= e
                key = key << width | e
            weight = SAMPLE_PD_WEIGHT - budget
            c = rng.randrange(card)
            if degree > ring.poly_degree_cap:
                raise ValueError("monomial exceeds ordinary degree cap")
            if weight > ring.pd_degree_cap:
                raise ValueError("monomial exceeds divided-power weight cap")
            if c:
                top = max(top, degree)
                c = (terms.get(key, 0) + c) % card
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        return _Residues(ring, terms, top, False)

    @staticmethod
    def powers(x: _Residues, n: int) -> List[_Residues]:
        """[x^0, ..., x^n], each by the products of x ** i."""
        out = [x ** 0, x]
        for i in range(2, n + 1):
            top = 1 << (i.bit_length() - 1)
            if i == top:
                out.append(out[top // 2] * out[top // 2])
            else:
                out.append(out[i - top] * out[top])
        return out

    def residual(self, claim: int, parts: Sequence[Tuple[int, _Residues]],
                 products: Sequence[Tuple[int, _Residues, _Residues]]) -> tuple:
        """(sum of sign * x over parts and of c * x * y over products, as
        residues mod p^claim, truncation flag).

        Every term of every piece is known to claim digits or more: the
        delta outputs by the choice of claim, which is below N as no
        image claims more than N digits, the rest to N, and a product to
        the lesser precision of its factors at least.  So the chain of Element sums, differences and products,
        reduced to claim, holds this sum mod p^claim at every key, at
        precision claim: a zero it drops at precision N is a zero mod
        p^claim too.  Only the truncation flags and the products dropped
        to the caps need carrying, and the products' factors are the
        same terms the element products would read.
        """
        acc: Dict[int, int] = {}
        truncated = False
        for sign, x in parts:
            truncated = truncated or x.truncated
            for k, r in x.terms.items():
                acc[k] = acc.get(k, 0) + sign * r
        for c, x, y in products:
            if _product_into(x, y, c, acc) or x.truncated or y.truncated:
                truncated = True
        q = self.ring.modulus.p ** claim
        return {k: r % q for k, r in acc.items()}, truncated

    def witness(self, axiom: str, a: _Residues, b: _Residues, claim: int,
                lhs: Dict[int, int]) -> AxiomWitness:
        """The failure as AxiomWitness renders it from elements: a and b
        known to N, the residual to claim digits at every key."""
        return AxiomWitness(
            axiom,
            a.element().render(),
            b.element().render(),
            _from_packed(self.ring, lhs, dict.fromkeys(lhs, claim), False).render(),
        )


def check_delta_axioms(
    lift: FrobeniusLift,
    samples: int = 200,
    seed: int = 0,
) -> AxiomReport:
    """Exercise both delta-ring axioms on seeded random pairs.

    delta(a+b) = delta(a) + delta(b) - sum_{0<i<p} (C(p,i)/p) a^i b^(p-i)
    delta(ab)  = a^p delta(b) + b^p delta(a) + p delta(a) delta(b)

    Pairs whose intermediate products overflow the ring caps are skipped
    (the identities are only meaningful untruncated) and counted.

    Every step runs on packed residues (_PackedLift) and gives what the
    element computation gives, kept as check_delta_axioms in
    tests/oracles.py; elements are built only for a failing pair's
    witnesses.
    """
    ops = _PackedLift(lift)
    p = lift.ring.modulus.p
    rng = random.Random(seed)
    report = AxiomReport(samples=samples, checked=0, skipped=0)
    correction_coeffs = [math.comb(p, i) // p for i in range(1, p)]

    for _ in range(samples):
        a, b = ops.draw(rng), ops.draw(rng)
        pa, pb = ops.powers(a, p), ops.powers(b, p)
        da, db = ops.phi(a).div_p(pa[p]), ops.phi(b).div_p(pb[p])
        a_plus_b = a + b
        d_sum = ops.phi(a_plus_b).div_p(a_plus_b ** p)
        ab = a * b
        d_prod = ops.phi(ab).div_p(ab ** p)
        # the identities hold at the precision the delta outputs carry
        claim = min(d_sum.min_precision(), da.min_precision(), db.min_precision())
        claim_prod = min(claim, d_prod.min_precision())
        lhs_sum, truncated_sum = ops.residual(
            claim, [(1, d_sum), (-1, da), (-1, db)],
            [(correction_coeffs[i - 1], pa[i], pb[p - i]) for i in range(1, p)],
        )
        lhs_prod, truncated_prod = ops.residual(
            claim_prod, [(1, d_prod)],
            [(-1, pa[p], db), (-1, pb[p], da), (-p, da, db)],
        )
        if truncated_sum or truncated_prod:
            report.skipped += 1
            continue
        report.checked += 1
        if any(lhs_sum.values()):
            report.failures.append(ops.witness("sum", a, b, claim, lhs_sum))
        if any(lhs_prod.values()):
            report.failures.append(ops.witness("product", a, b, claim_prod, lhs_prod))
        if len(report.failures) >= 5:
            break
    return report
