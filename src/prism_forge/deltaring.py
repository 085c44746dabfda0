"""Frobenius lifts and the delta operator on capped polynomial rings.

A lift assigns to every generator an image congruent to its p-th power
mod p; delta(a) = (phi(a) - a^p) / p then carries one level less
precision than a.  The two delta-ring axioms (additivity with its
binomial correction, and the twisted Leibniz rule) are checked on
seeded random samples rather than assumed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Union

from .padic import Modulus, PrecisionExhausted
from .pdpoly import (
    Element,
    RingSpec,
    _ImagePowers,
    div_p,
    divisible_by_p,
    substitute,
)


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
    # powers and divided powers of the images, formed on first use
    _powers: _ImagePowers = field(init=False, repr=False, compare=False)

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
            if not divisible_by_p(diff, 1):
                raise NotAFrobeniusLift(
                    f"phi({name}) is not congruent to {name}^{p} mod {p}"
                )
        for name in self.ring.pd_gens:
            if name in self.unchecked:
                continue
            if not divisible_by_p(self.images[name], 1):
                raise NotAFrobeniusLift(
                    f"phi({name}) must be divisible by {p} for a divided-power "
                    "generator"
                )
        object.__setattr__(
            self, "_powers", _ImagePowers(self.ring, self.images, self.ring)
        )


def apply_phi(lift: FrobeniusLift, a: Element) -> Element:
    """phi(a); divided powers go to divided powers of the image."""
    if a.ring is not lift.ring and a.ring != lift.ring:
        raise ValueError("element is not in the lift's ring")
    return substitute(a, lift.images, target=lift.ring, _powers=lift._powers)


def delta(lift: FrobeniusLift, a: Element, a_p: Optional[Element] = None) -> Element:
    """(phi(a) - a^p) / p, known to one level less precision.

    a_p, when given, must be a ** p; callers that already hold the power
    pass it to save recomputing it.  The quotient is div_p's: a zero
    where phi(a) - a^p vanishes is known mod p^(N-1), and at N = 1
    PrecisionExhausted is raised.
    """
    if a_p is None:
        a_p = a ** lift.ring.modulus.p
    return div_p(apply_phi(lift, a), a_p)


def _powers(a: Element, n: int) -> List[Element]:
    """[a^0, ..., a^n], each formed by the same products as a ** i."""
    out = [a.ring.one(), a]
    for i in range(2, n + 1):
        top = 1 << (i.bit_length() - 1)
        if i == top:
            out.append(out[top // 2] * out[top // 2])
        else:
            out.append(out[i - top] * out[top])
    return out


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


def _random_element(rng: random.Random, ring: RingSpec, max_degree: int,
                    max_pd_weight: int, max_terms: int) -> Element:
    out = ring.zero()
    n_terms = rng.randint(1, max_terms)
    for _ in range(n_terms):
        ordinary = {}
        budget = max_degree
        for name in ring.ordinary_gens:
            e = rng.randint(0, budget)
            if e:
                ordinary[name] = e
                budget -= e
        pd = {}
        pd_budget = max_pd_weight
        for name in ring.pd_gens:
            e = rng.randint(0, pd_budget)
            if e:
                pd[name] = e
                pd_budget -= e
        coeff = rng.randrange(ring.modulus.cardinality)
        out = out + ring.monomial(ordinary, pd, coeff)
    return out


def check_delta_axioms(
    lift: FrobeniusLift,
    samples: int = 200,
    seed: int = 0,
    max_degree: int = 2,
    max_pd_weight: int = 1,
    max_terms: int = 3,
) -> AxiomReport:
    """Exercise both delta-ring axioms on seeded random pairs.

    delta(a+b) = delta(a) + delta(b) - sum_{0<i<p} (C(p,i)/p) a^i b^(p-i)
    delta(ab)  = a^p delta(b) + b^p delta(a) + p delta(a) delta(b)

    Pairs whose intermediate products overflow the ring caps are skipped
    (the identities are only meaningful untruncated) and counted.
    """
    ring = lift.ring
    p = ring.modulus.p
    rng = random.Random(seed)
    report = AxiomReport(samples=samples, checked=0, skipped=0)
    correction_coeffs = [math.comb(p, i) // p for i in range(1, p)]

    for _ in range(samples):
        a = _random_element(rng, ring, max_degree, max_pd_weight, max_terms)
        b = _random_element(rng, ring, max_degree, max_pd_weight, max_terms)
        pa, pb = _powers(a, p), _powers(b, p)
        da, db = delta(lift, a, pa[p]), delta(lift, b, pb[p])
        d_sum = delta(lift, a + b)
        correction = ring.zero()
        for i in range(1, p):
            correction = correction + (pa[i] * pb[p - i]).scale(
                correction_coeffs[i - 1]
            )
        # the identities hold at the precision the delta outputs carry
        claim = min(d_sum.min_precision(), da.min_precision(), db.min_precision())
        lhs_sum = (d_sum - da - db + correction).reduce_precision(claim)
        d_prod = delta(lift, a * b)
        claim_prod = min(claim, d_prod.min_precision())
        lhs_prod = (
            d_prod - pa[p] * db - pb[p] * da - (da * db).scale(p)
        ).reduce_precision(claim_prod)
        if lhs_sum.truncated or lhs_prod.truncated:
            report.skipped += 1
            continue
        report.checked += 1
        if not lhs_sum.is_zero():
            report.failures.append(AxiomWitness(
                "sum", a.render(), b.render(), lhs_sum.render()
            ))
        if not lhs_prod.is_zero():
            report.failures.append(AxiomWitness(
                "product", a.render(), b.render(), lhs_prod.render()
            ))
        if len(report.failures) >= 5:
            break
    return report


def free_phi_ring(
    modulus: Modulus,
    names: Union[int, Sequence[str]] = 1,
    level_cap: int = 2,
    poly_degree_cap: int = 16,
    pd_degree_cap: int = 0,
) -> FrobeniusLift:
    """Polynomial ring on formal phi-towers x_(i,0), ..., x_(i,J).

    phi(x_(i,j)) = x_(i,j)^p + p x_(i,j+1) below the cap, so
    delta(x_(i,j)) = x_(i,j+1) on the nose; the top level gets the
    plain lift phi = (.)^p, which caps the tower at delta^J = 0.
    """
    if isinstance(names, int):
        names = tuple(f"u{i + 1}" for i in range(names)) if names > 1 else ("u",)
    gens = tuple(f"{n}_{j}" for n in names for j in range(level_cap + 1))
    ring = RingSpec(gens, (), modulus, poly_degree_cap, pd_degree_cap)
    p = modulus.p
    images = {}
    for n in names:
        for j in range(level_cap + 1):
            g = ring.gen(f"{n}_{j}")
            img = g ** p
            if j < level_cap:
                img = img + ring.gen(f"{n}_{j + 1}").scale(p)
            images[f"{n}_{j}"] = img
    return FrobeniusLift(ring, images)
