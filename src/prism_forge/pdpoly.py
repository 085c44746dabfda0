"""Sparse polynomial rings with divided-power generators over Z/p^N.

A ring spec declares ordinary generators (plain polynomial variables)
and divided-power generators u, whose monomials carry the weight-n
symbol u^[n] subject to u^[m] * u^[n] = C(m+n, n) * u^[m+n].  Elements
are immutable sparse maps from monomials to scalars, each known to at
most the ring's precision N: a scalar known mod p^M with M > N is read
mod p^N, and one of another prime is refused.  Both total
ordinary degree and total divided-power weight are capped; products
falling outside the caps are dropped and the element is marked with a
sticky truncation flag so downstream checks can refuse to trust it.

Products and substitution accumulate integer residues under packed
monomial keys, one loop for both, and build scalars and an element only
for their result.  Every substitution applies a RingMap, built once from
the generator images: it checks them once and keeps, for all its
applications, the powers of the images and the images of monomials.
_Residues.div_p, on such residues, is the one division by p, and its
quotient claims no digit it lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple, Union

from .padic import (
    Modulus,
    NotDivisible,
    PrecisionExhausted,
    Scalar,
    _residue_valuation,
    exact_div_p,
    factorial_valuation,
    unit_part_inverse,
)


class RingMismatch(ValueError):
    """Operands or images belong to different ring specs."""


class InvalidPdImage(ValueError):
    """A divided-power generator was sent somewhere divided powers of the
    image cannot be formed: some term has weight zero and a unit coefficient."""


class UnknownGenerator(KeyError):
    """A generator name not declared by the ring spec."""


class Monomial(NamedTuple):
    """Exponent vectors, ordinary then divided-power.

    pd entry n in slot i stands for the divided power u_i^[n], not the
    plain power u_i^n.  A named tuple, so hashing and equality run at C
    level: monomials are the dictionary keys of every element.
    """

    ordinary: Tuple[int, ...]
    pd: Tuple[int, ...]

    @property
    def ordinary_degree(self) -> int:
        return sum(self.ordinary)

    @property
    def pd_weight(self) -> int:
        return sum(self.pd)

    def is_constant(self) -> bool:
        return self.ordinary_degree == 0 and self.pd_weight == 0

    def sort_key(self) -> tuple:
        # graded lex, divided-power weight dominant
        return (self.pd_weight, self.ordinary_degree, self.pd, self.ordinary)


class _MonomialCodec:
    """Packed integer keys for the monomials of one ring, memoized.

    Each exponent gets a field of `width` bits.  A product term is kept
    only when its ordinary degree and pd weight fit the caps, so every
    exponent of a kept term fits the wider cap, and the key of a product
    is the sum of its factors' keys with no carry from one field into the
    next (Monagan & Pearce, packed exponent vectors, CASC 2007).
    """

    __slots__ = ("width", "n_ord", "n", "_entries", "_monomials", "_key_entries")

    def __init__(self, n_ord: int, n_pd: int, width: int) -> None:
        self.width = width
        self.n_ord = n_ord
        self.n = n_ord + n_pd
        self._entries: Dict[Monomial, tuple] = {}
        self._monomials: Dict[int, Monomial] = {}
        self._key_entries: Dict[int, tuple] = {}

    def entry(self, m: Monomial) -> tuple:
        """(key, ordinary degree, pd weight, pd exponents or None at weight 0)."""
        hit = self._entries.get(m)
        if hit is None:
            key = 0
            for x in m.ordinary + m.pd:
                key = key << self.width | x
            weight = sum(m.pd)
            hit = (key, sum(m.ordinary), weight, m.pd if weight else None)
            self._entries[m] = hit
        return hit

    def monomial(self, key: int) -> Monomial:
        """The monomial of a key whose exponents fit the caps."""
        m = self._monomials.get(key)
        if m is None:
            exps = [0] * self.n
            mask = (1 << self.width) - 1
            k = key
            for i in range(self.n - 1, -1, -1):
                exps[i] = k & mask
                k >>= self.width
            m = Monomial(tuple(exps[: self.n_ord]), tuple(exps[self.n_ord:]))
            self._monomials[key] = m
        return m

    def key_entry(self, key: int) -> tuple:
        """entry() of the monomial of a key whose exponents fit the caps."""
        hit = self._key_entries.get(key)
        if hit is None:
            hit = self._key_entries[key] = self.entry(self.monomial(key))
        return hit


# keys depend only on the generator counts and the width, so rings that
# agree in those share one codec and its memo tables
_codec_for = lru_cache(maxsize=None)(_MonomialCodec)


def fresh_name(name: str, taken: set) -> str:
    """name with underscores appended until it is not in taken; taken
    then holds it."""
    while name in taken:
        name += "_"
    taken.add(name)
    return name


@dataclass(frozen=True)
class RingSpec:
    """Generators, modulus and degree caps for one polynomial ring."""

    ordinary_gens: Tuple[str, ...]
    pd_gens: Tuple[str, ...]
    modulus: Modulus
    poly_degree_cap: int
    pd_degree_cap: int
    _codec: _MonomialCodec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = list(self.ordinary_gens) + list(self.pd_gens)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        for name in names:
            if not name or not name.replace("_", "").isalnum() or name[0].isdigit():
                raise ValueError(f"bad generator name {name!r}")
        if self.poly_degree_cap < 0 or self.pd_degree_cap < 0:
            raise ValueError("degree caps must be nonnegative")
        object.__setattr__(self, "_codec", _codec_for(
            len(self.ordinary_gens),
            len(self.pd_gens),
            max(self.poly_degree_cap, self.pd_degree_cap, 1).bit_length(),
        ))

    # -- generator bookkeeping -------------------------------------------

    def ordinary_index(self, name: str) -> int:
        try:
            return self.ordinary_gens.index(name)
        except ValueError:
            raise UnknownGenerator(name) from None

    def pd_index(self, name: str) -> int:
        try:
            return self.pd_gens.index(name)
        except ValueError:
            raise UnknownGenerator(name) from None

    def all_gens(self) -> Tuple[str, ...]:
        return self.ordinary_gens + self.pd_gens

    def has_gen(self, name: str) -> bool:
        return name in self.ordinary_gens or name in self.pd_gens

    # -- element constructors --------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return self.constant(1)

    def constant(self, value: Union[int, Scalar]) -> "Element":
        s = value if isinstance(value, Scalar) else Scalar(value, self.modulus)
        mono = Monomial((0,) * len(self.ordinary_gens), (0,) * len(self.pd_gens))
        return Element(self, {mono: s})

    def gen(self, name: str) -> "Element":
        """The generator as an element: x for ordinary, u^[1] for pd."""
        if name in self.ordinary_gens:
            return self.monomial({name: 1}, {})
        if name in self.pd_gens:
            return self.monomial({}, {name: 1})
        raise UnknownGenerator(name)

    def pd_power(self, name: str, weight: int) -> "Element":
        return self.monomial({}, {name: weight})

    def monomial(
        self,
        ordinary: Mapping[str, int],
        pd: Mapping[str, int],
        coefficient: Union[int, Scalar] = 1,
    ) -> "Element":
        o = [0] * len(self.ordinary_gens)
        d = [0] * len(self.pd_gens)
        for name, e in ordinary.items():
            o[self.ordinary_index(name)] = e
        for name, e in pd.items():
            d[self.pd_index(name)] = e
        mono = Monomial(tuple(o), tuple(d))
        if mono.ordinary_degree > self.poly_degree_cap:
            raise ValueError("monomial exceeds ordinary degree cap")
        if mono.pd_weight > self.pd_degree_cap:
            raise ValueError("monomial exceeds divided-power weight cap")
        s = coefficient if isinstance(coefficient, Scalar) else Scalar(coefficient, self.modulus)
        return Element(self, {mono: s})

    def at_precision(self, N: int) -> "RingSpec":
        return RingSpec(
            self.ordinary_gens,
            self.pd_gens,
            Modulus(self.modulus.p, N),
            self.poly_degree_cap,
            self.pd_degree_cap,
        )


class Element:
    """Immutable sparse polynomial; do not mutate `terms` after creation.

    Every coefficient is known to at most the ring's precision N: one
    known mod p^M with M > N is read mod p^N at precision N, the ring map
    Z/p^M -> Z/p^N, and a coefficient of another prime is refused with
    RingMismatch.
    """

    __slots__ = ("ring", "terms", "truncated")

    def __init__(
        self,
        ring: RingSpec,
        terms: Dict[Monomial, Scalar],
        truncated: bool = False,
    ) -> None:
        self.ring = ring
        base = ring.modulus
        N = base.N
        kept = {}
        for m, c in terms.items():
            mod = c.modulus
            if mod is not base and (mod.N > N or mod.p != base.p):
                if mod.p != base.p:
                    raise RingMismatch(f"coefficient mod {mod!r} in a ring over {base!r}")
                c = Scalar(c.residue, base)
            # a zero residue below the ring's precision still carries
            # information (the coefficient is only known to vanish mod
            # p^k), so it must survive; dropping it would let a later sum
            # claim more precision than the computation supports
            if c.residue or c.modulus.N < N:
                kept[m] = c
        self.terms = kept
        self.truncated = truncated

    @classmethod
    def _trusted(
        cls, ring: RingSpec, terms: Dict[Monomial, Scalar], truncated: bool
    ) -> "Element":
        """An element from terms of the ring's prime, known to at most its
        precision N and holding no zero at N, so __init__ would change
        nothing."""
        e = object.__new__(cls)
        e.ring = ring
        e.terms = terms
        e.truncated = truncated
        return e

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return all(c.residue == 0 for c in self.terms.values())

    def is_constant(self) -> bool:
        return all(m.is_constant() for m in self.terms)

    def coefficient(self, monomial: Monomial) -> Scalar:
        return self.terms.get(monomial, Scalar(0, self.ring.modulus))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key(), reverse=True)

    def min_precision(self) -> int:
        if not self.terms:
            return self.ring.modulus.N
        return min(c.precision for c in self.terms.values())

    def ordinary_degree(self) -> int:
        return max((m.ordinary_degree for m in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "Element") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(
                f"elements of {self.ring.all_gens()} vs {other.ring.all_gens()}"
            )

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            return other
        if isinstance(other, (int, Scalar)):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other) -> "Element":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            old = acc.get(m)
            if old is None:
                acc[m] = c
            elif old.modulus is c.modulus:
                acc[m] = Scalar(old.residue + c.residue, c.modulus)
            else:
                acc[m] = old + c
        return Element(self.ring, acc, self.truncated or other.truncated)

    __radd__ = __add__

    def __neg__(self) -> "Element":
        return Element._trusted(
            self.ring, {m: -c for m, c in self.terms.items()}, self.truncated
        )

    def __sub__(self, other) -> "Element":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            old = acc.get(m)
            if old is None:
                acc[m] = -c
            elif old.modulus is c.modulus:
                acc[m] = Scalar(old.residue - c.residue, c.modulus)
            else:
                acc[m] = old - c
        return Element(self.ring, acc, self.truncated or other.truncated)

    def __rsub__(self, other) -> "Element":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Element":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Element":
        return _power(self, n, self.ring.one)

    def scale(self, c: Union[int, Scalar]) -> "Element":
        return mul(self, self.ring.constant(c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None  # mutable dict inside; elements are not hashable

    def reduce_precision(self, N: int) -> "Element":
        out = {}
        for m, c in self.terms.items():
            out[m] = c.reduce_to(min(N, c.precision))
        return Element(self.ring, out, self.truncated)

    def map_to(self, other_ring: RingSpec) -> "Element":
        """Move to a spec with the same generators (possibly new modulus/caps);
        a coefficient past the new precision is read mod p^N there."""
        if other_ring.ordinary_gens != self.ring.ordinary_gens or (
            other_ring.pd_gens != self.ring.pd_gens
        ):
            raise RingMismatch("generator lists differ")
        out = {}
        trunc = self.truncated
        for m, c in self.terms.items():
            if (
                m.ordinary_degree > other_ring.poly_degree_cap
                or m.pd_weight > other_ring.pd_degree_cap
            ):
                trunc = True
                continue
            out[m] = c
        return Element(other_ring, out, trunc)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        pieces = []
        for mono, coeff in self.sorted_terms():
            if coeff.residue == 0:
                continue
            body = _render_monomial(self.ring, mono)
            c = coeff.lift_balanced()
            if body == "1":
                text = str(c)
            elif c == 1:
                text = body
            elif c == -1:
                text = "-" + body
            else:
                text = f"{c}*{body}"
            pieces.append(text)
        if not pieces:
            return "0"
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self) -> str:
        flag = ", truncated" if self.truncated else ""
        return f"<{self.render()} over {self.ring.modulus!r}{flag}>"


def _power(x, n: int, one: Callable[[], object]):
    """x^n for Element and _Residues alike: one() at n = 0, else binary
    powering, each step's result * base before its base * base."""
    if n < 0:
        raise ValueError("negative polynomial power")
    if n == 0:
        return one()
    result = None
    base = x
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _render_monomial(ring: RingSpec, mono: Monomial) -> str:
    parts = []
    for name, e in zip(ring.ordinary_gens, mono.ordinary):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    for name, e in zip(ring.pd_gens, mono.pd):
        if e >= 1:
            parts.append(f"{name}^[{e}]")
    return "*".join(parts) if parts else "1"


def _pd_binomial(da: Tuple[int, ...], db: Tuple[int, ...]) -> int:
    """prod C(x + y, y) over the slots of u^[x] * u^[y]."""
    c = 1
    for x, y in zip(da, db):
        if x and y:
            c *= math.comb(x + y, y)
    return c


def _pack(e: Element, codec: _MonomialCodec, p: int, tracked: bool) -> list:
    """Codec entries of e's terms + (residue, precision, valuation capped at
    the precision); the valuation is only worked out when tracked."""
    out = []
    for m, c in e.terms.items():
        mod = c.modulus
        v = min(_residue_valuation(c.residue, p), mod.N) if tracked else 0
        out.append(codec.entry(m) + (c.residue, mod.N, v))
    return out


def _multiply_into(
    ta: list, tb: list, cap_o: int, cap_d: int, tracked: bool,
    acc: Dict[int, int], precs: Dict[int, int],
) -> bool:
    """Add every product of a packed entry of ta and one of tb into acc.

    Pairs whose ordinary degree or pd weight leaves the caps are dropped,
    and the return value says whether any was.  When tracked, each pair
    contributes at the precision Scalar.__mul__ gives it,
    min(m + v(b), n + v(a), max(m, n)), and precs keeps the least per
    key; untracked, every entry is at the ring's precision and so is
    every contribution.
    """
    truncated = False
    for ka, oa, wa, da, ra, na, va in ta:
        for kb, ob, wb, db, rb, nb, vb in tb:
            if oa + ob > cap_o or wa + wb > cap_d:
                truncated = True
                continue
            r = ra * rb
            if da and db:
                r *= _pd_binomial(da, db)
            k = ka + kb
            acc[k] = acc.get(k, 0) + r
            if tracked:
                # min(na + vb, nb + va, max(na, nb)), spelt out: a call
                # to min would cost more than the rest of the pair
                prec = na + vb if na + vb < nb + va else nb + va
                if prec > na and prec > nb:
                    prec = na if na > nb else nb
                if prec < precs.get(k, prec + 1):
                    precs[k] = prec
    return truncated


def mul(a: Element, b: Element) -> Element:
    """Product with divided-power coefficients and cap truncation.

    Coefficients accumulate as plain integers under packed monomial keys
    and become scalars only in the output.  Each pair of coefficients
    known mod p^m and p^n contributes at the precision Scalar.__mul__
    gives it, min(m + v(b), n + v(a), max(m, n)); a sum of contributions
    is known to the least of theirs.  When every coefficient is at the
    ring's own modulus, every contribution is at precision N and the loop
    skips that bookkeeping.
    """
    if a.ring is not b.ring and a.ring != b.ring:
        raise RingMismatch("product across ring specs")
    ring = a.ring
    base = ring.modulus
    codec = ring._codec
    tracked = any(
        c.modulus is not base and c.modulus != base
        for e in (a, b)
        for c in e.terms.values()
    )
    acc: Dict[int, int] = {}
    precs: Dict[int, int] = {}
    tb = _pack(b, codec, base.p, tracked)
    truncated = _multiply_into(
        _pack(a, codec, base.p, tracked), tb,
        ring.poly_degree_cap, ring.pd_degree_cap, tracked, acc, precs,
    )
    return _from_packed(ring, acc, precs, truncated or a.truncated or b.truncated)


def _from_packed(
    ring: RingSpec, acc: Dict[int, int], precs: Dict[int, int], truncated: bool
) -> Element:
    """Element from integer sums under packed keys.  A key missing from
    precs is known to the ring's precision N.  Each sum is reduced mod
    p^prec and a zero at precision N is dropped, as Element.__init__
    would drop it."""
    base = ring.modulus
    moduli = {base.N: base}
    terms: Dict[Monomial, Scalar] = {}
    for k, r in acc.items():
        prec = precs.get(k, base.N)
        mod = moduli.get(prec)
        if mod is None:
            mod = moduli[prec] = Modulus(base.p, prec)
        r %= mod.cardinality
        if r or prec < base.N:
            terms[ring._codec.monomial(k)] = Scalar(r, mod)
    return Element._trusted(ring, terms, truncated)


def _repack(
    acc: Dict[int, int], precs: Dict[int, int], codec: _MonomialCodec,
    base: Modulus, valued: bool = True,
) -> Tuple[list, bool]:
    """The packed entries _from_packed would turn into an element, with
    their valuations when valued, and whether any is below precision N."""
    p, N = base.p, base.N
    out = []
    low = False
    for k, r in acc.items():
        prec = precs.get(k, N)
        r %= base.cardinality if prec == N else p ** prec
        if r or prec < N:
            low = low or prec != N
            out.append(codec.key_entry(k) + (
                r, prec, min(_residue_valuation(r, p), prec) if valued else 0
            ))
    return out, low


class _Residues:
    """An element of a ring as integer residues under packed monomial
    keys, with no Element or Scalar around them; the delta-ring check,
    p-curvature and div_p run on these.

    terms holds each residue reduced mod p^prec with no zero known to the
    ring's precision N, in Element's term order; precs holds the precision
    of each key known below N; truncated is Element's sticky flag; degree
    bounds the ordinary degree of every key from above.  +, * and ** are
    Element's, and partial(i) is partial_derivative in the i-th ordinary
    generator, for operands known to N: they read every residue at N, so
    callers keep operands known below N out of them.
    """

    __slots__ = ("ring", "terms", "precs", "truncated", "degree", "entries")

    def __init__(self, ring: RingSpec, terms: Dict[int, int], degree: int,
                 truncated: bool, precs: Optional[Dict[int, int]] = None) -> None:
        self.ring = ring
        self.terms = terms
        self.precs = precs or {}
        self.truncated = truncated
        self.degree = degree
        # the entries _multiply_into reads, formed on first use
        self.entries: Optional[list] = None

    @classmethod
    def of(cls, e: Element) -> "_Residues":
        """The residues of an element, each coefficient known below N
        keeping its precision in precs."""
        codec, N = e.ring._codec, e.ring.modulus.N
        terms: Dict[int, int] = {}
        precs: Dict[int, int] = {}
        degree = 0
        for m, c in e.terms.items():
            key, o, _, _ = codec.entry(m)
            terms[key] = c.residue
            if c.modulus.N < N:
                precs[key] = c.modulus.N
            degree = max(degree, o)
        return cls(e.ring, terms, degree, e.truncated, precs)

    @classmethod
    def reduced(cls, ring: RingSpec, acc: Dict[int, int], degree: int,
                truncated: bool, precs: Optional[Dict[int, int]] = None) -> "_Residues":
        """Integer sums under packed keys, reduced as _from_packed reduces
        them."""
        card = ring.modulus.cardinality
        if not precs:
            return cls(ring, {k: r for k, s in acc.items() if (r := s % card)},
                       degree, truncated)
        p, N = ring.modulus.p, ring.modulus.N
        terms: Dict[int, int] = {}
        for k, s in acc.items():
            n = precs.get(k, N)
            r = s % (card if n == N else p ** n)
            if r or n < N:
                terms[k] = r
        return cls(ring, terms, degree, truncated, precs)

    def element(self) -> Element:
        return _from_packed(self.ring, self.terms, self.precs, self.truncated)

    def min_precision(self) -> int:
        # precs holds every key known below N
        return min(self.precs.values(), default=self.ring.modulus.N)

    def packed(self) -> list:
        """The entries of an untracked product, every residue at N."""
        if self.entries is None:
            key_entry, N = self.ring._codec.key_entry, self.ring.modulus.N
            self.entries = [key_entry(k) + (r, N, 0) for k, r in self.terms.items()]
        return self.entries

    def __add__(self, other: "_Residues") -> "_Residues":
        acc = dict(self.terms)
        for k, r in other.terms.items():
            acc[k] = acc.get(k, 0) + r
        return _Residues.reduced(self.ring, acc, max(self.degree, other.degree),
                                 self.truncated or other.truncated)

    def __mul__(self, other: "_Residues") -> "_Residues":
        acc: Dict[int, int] = {}
        truncated = _product_into(self, other, 1, acc)
        return _Residues.reduced(self.ring, acc, self.degree + other.degree,
                                 truncated or self.truncated or other.truncated)

    def __pow__(self, n: int) -> "_Residues":
        return _power(self, n, lambda: _Residues(self.ring, {0: 1}, 0, False))

    def __eq__(self, other: "_Residues") -> bool:
        return (self.ring == other.ring and self.terms == other.terms
                and self.precs == other.precs)

    __hash__ = None

    def partial(self, index: int) -> "_Residues":
        """The derivative in the ordinary generator of that index: each
        key whose exponent field for the generator is e > 0 loses one
        there and its residue is scaled by e; a key whose field is 0 drops
        out."""
        codec, card = self.ring._codec, self.ring.modulus.cardinality
        shift = codec.width * (codec.n - 1 - index)
        mask = (1 << codec.width) - 1
        one = 1 << shift
        terms: Dict[int, int] = {}
        for k, r in self.terms.items():
            e = k >> shift & mask
            if e and (r := r * e % card):
                terms[k - one] = r
        return _Residues(self.ring, terms, max(self.degree - 1, 0), self.truncated)

    def div_p(self, other: Optional["_Residues"] = None) -> "_Residues":
        """(self - other) / p, or self / p without other, known to one
        digit less: the one division of residues by p.

        The difference is taken key by key at the lesser of the two
        precisions, in the order Element subtraction holds its terms, and
        each term but a zero at N is divided by p: one known mod p alone
        raises PrecisionExhausted, one not divisible by p NotDivisible.
        When nothing is left, the quotient is a zero known mod p^(N-1) at
        the constant key 0, not one with no terms, which would claim all N
        digits; at N = 1 no digit is left and PrecisionExhausted is raised.
        """
        ring = self.ring
        p, N, card = ring.modulus.p, ring.modulus.N, ring.modulus.cardinality
        if other is None:
            other = _Residues(ring, {}, 0, False)
        precs, sub_precs = self.precs, other.precs
        # no precision lookups when both sides are at N everywhere
        low = precs or sub_precs
        diff = dict(self.terms)
        for k, d in other.terms.items():
            diff[k] = diff.get(k, 0) - d
        terms: Dict[int, int] = {}
        out_precs: Dict[int, int] = {}
        for k, r in diff.items():
            n = min(precs.get(k, N), sub_precs.get(k, N)) if low else N
            r %= card if n == N else p ** n
            if not r and n == N:
                continue
            if n < 2:
                raise PrecisionExhausted(f"cannot drop 1 levels below precision {n}")
            if r % p:
                raise NotDivisible(
                    f"coefficient {r} of {_render_monomial(ring, ring._codec.monomial(k))}"
                    " is not divisible by p^1"
                )
            terms[k] = r // p
            out_precs[k] = n - 1
        if not terms:
            if N < 2:
                raise PrecisionExhausted(
                    "dividing by p at precision 1 leaves no digit: "
                    "the difference vanishes mod p"
                )
            terms[0] = 0
            out_precs[0] = N - 1
        return _Residues(ring, terms, max(self.degree, other.degree),
                         self.truncated or other.truncated, out_precs)


def _product_into(x: _Residues, y: _Residues, c: int, acc: Dict[int, int]) -> bool:
    """acc += c * x * y as _multiply_into sums it, untracked, over the
    entries of x and of c * y in x's ring, and whether it dropped a pair
    to the caps.

    In a ring without divided-power generators, where the degree bounds
    of x and y add up to no more than the ordinary cap, no pair leaves
    the caps and none takes a binomial, so the residue dicts are
    multiplied directly, in the same order: x's terms outer, y's inner.
    """
    ring = x.ring
    if not ring.pd_gens and x.degree + y.degree <= ring.poly_degree_cap:
        ty = list(y.terms.items())
        for kx, rx in x.terms.items():
            rx *= c
            for ky, ry in ty:
                k = kx + ky
                acc[k] = acc.get(k, 0) + rx * ry
        return False
    ty = y.packed()
    if c != 1:
        ty = [(k, o, w, d, c * r, n, v) for k, o, w, d, r, n, v in ty]
    return _multiply_into(x.packed(), ty, ring.poly_degree_cap,
                          ring.pd_degree_cap, False, acc, {})


def _single_term_divided_power(
    ring: RingSpec, mono: Monomial, coeff: Scalar, n: int
) -> Element:
    """(coeff * mono)^[n] for one term.

    Terms of weight >= 1 use the composition rule for divided powers of
    a divided power; weight-zero terms must have coefficient divisible
    by p and use (p*w)^[n] = (p^n / n!) * w^n, evaluated as the exact
    division of coeff^n by the p-part of n!.
    """
    if n == 0:
        return ring.one()
    if n == 1:
        return Element(ring, {mono: coeff})
    if mono.pd_weight >= 1:
        slot = next(i for i, e in enumerate(mono.pd) if e)
        k = mono.pd[slot]
        rest = Monomial(mono.ordinary, tuple(
            0 if i == slot else e for i, e in enumerate(mono.pd)
        ))
        comp = 1
        for a in range(1, n):
            comp *= math.comb(a * k + k - 1, k - 1)
        if k * n > ring.pd_degree_cap:
            return Element(ring, {}, truncated=True)
        base = Element(ring, {rest: coeff}) ** n
        power = Element(ring, {Monomial(
            (0,) * len(ring.ordinary_gens),
            tuple(k * n if i == slot else 0 for i in range(len(ring.pd_gens))),
        ): Scalar(comp, ring.modulus)})
        return base * power
    # plain monomial: need a p-divisible coefficient
    if coeff.residue % ring.modulus.p != 0:
        raise InvalidPdImage(
            f"term {coeff.residue}*{_render_monomial(ring, mono)} has weight 0 "
            "and a unit coefficient"
        )
    v = factorial_valuation(n, ring.modulus.p)
    scaled = exact_div_p(coeff ** n, v) * unit_part_inverse(n, coeff.modulus)
    o = tuple(e * n for e in mono.ordinary)
    if sum(o) > ring.poly_degree_cap:
        return Element(ring, {}, truncated=True)
    return Element(ring, {Monomial(o, mono.pd): scaled})


def divided_power(e: Element, n: int) -> Element:
    """e^[n] for an element admitting divided powers.

    Every term must have divided-power weight >= 1 or coefficient
    divisible by p; otherwise InvalidPdImage is raised.  The sum rule
    (a + b)^[n] = sum a^[i] b^[n-i] is applied over the terms.
    """
    if n < 0:
        raise ValueError("negative divided power")
    ring = e.ring
    if n == 0:
        return ring.one()
    terms = e.sorted_terms()
    if not terms:
        return ring.zero()
    cache: Dict[Tuple[int, int], Element] = {}

    def rec(idx: int, budget: int) -> Element:
        if budget == 0:
            return ring.one()
        if idx == len(terms) - 1:
            m, c = terms[idx]
            return _single_term_divided_power(ring, m, c, budget)
        key = (idx, budget)
        if key in cache:
            return cache[key]
        m, c = terms[idx]
        acc = ring.zero()
        for i in range(budget + 1):
            head = _single_term_divided_power(ring, m, c, i)
            if not head.terms and not head.truncated and i > 0:
                continue
            acc = acc + head * rec(idx + 1, budget - i)
        cache[key] = acc
        return acc

    out = rec(0, n)
    if e.truncated:
        out = Element(ring, out.terms, truncated=True)
    return out


def validate_pd_image(gen: str, image: Element) -> None:
    """Check that divided powers of the image exist term by term."""
    p = image.ring.modulus.p
    for m, c in image.terms.items():
        if m.pd_weight == 0 and c.residue % p != 0:
            raise InvalidPdImage(
                f"image of {gen} has weight-0 unit term "
                f"{c.residue}*{_render_monomial(image.ring, m)}"
            )


class RingMap:
    """The ring map from source to target that sends each generator to its
    image: x -> images[x] and u^[n] -> images[u]^[n].

    substitute applies it to elements of the source ring.  Construction
    checks what every application needs: an image for each generator and
    for no other name, all images in one target ring (the images' own
    when target is None, source when there are no generators), of the
    source's prime.  Divided-power images must admit divided powers, each
    term of weight >= 1 or with a p-divisible coefficient; that is checked
    at the first application, so a lift may carry an image nothing reads.

    The map keeps what its applications share.  A power is keyed by
    (divided, slot, n), slot being the generator's index among the
    ordinary or among the divided-power generators of the source, so x^n
    and u^[n] in the same slot stay apart; each value is (packed entries
    with valuations, whether some entry is below the target's precision,
    truncation flag of the power).  factors(m) lists the powers of a
    source monomial's factors, and image(m) memoizes the image of a
    monomial with coefficient 1 for apply_residues.
    """

    __slots__ = ("source", "target", "images", "ordinary", "pd",
                 "_unvalidated", "_table", "_factors", "_images")

    def __init__(self, source: RingSpec, images: Mapping[str, Element],
                 target: Optional[RingSpec] = None) -> None:
        for name in images:
            if not source.has_gen(name):
                raise UnknownGenerator(name)
        for name in source.all_gens():
            if name not in images:
                raise UnknownGenerator(f"no image for generator {name}")
        if target is None:
            target = next((img.ring for img in images.values()), source)
        for img in images.values():
            if img.ring is not target and img.ring != target:
                raise RingMismatch("images live in different rings")
        if source.modulus.p != target.modulus.p:
            raise RingMismatch("element and target of different primes")
        self.source = source
        self.target = target
        self.images = images
        self.ordinary = tuple(images[name] for name in source.ordinary_gens)
        self.pd = tuple(images[name] for name in source.pd_gens)
        # the divided-power images the first application validates
        self._unvalidated = tuple(zip(source.pd_gens, self.pd))
        self._table: Dict[Tuple[bool, int, int], tuple] = {}
        self._factors: Dict[Monomial, tuple] = {}
        self._images: Dict[Monomial, Optional[tuple]] = {}

    def _validate(self) -> None:
        for name, image in self._unvalidated:
            validate_pd_image(name, image)
        self._unvalidated = ()

    def get(self, divided: bool, slot: int, n: int) -> tuple:
        key = (divided, slot, n)
        hit = self._table.get(key)
        if hit is None:
            if divided:
                power = divided_power(self.pd[slot], n)
            else:
                power = self.ordinary[slot] ** n
            base = self.target.modulus
            entries = _pack(power, self.target._codec, base.p, True)
            low = any(e[5] != base.N for e in entries)
            hit = self._table[key] = (entries, low, power.truncated)
        return hit

    def factors(self, mono: Monomial) -> tuple:
        """The powers of a source monomial's factors, ordinary generators
        then divided-power ones, and whether some entry of them is below
        the target's precision."""
        hit = self._factors.get(mono)
        if hit is None:
            powers = [self.get(False, i, e) for i, e in enumerate(mono.ordinary) if e]
            powers += [self.get(True, i, e) for i, e in enumerate(mono.pd) if e]
            hit = self._factors[mono] = (powers, any(low for _, low, _ in powers))
        return hit

    def image(self, mono: Monomial) -> Optional[tuple]:
        """The image of a source monomial with coefficient 1 at the target's
        precision N, formed once, as (the last product's (key, unreduced
        sum) pairs in insertion order, zeros mod p^N kept; the largest
        valuation carried between factors; a bound on the ordinary degree).

        It is the chain _substitute_into runs for the term, by the same
        _multiply_into and _repack calls.  A term c * mono known to N
        may add c times each sum when v(c) plus the carried valuation is
        below N: every factor then keeps the chain's support, drops and
        order, and the sums agree mod p^N.  None where the factors are
        not all at N or the chain truncated; such terms take the chain
        itself.
        """
        try:
            return self._images[mono]
        except KeyError:
            hit = self._images[mono] = self._form_image(mono)
            return hit

    def _form_image(self, mono: Monomial) -> Optional[tuple]:
        factors, low = self.factors(mono)
        if low:
            return None
        target = self.target
        base, codec = target.modulus, target._codec
        cur = [(0, 0, 0, None, 1, base.N, 0)]
        acc: Dict[int, int] = {0: 1}
        carried = 0
        for j, (entries, _, power_truncated) in enumerate(factors):
            if j:
                cur, _ = _repack(acc, {}, codec, base)
                carried = max([carried] + [e[6] for e in cur])
            acc = {}
            if _multiply_into(cur, entries, target.poly_degree_cap,
                              target.pd_degree_cap, False, acc, {}) or power_truncated:
                return None
        degree = max([codec.key_entry(k)[1] for k in acc], default=0)
        return list(acc.items()), carried, degree

    def apply_residues(self, x: _Residues) -> _Residues:
        """The image of x, residues of the source ring known to the
        target's precision N everywhere, as substitute gives it: c times
        the memo image of each monomial where the memo allows, the chain
        of _substitute_into otherwise, reduced with its zeros at N dropped
        and its precisions kept."""
        self._validate()
        target = self.target
        p, N = target.modulus.p, target.modulus.N
        monomial = self.source._codec.monomial
        acc: Dict[int, int] = {}
        precs: Dict[int, int] = {}
        truncated = x.truncated
        degree = 0
        for k, r in x.terms.items():
            mono = monomial(k)
            image = self.image(mono)
            if image is not None and (
                    not image[1] or _residue_valuation(r, p) + image[1] < N):
                for key, s in image[0]:
                    acc[key] = acc.get(key, 0) + r * s
                if image[2] > degree:
                    degree = image[2]
            else:
                if _substitute_into([(mono, r, N)], self, acc, precs):
                    truncated = True
                degree = target.poly_degree_cap
        return _Residues.reduced(target, acc, degree, truncated, precs)


def substitute(a: Element, f: RingMap) -> Element:
    """f(a), for a in the source ring of the ring map f.

    The terms are summed as packed residues by _substitute_into over the
    image powers f keeps; a coefficient of a is read at no more than the
    target's precision N, mod p^N.
    """
    if a.ring is not f.source and a.ring != f.source:
        raise RingMismatch("element is not in the source ring of the map")
    f._validate()
    base = f.target.modulus
    q, N = base.cardinality, base.N
    acc: Dict[int, int] = {}
    precs: Dict[int, int] = {}
    truncated = _substitute_into(
        [(m, c.residue % q, min(c.modulus.N, N)) for m, c in a.terms.items()],
        f, acc, precs,
    )
    return _from_packed(f.target, acc, precs, truncated or a.truncated)


def _substitute_into(
    terms: list, f: RingMap, acc: Dict[int, int], precs: Dict[int, int]
) -> bool:
    """Add the images of terms (monomial, residue, precision at most the
    target's) into acc and precs under the target's packed keys, as
    substitute's sum; the return value says whether some product was
    dropped to the caps.

    Each term c * x^e * ... * u^[f] * ... is carried as packed residues
    from factor to factor, left to right, with the rule of mul.  Between
    factors its sums are reduced and its zeros at full precision dropped,
    exactly as the element mul returns would hold them, so that a term
    that vanishes drops no later product to the caps; the last factor
    adds into one accumulator for all terms.  A term that is a zero known
    to N adds nothing, so its image powers, and their truncation, are
    never formed.
    """
    target = f.target
    base = target.modulus
    p, N, q = base.p, base.N, base.cardinality
    codec = target._codec
    cap_o, cap_d = target.poly_degree_cap, target.pd_degree_cap
    truncated = False
    for mono, r, n in terms:
        if n == N and r % q == 0:
            continue
        factors, factors_low = f.factors(mono)
        # valuations matter only to a product with a coefficient below N
        valued = n != N or factors_low
        # the coefficient as a constant; a zero known below precision N
        # stays a term, as in Element
        v = min(_residue_valuation(r, p), n) if valued else 0
        cur = [(0, 0, 0, None, r, n, v)] if r or n < N else []
        low = n != N
        if not factors:
            for k, _, _, _, rk, nk, _ in cur:
                acc[k] = acc.get(k, 0) + rk
                if nk != N:
                    precs[k] = min(nk, precs.get(k, nk))
        last = len(factors) - 1
        for j, (entries, power_low, power_truncated) in enumerate(factors):
            step_acc, step_precs = (acc, precs) if j == last else ({}, {})
            if _multiply_into(cur, entries, cap_o, cap_d, low or power_low,
                              step_acc, step_precs) or power_truncated:
                truncated = True
            if j < last:
                cur, low = _repack(step_acc, step_precs, codec, base, valued)
    return truncated


def partial_derivative(a: Element, gen: str) -> Element:
    """d/d(gen); on divided powers the weight-lowering map u^[n] -> u^[n-1]."""
    ring = a.ring
    acc: Dict[Monomial, Scalar] = {}
    if gen in ring.ordinary_gens:
        i = ring.ordinary_index(gen)
        for m, c in a.terms.items():
            e = m.ordinary[i]
            if e == 0:
                continue
            o = tuple(x - 1 if j == i else x for j, x in enumerate(m.ordinary))
            nm = Monomial(o, m.pd)
            nc = c * e
            acc[nm] = acc[nm] + nc if nm in acc else nc
    elif gen in ring.pd_gens:
        i = ring.pd_index(gen)
        for m, c in a.terms.items():
            e = m.pd[i]
            if e == 0:
                continue
            d = tuple(x - 1 if j == i else x for j, x in enumerate(m.pd))
            nm = Monomial(m.ordinary, d)
            acc[nm] = acc[nm] + c if nm in acc else c
    else:
        raise UnknownGenerator(gen)
    return Element(ring, acc, a.truncated)


def div_p(a: Element, b: Optional[Element] = None) -> Element:
    """(a - b) / p, or a / p without b, known to one digit less.

    The one division of an element by p: delta and every Frobenius
    quotient of an envelope go through it.  It is _Residues.div_p on the
    residues of a and b, which builds no element in between.
    """
    if b is not None:
        a._check_ring(b)
        b = _Residues.of(b)
    return _Residues.of(a).div_p(b).element()


def divisible_by_p(a: Element) -> bool:
    """True when every coefficient is divisible by p.  Every coefficient
    is known to at least one digit, so its residue mod p decides."""
    p = a.ring.modulus.p
    return all(c.residue % p == 0 for c in a.terms.values())


def equal_reduced(a: Element, b: Element) -> bool:
    """Equality at the largest precision both sides actually carry."""
    shared = min(a.min_precision(), b.min_precision())
    return (a - b).reduce_precision(shared).is_zero()


def apply_derivation(a: Element, images: Mapping[str, Element]) -> Element:
    """Extend gen -> images[gen] to a derivation and apply to a.

    On divided powers the extension follows u^[n] -> u^[n-1] * images[u],
    which is the unique divided-power compatible choice.
    """
    ring = a.ring
    out = None
    for name in ring.all_gens():
        img = images.get(name)
        if img is None or img.is_zero():
            continue
        piece = partial_derivative(a, name) * img
        out = piece if out is None else out + piece
    if out is None:
        target = next((img.ring for img in images.values()), ring)
        return target.zero()
    return out


def window_monomials(
    ring: RingSpec,
    weight_cap: int,
    weights: Optional[Mapping[str, int]] = None,
) -> list:
    """All monomials of weighted total degree <= weight_cap, within caps.

    Weights default to 1 per generator.  Returned in ascending canonical
    order, so enumeration is deterministic.
    """
    weights = weights or {}
    names = ring.all_gens()
    wts = [weights.get(name, 1) for name in names]
    n_ord = len(ring.ordinary_gens)
    found = []

    def rec(idx: int, budget: int, exps: list) -> None:
        if idx == len(names):
            o, d = tuple(exps[:n_ord]), tuple(exps[n_ord:])
            if sum(o) <= ring.poly_degree_cap and sum(d) <= ring.pd_degree_cap:
                found.append(Monomial(o, d))
            return
        w = wts[idx]
        top = budget // w if w > 0 else 0
        for e in range(top + 1):
            exps.append(e)
            rec(idx + 1, budget - e * w, exps)
            exps.pop()

    rec(0, weight_cap, [])
    found.sort(key=lambda m: m.sort_key())
    return found
