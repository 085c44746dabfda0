"""Independent reference computations used to freeze expected values.

Everything here is deliberately naive: direct sums, rational-number
polynomial models, cofactor determinants.  The point is to check the
library's cleverer routes against slow arithmetic that is hard to get
wrong, not to be fast.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Tuple


def legendre_valuation(n: int, p: int) -> int:
    """ord_p(n!) as the direct sum of floor(n / p^i)."""
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Rational-coefficient model of divided-power polynomials.
#
# A monomial key is (ordinary exponents, plain pd exponents); the value is a
# Fraction.  The divided power u^[n] corresponds to u^n / n!, so converting
# a library element in means dividing by factorials, and reading a divided
# coefficient back out means multiplying by them.
# ---------------------------------------------------------------------------

FracPoly = Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Fraction]


def frac_from_element(element) -> FracPoly:
    out: FracPoly = {}
    for mono, coeff in element.terms.items():
        denom = 1
        for e in mono.pd:
            denom *= factorial(e)
        key = (mono.ordinary, mono.pd)
        out[key] = Fraction(coeff.lift(), denom)
    return out


def frac_mul(a: FracPoly, b: FracPoly) -> FracPoly:
    out: FracPoly = {}
    for (oa, da), ca in a.items():
        for (ob, db), cb in b.items():
            key = (
                tuple(x + y for x, y in zip(oa, ob)),
                tuple(x + y for x, y in zip(da, db)),
            )
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def frac_pow(a: FracPoly, n: int, one) -> FracPoly:
    out: FracPoly = {one: Fraction(1)}
    for _ in range(n):
        out = frac_mul(out, a)
    return out


def frac_substitute(poly: FracPoly, images: List[FracPoly], one) -> FracPoly:
    """Evaluate under variable -> image, one image per exponent slot
    (ordinary slots, then pd slots), all in the plain basis.  A divided
    power u^[n] is u^n / n! there, so it goes to image^n / n! with no
    special rule."""
    out: FracPoly = {}
    for (o, d), c in poly.items():
        term = {one: c}
        for img, e in zip(images, o + d):
            term = frac_mul(term, frac_pow(img, e, one))
        for key, v in term.items():
            out[key] = out.get(key, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def frac_divided_coefficient(poly: FracPoly, key) -> Fraction:
    """Coefficient in the divided-power basis: multiply the factorials back."""
    ordinary, pd = key
    c = poly.get((tuple(ordinary), tuple(pd)), Fraction(0))
    for e in pd:
        c *= factorial(e)
    return c


def frac_to_residue(c: Fraction, p: int, N: int) -> int:
    """Reduce a fraction with p-unit denominator into Z/p^N."""
    if c.denominator % p == 0:
        raise ValueError(f"denominator {c.denominator} not invertible mod {p}")
    mod = p ** N
    return c.numerator * pow(c.denominator, -1, mod) % mod


def element_matches_fracpoly(element, poly: FracPoly) -> bool:
    p = element.ring.modulus.p
    keys = set(poly)
    for mono, coeff in element.terms.items():
        keys.add((mono.ordinary, mono.pd))
    for key in keys:
        expected = frac_divided_coefficient(poly, key)
        got = 0
        prec = element.ring.modulus.N
        for mono, coeff in element.terms.items():
            if (mono.ordinary, mono.pd) == key:
                got = coeff.lift()
                prec = coeff.precision
        if frac_to_residue(expected, p, prec) != got % p ** prec:
            return False
    return True


# ---------------------------------------------------------------------------
# Integer determinants and the minors-gcd route to elementary divisors.
# ---------------------------------------------------------------------------


def det_int(matrix: List[List[int]]) -> int:
    """Bareiss fraction-free determinant over the integers."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def gcd_of_minors(matrix: List[List[int]], k: int) -> int:
    from itertools import combinations
    from math import gcd

    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    g = 0
    for rs in combinations(range(rows), k):
        for cs in combinations(range(cols), k):
            sub = [[matrix[i][j] for j in cs] for i in rs]
            g = gcd(g, det_int(sub))
            if g == 1:
                return 1
    return g


def minors_gcd_divisors(matrix: List[List[int]]) -> List[int]:
    """Nonzero elementary divisors d_i = gcd_i / gcd_(i-1)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    divisors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = gcd_of_minors(matrix, k)
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def fermat_quotient_delta(c: int, p: int, N: int) -> int:
    """delta on the constant c: (c - c^p) / p reduced mod p^(N-1)."""
    return (c - c ** p) // p % p ** (N - 1)


def stage_basis_count(p: int, stages: int, weight: int) -> int:
    """Number of monomials t_1^(a_1) ... t_J^(a_J) of weighted degree
    `weight` with weights p^(j-1), a_j < p below the top stage and a_J
    unbounded.  Base-p digits make this 1 for weight < p^J."""
    count = 0

    def rec(j: int, remaining: int) -> None:
        nonlocal count
        if j == stages:
            if remaining % p ** (stages - 1) == 0:
                count += 1
            return
        w = p ** (j - 1)
        for a in range(p):
            if a * w > remaining:
                break
            rec(j + 1, remaining - a * w)

    if stages == 0:
        return 1 if weight == 0 else 0
    rec(1, weight)
    return count


def split_cokernel_divisors(matrix: List[List[int]], mod: int) -> List[int]:
    """Elementary divisors of coker(matrix) over Z/mod for row-split input.

    Requires every column to touch at most one row; the cokernel is then
    a direct sum, one cyclic group per row.  Row entries with gcd g
    (taken together with mod, so g | mod) generate the subgroup of index
    g in Z/mod, leaving a factor Z/g.  Returns nontrivial orders
    ascending.
    """
    from math import gcd

    for j in range(len(matrix[0]) if matrix else 0):
        touched = [i for i in range(len(matrix)) if matrix[i][j] % mod]
        if len(touched) > 1:
            raise ValueError("matrix is not row-split")
    orders = []
    for row in matrix:
        g = mod
        for entry in row:
            g = gcd(g, entry)
        if g > 1:
            orders.append(g)
    return sorted(orders)


# ---------------------------------------------------------------------------
# Scalar-by-scalar element arithmetic.
#
# The product and the sum as first written: one Scalar operation per pair
# of terms, so every partial result carries the precision Scalar gives it.
# The library accumulates integer residues instead and must agree with
# these coefficient by coefficient, residue and precision.
# ---------------------------------------------------------------------------


def scalar_mul(a, b):
    from prism_forge.pdpoly import Element, Monomial

    ring = a.ring
    acc = {}
    truncated = a.truncated or b.truncated
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            o = tuple(x + y for x, y in zip(ma.ordinary, mb.ordinary))
            d = tuple(x + y for x, y in zip(ma.pd, mb.pd))
            if sum(o) > ring.poly_degree_cap or sum(d) > ring.pd_degree_cap:
                truncated = True
                continue
            c = ca * cb
            for x, y in zip(ma.pd, mb.pd):
                if x and y:
                    c = c * comb(x + y, y)
            m = Monomial(o, d)
            acc[m] = acc[m] + c if m in acc else c
    return Element(ring, acc, truncated)


def scalar_add(a, b):
    from prism_forge.pdpoly import Element

    acc = dict(a.terms)
    for m, c in b.terms.items():
        acc[m] = acc[m] + c if m in acc else c
    return Element(a.ring, acc, a.truncated or b.truncated)


def element_sub(a, b):
    """a - b as first written: a plus the negation of b."""
    from prism_forge.pdpoly import Element

    negated = Element(b.ring, {m: -c for m, c in b.terms.items()}, b.truncated)
    return scalar_add(a, negated)


# ---------------------------------------------------------------------------
# Substitution and delta through elements.
#
# substitute as first written: each term starts as a constant element and
# is multiplied by one image power at a time, and the terms are summed as
# elements, so every partial product is reduced and loses its zeros at
# full precision before the next factor.  Products and sums go through
# scalar_mul and scalar_add.  The library carries packed residues from
# factor to factor instead, with image powers held on the Frobenius lift,
# and must agree coefficient by coefficient.
# ---------------------------------------------------------------------------


def element_substitute(a, images, target=None):
    from prism_forge.pdpoly import (
        Element,
        RingMismatch,
        UnknownGenerator,
        divided_power,
        validate_pd_image,
    )

    ring = a.ring
    for name in images:
        if not ring.has_gen(name):
            raise UnknownGenerator(name)
    for name in ring.all_gens():
        if name not in images:
            raise UnknownGenerator(f"no image for generator {name}")
    for img in images.values():
        if target is None:
            target = img.ring
        elif img.ring != target:
            raise RingMismatch("images live in different rings")
    if target is None:
        if not a.is_constant():
            raise RingMismatch("no target ring deducible")
        target = ring
    for name in ring.pd_gens:
        validate_pd_image(name, images[name])

    pow_cache = {}

    def power_of(name, n, divided):
        key = (name, n)
        if key not in pow_cache:
            img = images[name]
            pow_cache[key] = divided_power(img, n) if divided else img ** n
        return pow_cache[key]

    result = target.zero()
    for mono, coeff in a.terms.items():
        acc = target.constant(coeff)
        if not acc.terms:
            # a zero known to the target's precision adds nothing
            continue
        for name, e in zip(ring.ordinary_gens, mono.ordinary):
            if e:
                acc = scalar_mul(acc, power_of(name, e, divided=False))
        for name, e in zip(ring.pd_gens, mono.pd):
            if e:
                acc = scalar_mul(acc, power_of(name, e, divided=True))
        result = scalar_add(result, acc)
    if a.truncated:
        result = Element(target, result.terms, truncated=True)
    return result


def element_apply_phi(lift, a):
    if a.ring != lift.ring:
        raise ValueError("element is not in the lift's ring")
    return element_substitute(a, lift.images, target=lift.ring)


def exact_div_p_elem(a, k: int):
    """Coefficientwise exact division by p^k, shrinking precision by k.

    The element division as first written, one Scalar division per term:
    a with no terms gives a quotient with no terms, which claims all N
    digits.  The library's div_p keeps a zero known mod p^(N-1) there
    instead, and refuses at N = 1."""
    from prism_forge.padic import NotDivisible, exact_div_p
    from prism_forge.pdpoly import Element, _render_monomial

    out = {}
    for m, c in a.terms.items():
        try:
            out[m] = exact_div_p(c, k)
        except NotDivisible:
            raise NotDivisible(
                f"coefficient {c.residue} of {_render_monomial(a.ring, m)} "
                f"is not divisible by p^{k}"
            ) from None
    return Element(a.ring, out, a.truncated)


def element_delta(lift, a, a_p=None):
    """(phi(a) - a^p) / p by element subtraction and exact division.

    As first written, so a difference with no terms gives a quotient with
    no terms, which claims all N digits; the library keeps a zero known
    to N - 1 digits there instead and refuses at N = 1."""
    if a_p is None:
        a_p = a ** lift.ring.modulus.p
    return exact_div_p_elem(element_sub(element_apply_phi(lift, a), a_p), 1)


def element_div_p(a, b=None):
    """(a - b) / p, or a / p without b, known to one digit less.

    The library's div_p as it was before it became the residue division
    _Residues.div_p, with its division loop inlined: the difference is
    taken coefficient by coefficient on Monomial keys, at the lesser of
    the two precisions, with zeros at full precision dropped, in the order
    a - b would hold its terms, and divided by p.  When nothing is left,
    the quotient is a zero known mod p^(N-1) at the constant monomial; at
    N = 1 no digit is left and PrecisionExhausted is raised."""
    from prism_forge.padic import Modulus, NotDivisible, PrecisionExhausted, Scalar
    from prism_forge.pdpoly import Element, Monomial, _render_monomial

    ring = a.ring
    sub = {}
    truncated = a.truncated
    if b is not None:
        a._check_ring(b)
        sub = b.terms
        truncated = truncated or b.truncated
    diff = []
    for m, c in a.terms.items():
        d = sub.get(m)
        if d is None:
            diff.append((m, c.residue, c.modulus.N))
        else:
            mod = c.modulus if c.modulus is d.modulus else c._join(d)
            diff.append((m, (c.residue - d.residue) % mod.cardinality, mod.N))
    for m, d in sub.items():
        if m not in a.terms:
            diff.append((m, -d.residue % d.modulus.cardinality, d.modulus.N))
    one = Monomial((0,) * len(ring.ordinary_gens), (0,) * len(ring.pd_gens))
    p, N = ring.modulus.p, ring.modulus.N
    quotient = []
    for m, r, n in diff:
        if not r and n == N:
            continue
        if n < 2:
            raise PrecisionExhausted(f"cannot drop 1 levels below precision {n}")
        if r % p:
            raise NotDivisible(
                f"coefficient {r} of {_render_monomial(ring, m)} "
                "is not divisible by p^1"
            )
        quotient.append((m, r // p, n - 1))
    if not quotient:
        if N < 2:
            raise PrecisionExhausted(
                "dividing by p at precision 1 leaves no digit: "
                "the difference vanishes mod p"
            )
        quotient.append((one, 0, N - 1))
    below = {}
    out = {}
    for m, q, n in quotient:
        lower = below.get(n)
        if lower is None:
            lower = below[n] = Modulus(ring.modulus.p, n)
        out[m] = Scalar(q, lower)
    return Element(ring, out, truncated)


# ---------------------------------------------------------------------------
# The delta-ring axiom check on elements.
#
# check_delta_axioms as the library first computed it, one Element per
# step, with the sampler and power list it used.  The library runs the
# same steps on packed residues and must give the same report.
# ---------------------------------------------------------------------------


def _random_element(rng, ring, max_degree: int, max_pd_weight: int,
                    max_terms: int):
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


def _powers(a, n: int):
    """[a^0, ..., a^n], each formed by the same products as a ** i."""
    out = [a.ring.one(), a]
    for i in range(2, n + 1):
        top = 1 << (i.bit_length() - 1)
        if i == top:
            out.append(out[top // 2] * out[top // 2])
        else:
            out.append(out[i - top] * out[top])
    return out


def check_delta_axioms(
    lift,
    samples: int = 200,
    seed: int = 0,
    max_degree: int = 2,
    max_pd_weight: int = 1,
    max_terms: int = 3,
):
    """Exercise both delta-ring axioms on seeded random pairs.

    delta(a+b) = delta(a) + delta(b) - sum_{0<i<p} (C(p,i)/p) a^i b^(p-i)
    delta(ab)  = a^p delta(b) + b^p delta(a) + p delta(a) delta(b)

    Pairs whose intermediate products overflow the ring caps are skipped
    (the identities are only meaningful untruncated) and counted.
    """
    from prism_forge.deltaring import (
        AxiomReport, AxiomWitness, apply_phi, delta,
    )
    from prism_forge.pdpoly import div_p

    ring = lift.ring
    p = ring.modulus.p
    rng = random.Random(seed)
    report = AxiomReport(samples=samples, checked=0, skipped=0)
    correction_coeffs = [comb(p, i) // p for i in range(1, p)]

    for _ in range(samples):
        a = _random_element(rng, ring, max_degree, max_pd_weight, max_terms)
        b = _random_element(rng, ring, max_degree, max_pd_weight, max_terms)
        pa, pb = _powers(a, p), _powers(b, p)
        # delta(a) with the power already formed
        da = div_p(apply_phi(lift, a), pa[p])
        db = div_p(apply_phi(lift, b), pb[p])
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


# ---------------------------------------------------------------------------
# Cohomology through the integer Smith normal form.
#
# H^q as the library first computed it: the integer Smith form of d^q
# with its four transforms, the incoming image rewritten through V^-1 and
# divided down to the kernel lattice, and a second Smith form for the
# quotient.  Entries grow without bound, so it is slow, but every step is
# a plain integer identity.  The library eliminates over Z/p^N block by
# block instead and must give the same exponents.
# ---------------------------------------------------------------------------


def mat_mul(a, b, inner=None):
    """Dense integer matrix product; inner is the shared dimension."""
    rows = len(a)
    if inner is None:
        inner = len(a[0]) if rows else len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    oi[j] += v * bk[j]
    return out


def mat_vec(a, x):
    return [sum(v * w for v, w in zip(row, x)) for row in a]


def sparse(matrix, modulus):
    """Sparse rows of an integer matrix, entries reduced mod modulus."""
    return [{j: x % modulus for j, x in enumerate(row) if x % modulus} for row in matrix]


def fp_rank(a, p):
    """Rank over F_p by dense row reduction."""
    if not a or not a[0]:
        return 0
    rows = [[v % p for v in row] for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i][c] % p:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [(v - factor * w) % p for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return len(pivots)


def _hstack(a, b):
    if not a:
        return [row[:] for row in b]
    if not b:
        return [row[:] for row in a]
    return [ra + rb for ra, rb in zip(a, b)]


def snf_cohomology(cx, q):
    """H^q as an explicit finite abelian p-group.

    The kernel of the outgoing differential is the lattice spanned by
    V * diag(p^e); the incoming image (augmented by p^N times the
    identity, which is zero in the ring) is rewritten in that basis by
    exact row division, and one more Smith pass reads off the quotient.
    The quotient is killed by p^N, so p^N Z^n lies in the column lattice
    of the rewritten image: its entries are reduced mod p^N and p^N times
    the identity is appended before that pass (the modulo-determinant
    idea of Domich, Kannan & Trotter, Math. Oper. Res. 12, 1987), which
    keeps the pass on residues however large V^-1 grew.
    """
    from prism_forge.homology import (
        CohomologyGroup,
        Matrix,
        dense,
        smith_normal_form,
        zero_matrix,
    )

    modulus = cx.modulus
    p, N = modulus.p, modulus.N
    pN = modulus.cardinality
    n = cx.rank(q)
    if n == 0:
        return CohomologyGroup(modulus, ())
    d_out = cx.differential(q)
    d_out = zero_matrix(0, n) if d_out is None else dense(d_out, n)
    dec = smith_normal_form(d_out, rows=len(d_out), cols=n)
    exps = []
    for i in range(n):
        if i < min(len(d_out), n) and dec.S[i][i] != 0:
            v = min(N, int_valuation(dec.S[i][i], p))
        else:
            v = N
        exps.append(N - v)

    d_in = cx.differential(q - 1)
    m_aug = _hstack(
        dense(d_in, cx.rank(q - 1)) if d_in is not None else zero_matrix(n, 0),
        [[pN if i == j else 0 for j in range(n)] for i in range(n)],
    )
    w = mat_mul(dec.Vinv, m_aug, inner=n)
    g: Matrix = []
    for i in range(n):
        scale = p ** exps[i]
        row = []
        for v in w[i]:
            if v % scale:
                raise ArithmeticError(
                    "image does not lie in the kernel lattice; "
                    "the complex is not a complex"
                )
            row.append(v // scale % pN)
        g.append(row + [pN if i == j else 0 for j in range(n)])

    quot = smith_normal_form(g, rows=n, cols=len(g[0]) if g else 0)
    out = []
    for f in quot.divisors:
        if f == 0:
            raise ArithmeticError("cokernel is not killed by p^N")
        k = int_valuation(f, p)
        if f != p ** k:
            raise ArithmeticError(f"invariant factor {f} is not a p-power")
        if k == 0:
            continue
        if k > N:
            raise ArithmeticError(f"invariant factor exponent {k} exceeds {N}")
        out.append(k)
    return CohomologyGroup(modulus, tuple(sorted(out)))


# ---------------------------------------------------------------------------
# Helpers no library code calls: the order-m divided differential operator,
# the weighted degree of a monomial, p^n/n! at full precision, the
# divided-power binomial coefficient, the kernel mod p^N read off the
# integer Smith form, and the free phi-tower ring.  Their tests and the
# random_complexes strategy read them here.
# ---------------------------------------------------------------------------


def hasse_derivative(a: Element, gen: str, order: int) -> Element:
    """Order-m divided differential operator dual to monomials.

    On ordinary generators x^n -> C(n, m) x^(n-m); on divided-power
    generators u^[n] -> u^[n-m].  These compose with a multinomial
    factor in the ordinary case and on the nose in the pd case.
    """
    from prism_forge.pdpoly import Element, Monomial, UnknownGenerator

    if order < 0:
        raise ValueError("negative operator order")
    if order == 0:
        return a
    ring = a.ring
    acc: Dict[Monomial, Scalar] = {}
    if gen in ring.ordinary_gens:
        i = ring.ordinary_index(gen)
        for m, c in a.terms.items():
            e = m.ordinary[i]
            if e < order:
                continue
            o = tuple(x - order if j == i else x for j, x in enumerate(m.ordinary))
            nm = Monomial(o, m.pd)
            nc = c * comb(e, order)
            acc[nm] = acc[nm] + nc if nm in acc else nc
    elif gen in ring.pd_gens:
        i = ring.pd_index(gen)
        for m, c in a.terms.items():
            e = m.pd[i]
            if e < order:
                continue
            d = tuple(x - order if j == i else x for j, x in enumerate(m.pd))
            nm = Monomial(m.ordinary, d)
            acc[nm] = acc[nm] + c if nm in acc else c
    else:
        raise UnknownGenerator(gen)
    return Element(ring, acc, a.truncated)


def monomial_weight(mono: Monomial, ring: RingSpec, weights: Optional[Mapping[str, int]] = None) -> int:
    weights = weights or {}
    total = 0
    for name, e in zip(ring.ordinary_gens, mono.ordinary):
        total += e * weights.get(name, 1)
    for name, e in zip(ring.pd_gens, mono.pd):
        total += e * weights.get(name, 1)
    return total


def p_power_over_factorial(n: int, modulus: Modulus) -> Scalar:
    """The integer-valued p-adic number p^n / n!, at full precision.

    Its valuation n - ord_p(n!) is nonnegative, so no precision is lost:
    the value is p^(n - v) times the inverse of the unit part of n!.
    """
    from prism_forge.padic import Scalar, factorial_valuation, unit_part_inverse

    p, N = modulus.p, modulus.N
    v = factorial_valuation(n, p)
    if n - v >= N:
        return Scalar(0, modulus)
    return Scalar(p ** (n - v), modulus) * unit_part_inverse(n, modulus)


def binomial(m: int, n: int, modulus: Modulus) -> Scalar:
    """The coefficient C(m+n, n) appearing in x^[m] * x^[n]."""
    from prism_forge.padic import Scalar

    if m < 0 or n < 0:
        raise ValueError("divided-power weights are nonnegative")
    return Scalar(comb(m + n, n), modulus)


def kernel_basis_mod_prime_power(
    a: Matrix, modulus: Modulus, cols: Optional[int] = None
) -> Tuple[Matrix, List[int]]:
    """Columns spanning {x : a x = 0 mod p^N}, with their p-exponents.

    Returns (B, e) where B = V * diag(p^e) reduced mod p^N: column i of
    B generates the i-th factor of the kernel, and e[i] is the power of
    p scaling the i-th column of V.  The generators only have meaning
    mod p^N, so their entries are residues in [0, p^N).
    """
    from prism_forge.homology import smith_normal_form

    p, N = modulus.p, modulus.N
    pN = modulus.cardinality
    r = len(a)
    c = (len(a[0]) if a else 0) if cols is None else cols
    dec = smith_normal_form(a, rows=r, cols=c)
    exps = []
    for i in range(c):
        if i < min(r, c) and dec.S[i][i] != 0:
            v = min(N, int_valuation(dec.S[i][i], p))
        else:
            v = N
        exps.append(N - v)
    basis = [
        [dec.V[i][j] * p ** exps[j] % pN for j in range(c)] for i in range(c)
    ]
    return basis, exps


def free_phi_ring(
    modulus: Modulus,
    names: Union[int, Sequence[str]] = 1,
    level_cap: int = 2,
    poly_degree_cap: int = 16,
    pd_degree_cap: int = 0,
):
    """Polynomial ring on formal phi-towers x_(i,0), ..., x_(i,J).

    phi(x_(i,j)) = x_(i,j)^p + p x_(i,j+1) below the cap, so
    delta(x_(i,j)) = x_(i,j+1) on the nose; the top level gets the
    plain lift phi = (.)^p, which caps the tower at delta^J = 0.
    """
    from prism_forge.deltaring import FrobeniusLift
    from prism_forge.pdpoly import RingSpec

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


def pd_envelope(base, section_gens):
    """Adjoin divided powers of the listed ordinary generators.

    Returns the ring with those generators moved to the divided-power
    block; names are preserved, so base elements substitute along
    g -> g^[1] via pd_section_images.
    """
    from prism_forge.pdpoly import RingSpec, UnknownGenerator

    sections = tuple(section_gens)
    if not sections:
        raise ValueError("need at least one generator to adjoin divided powers")
    for g in sections:
        if g not in base.ordinary_gens:
            raise UnknownGenerator(f"{g!r} is not an ordinary generator")
    ordinary = tuple(g for g in base.ordinary_gens if g not in sections)
    cap = base.pd_degree_cap if base.pd_degree_cap > 0 else base.poly_degree_cap
    return RingSpec(
        ordinary_gens=ordinary,
        pd_gens=base.pd_gens + sections,
        modulus=base.modulus,
        poly_degree_cap=base.poly_degree_cap,
        pd_degree_cap=cap,
    )


def pd_section_images(base, target):
    """Substitution images base -> pd_envelope(base).

    Names are preserved by pd_envelope, so each generator maps to the
    generator of the same name; sectioned ones land on g^[1].
    """
    return {g: target.gen(g) for g in base.all_gens()}


# ---------------------------------------------------------------------------
# The element-level contraction as first written: every d^I e is rebuilt
# from e, one coordinate component at a time, so a multi-index I costs |I|
# derivations.  The library builds each d^I e from its parent instead and
# must agree term by term, residue, precision and truncation flag.
# ---------------------------------------------------------------------------


def d_walk(conn, e):
    """(I, d^I e) for the multi-indices I of the divided-power window, in
    window order, leaving out those where d^I e vanishes.

    d^I applies the coordinate component k of d' I_k times, coordinate
    by coordinate, and stops once the term vanishes.
    """
    from prism_forge.pdpoly import window_monomials

    for mono in window_monomials(conn.ring, conn.ring.pd_degree_cap):
        term = e
        for k, n in enumerate(mono.pd):
            coord = conn.coordinates[k]
            for _ in range(n):
                term = conn.d_component(term, coord)
            if term.is_zero():
                break
        if not term.is_zero():
            yield mono, term


def poincare_contraction(conn, e):
    """Project onto horizontal elements: sum over I of (-t)^[I] d^I e."""
    from prism_forge.derham import _is_divided_power_cell
    from prism_forge.padic import Scalar
    from prism_forge.pdpoly import Element

    ring = conn.ring
    if not _is_divided_power_cell(conn):
        raise ValueError(
            "contraction is defined for the trivial connection on a "
            "divided-power cell"
        )
    out = ring.zero()
    for mono, term in d_walk(conn, e):
        sign = -1 if sum(mono.pd) % 2 else 1
        out = out + Element(ring, {mono: Scalar(sign, ring.modulus)}) * term
    return out


def contraction_identity_failures(conn, elements):
    """Per-element obstructions to horizontality of the contraction and to
    the Taylor reconstruction sum_I t^[I] r(d^I e) = e."""
    from prism_forge.padic import Scalar
    from prism_forge.pdpoly import Element, equal_reduced

    ring = conn.ring
    failures = []
    for e in elements:
        r_e = poincare_contraction(conn, e)
        for coord in conn.coordinates:
            img = conn.d_component(r_e, coord)
            if not img.is_zero():
                failures.append(
                    f"contraction of {e.render()} is not horizontal in {coord}"
                )
                break
        rebuilt = ring.zero()
        for mono, term in d_walk(conn, e):
            coeff = poincare_contraction(conn, term)
            if coeff.is_zero():
                continue
            rebuilt = rebuilt + Element(
                ring, {mono: Scalar(1, ring.modulus)}
            ) * coeff
        if not equal_reduced(rebuilt, e):
            failures.append(
                f"reconstruction of {e.render()} gave {rebuilt.render()}"
            )
    return failures


# ---------------------------------------------------------------------------
# p-curvature as first written: (d/dx + A)^p composed one Element operation
# at a time, every order of d/dx kept, and the curvature formula's matrix
# products taken entry by entry with Element sums and products.  The
# library runs Katz's recursion on packed residues mod p instead and must
# agree on every psi, report and WindowOverflow message.
# ---------------------------------------------------------------------------


def composition_orders(conn):
    """Per coordinate, the coefficients of every order of d/dx in
    (d/dx + A)^p, as a list indexed by the order 0..p."""
    import operator

    from prism_forge.derham import _e_identity, _e_map, _e_mul
    from prism_forge.pdpoly import equal_reduced, partial_derivative
    from prism_forge.transforms import _refuse_truncated

    ring = conn.ring
    if ring.modulus.N != 1:
        raise ValueError("p-curvature is a mod-p operator; reduce to precision 1")
    if ring.pd_gens:
        raise ValueError(
            "divided-power generators have nonvanishing p-th partials; "
            "use a polynomial coefficient ring"
        )
    if conn.coordinates != ring.all_gens():
        raise ValueError("coordinates must be the ring generators")
    for g in ring.ordinary_gens:
        row = conn.gen_differentials.get(g, {})
        live = {x for x, e in row.items() if not e.is_zero()}
        if live != {g} or not equal_reduced(row[g], ring.one()):
            raise ValueError(
                "p-curvature needs the untwisted exterior derivative "
                f"(d{g} = dg); apply the F-transform first"
            )
    p = ring.modulus.p
    n = conn.rank
    out = {}
    for coord in conn.coordinates:
        amat = conn.matrix(coord)
        # powers[e] is the coefficient of the e-th power of d/dx in the
        # composite so far; p steps fill every order 0..p
        powers = {0: _e_identity(ring, n)}
        for _ in range(p):
            new = {}

            def bump(e, mat):
                new[e] = _e_map(operator.add, new[e], mat) if e in new else mat

            for e, bmat in powers.items():
                db = _e_map(lambda x: partial_derivative(x, coord), bmat)
                bump(e, _e_map(operator.add, db, _e_mul(amat, bmat)))
                bump(e + 1, bmat)
            powers = new
            for bmat in powers.values():
                _refuse_truncated(bmat, "the operator composition")
        out[coord] = [powers[e] for e in range(p + 1)]
    return out


def p_curvature(conn):
    """Matrix of the p-th power of each coordinate connection operator:
    the order-0 coefficient of the composition, once the leading symbol
    is the identity and the orders 1..p-1 vanish."""
    from prism_forge.derham import _e_all, _e_identity
    from prism_forge.pdpoly import Element, equal_reduced

    ring = conn.ring
    p = ring.modulus.p
    out = {}
    for coord, powers in composition_orders(conn).items():
        if not _e_all(equal_reduced, powers[p], _e_identity(ring, conn.rank)):
            raise ArithmeticError("leading symbol of the p-th power is wrong")
        for i in range(1, p):
            if not _e_all(Element.is_zero, powers[i]):
                raise ArithmeticError(
                    f"p-th power keeps a derivation term of order {i}; "
                    "the operator is not linear over p-th powers"
                )
        out[coord] = powers[0]
    return out


def check_pcurvature_formula(rf, pconn):
    """psi = Theta^p - F(theta') per coordinate, and the commutation of
    the psi matrices with each other and with every Theta."""
    import operator
    from itertools import combinations

    from prism_forge.derham import (
        _e_all, _e_identity, _e_map, _e_mul, polynomial_connection,
    )
    from prism_forge.pdpoly import equal_reduced, substitute
    from prism_forge.transforms import (
        CurvatureData, CurvatureReport, _mod_p, _refuse_truncated,
    )

    img1 = rf.mod_p.image_ring
    n = pconn.rank
    theta_source, theta_pullback = _mod_p(rf, pconn)
    conn1 = polynomial_connection(img1, rank=n, matrices=theta_pullback)
    psi = p_curvature(conn1)
    failures = []
    for xp, x in rf.coordinate_pairs():
        power = _e_identity(img1, n)
        for _ in range(img1.modulus.p):
            power = _e_mul(power, theta_pullback[x])
        _refuse_truncated(power, "the matrix p-th power")
        pulled = _e_map(
            lambda e: substitute(e, rf.mod_p.map), theta_source[xp]
        )
        rhs = _e_map(operator.sub, power, pulled)
        if not _e_all(equal_reduced, psi[x], rhs):
            failures.append(f"curvature formula fails in the coordinate {x}")
    coords = list(img1.ordinary_gens)
    for x, y in combinations(coords, 2):
        ab, ba = _e_mul(psi[x], psi[y]), _e_mul(psi[y], psi[x])
        _refuse_truncated(ab, "the psi product")
        _refuse_truncated(ba, "the psi product")
        if not _e_all(equal_reduced, ab, ba):
            failures.append(f"psi matrices in {x} and {y} do not commute")
    for x in coords:
        for y in coords:
            lhs = _e_mul(psi[x], theta_pullback[y])
            rhs = _e_mul(theta_pullback[y], psi[x])
            _refuse_truncated(lhs, "the psi-twist product")
            _refuse_truncated(rhs, "the psi-twist product")
            if not _e_all(equal_reduced, lhs, rhs):
                failures.append(
                    f"psi in {x} does not commute with the twist matrix in {y}"
                )
    data = CurvatureData(
        psi=psi, theta_source=theta_source, theta_pullback=theta_pullback
    )
    return CurvatureReport(passed=not failures, data=data, failures=failures)


def jacobson_psi(a: List[int], p: int) -> List[int]:
    """a^p + (d/dx)^(p-1) a over F_p[x], on coefficient lists (index =
    exponent), trailing zeros stripped: the p-curvature of d/dx + a on a
    line bundle by Jacobson's formula."""
    power = [1]
    for _ in range(p):
        prod = [0] * (len(power) + len(a) - 1) if a else []
        for i, x in enumerate(power):
            for j, y in enumerate(a):
                prod[i + j] += x * y
        power = prod
    deriv = list(a)
    for _ in range(p - 1):
        deriv = [k * c for k, c in enumerate(deriv)][1:]
    out = [0] * max(len(power), len(deriv))
    for i, c in enumerate(power):
        out[i] += c
    for i, c in enumerate(deriv):
        out[i] += c
    out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return out
