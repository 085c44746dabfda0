"""Reference computations made apart from prism_forge.

Everything here works on plain integers, tuples and dicts; nothing is
imported from the library.  The workloads compare the library's outputs
with these values, or with properties the mathematics forces, outside
the timed region.
"""

from __future__ import annotations

import math
import re
from itertools import product
from typing import Dict, List, Sequence, Tuple

# A divided-power polynomial: {(ordinary exponents, pd exponents): integer}.
# The pd exponent n in a slot stands for t^[n] = t^n / n!.
Key = Tuple[Tuple[int, ...], Tuple[int, ...]]
PdPoly = Dict[Key, int]


def pd_mul(a: PdPoly, b: PdPoly) -> PdPoly:
    """Product over Z, with t^[i] * t^[j] = C(i+j, i) * t^[i+j]."""
    out: PdPoly = {}
    for (oa, da), ca in a.items():
        for (ob, db), cb in b.items():
            c = ca * cb
            for i, j in zip(da, db):
                c *= math.comb(i + j, i)
            key = (tuple(x + y for x, y in zip(oa, ob)),
                   tuple(x + y for x, y in zip(da, db)))
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def pd_pow(a: PdPoly, n: int, one: Key) -> PdPoly:
    out: PdPoly = {one: 1}
    for _ in range(n):
        out = pd_mul(out, a)
    return out


def power_lift_image(key: Key, p: int) -> PdPoly:
    """phi of one monomial under x -> x^p, t -> t^p, over Z.

    t^p is p! * t^[p] in divided-power notation, and phi(t^[n]) is
    (t^p)^n / n!, an exact integer division.
    """
    ords, pds = key
    zero_o, zero_d = (0,) * len(ords), (0,) * len(pds)
    out: PdPoly = {(tuple(p * e for e in ords), zero_d): 1}
    for slot, n in enumerate(pds):
        if not n:
            continue
        t_p = {(zero_o, tuple(p if i == slot else 0 for i in range(len(pds)))):
               math.factorial(p)}
        image = pd_pow(t_p, n, (zero_o, zero_d))
        image = {k: exact_div(v, math.factorial(n)) for k, v in image.items()}
        out = pd_mul(out, image)
    return out


def exact_div(v: int, d: int) -> int:
    q, r = divmod(v, d)
    if r:
        raise ArithmeticError(f"{v} is not divisible by {d}")
    return q


def delta_power_lift(a: PdPoly, p: int) -> PdPoly:
    """(phi(a) - a^p) / p over Z for the lift x -> x^p, t -> t^p."""
    if not a:
        return {}
    some = next(iter(a))
    one = ((0,) * len(some[0]), (0,) * len(some[1]))
    phi: PdPoly = {}
    for key, c in a.items():
        for k, v in power_lift_image(key, p).items():
            phi[k] = phi.get(k, 0) + c * v
    diff = dict(phi)
    for k, v in pd_pow(a, p, one).items():
        diff[k] = diff.get(k, 0) - v
    return {k: exact_div(v, p) for k, v in diff.items() if v}


def residues_agree(ours: PdPoly, theirs: Dict[Key, int], modulus: int) -> List[str]:
    """Keys where two coefficient maps differ mod `modulus`."""
    bad = []
    for key in sorted(set(ours) | set(theirs)):
        if (ours.get(key, 0) - theirs.get(key, 0)) % modulus:
            bad.append(f"coefficient of {key}: {ours.get(key, 0)} vs "
                       f"{theirs.get(key, 0)} mod {modulus}")
    return bad


# -- cohomology of polynomial window complexes ----------------------------------


def valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def polynomial_window_cohomology(m: int, p: int, N: int, cap: int) -> Dict[int, List[int]]:
    """Exponents of H^q for the p-twisted de Rham window of W[x_1..x_m].

    The complex splits by multidegree alpha, |alpha| <= cap, into Koszul
    complexes on (p * alpha_i) over the support of alpha.  alpha = 0
    gives Z/p^N in H^0.  Support size k gives C(k-1, j) summands Z/p^e
    to H^j and to H^(j+1), 0 <= j < k, with
    e = min(N, 1 + min over the support of v_p(alpha_i)).
    """
    groups: Dict[int, List[int]] = {q: [] for q in range(m + 1)}
    groups[0].append(N)
    for alpha in product(range(cap + 1), repeat=m):
        if sum(alpha) > cap or not any(alpha):
            continue
        support = [a for a in alpha if a]
        k = len(support)
        e = min(N, 1 + min(valuation(a, p) for a in support))
        for j in range(k):
            count = math.comb(k - 1, j)
            groups[j].extend([e] * count)
            groups[j + 1].extend([e] * count)
    return {q: sorted(v) for q, v in groups.items()}


def euler_defect(exponents: Dict[int, Sequence[int]], ranks: Sequence[int], N: int) -> int:
    """sum_q (-1)^q length(H^q) - N * sum_q (-1)^q rank_q; zero for a complex.

    Lengths of finite Z/p^N-modules are additive along exact sequences,
    so the alternating sum of cohomology lengths equals that of the
    terms, each free of length N * rank.
    """
    lengths = sum((-1) ** q * sum(exps) for q, exps in exponents.items())
    return lengths - N * sum((-1) ** q * r for q, r in enumerate(ranks))


# -- p-curvature of rank-one transforms ---------------------------------------------


Poly = Dict[int, int]  # exponent -> coefficient, one variable


def poly_mul_mod(a: Poly, b: Poly, p: int) -> Poly:
    out: Poly = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = (out.get(i + j, 0) + x * y) % p
    return {k: v for k, v in out.items() if v}


def jacobson_psi(theta_prime: Poly, p: int) -> Poly:
    """psi = Theta^p + d^(p-1) Theta mod p, Theta = x^(p-1) theta'(x^p).

    Jacobson's formula for the p-curvature of d/dx + Theta on a rank-one
    module in characteristic p.
    """
    theta = {p - 1 + p * e: c % p for e, c in theta_prime.items() if c % p}
    power: Poly = {0: 1}
    for _ in range(p):
        power = poly_mul_mod(power, theta, p)
    deriv = dict(theta)
    for _ in range(p - 1):
        deriv = {e - 1: (c * e) % p for e, c in deriv.items() if e and (c * e) % p}
    out = dict(power)
    for e, c in deriv.items():
        out[e] = (out.get(e, 0) + c) % p
    return {k: v for k, v in out.items() if v}


_TERM = re.compile(r"^(?:(\d+)\*)?([A-Za-z_]\w*)(?:\^(\d+))?$")


def parse_univariate(text: str, var: str) -> Poly:
    """Read a rendered one-variable polynomial such as 'x^4 - 3*x + 2'."""
    out: Poly = {}
    text = text.strip()
    if text == "0":
        return out
    for raw in text.replace(" - ", " + -").split(" + "):
        raw = raw.strip()
        sign = -1 if raw.startswith("-") else 1
        body = raw.lstrip("-")
        if body.isdigit():
            coeff, exp = int(body), 0
        else:
            match = _TERM.match(body)
            if not match or match.group(2) != var:
                raise ValueError(f"cannot read term {raw!r} of {text!r}")
            coeff_s, _, exp_s = match.groups()
            coeff = int(coeff_s) if coeff_s else 1
            exp = int(exp_s) if exp_s else 1
        out[exp] = out.get(exp, 0) + sign * coeff
    return out


def same_mod(a: Poly, b: Poly, p: int) -> bool:
    return all((a.get(k, 0) - b.get(k, 0)) % p == 0 for k in set(a) | set(b))


# -- integer matrices ----------------------------------------------------------------


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def is_scalar_identity(mat: Sequence[Sequence[int]], scalar: int, modulus: int) -> bool:
    return all(
        (v - (scalar if i == j else 0)) % modulus == 0
        for i, row in enumerate(mat) for j, v in enumerate(row)
    )
