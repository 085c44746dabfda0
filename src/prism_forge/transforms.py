"""Frobenius comparisons between twisted and untwisted de Rham theories.

A relative Frobenius F substitutes p-th-power-like images for the
coordinates of a second copy of the base ring.  Dividing its coordinate
differentials by p gives the contraction zeta(dx'_k) = p^{-1} d(F x'_k),
the kernel of every comparison in this module:

  * the F-transform turns a p-connection on the primed side into an
    honest connection on the unprimed side;
  * scaling chain maps p^q / p^(m-q) exhibit the two window complexes
    as isogenous, and the zeta comparison map has cone killed by p^m;
  * mod p, the p-th power of a transformed connection operator is
    linear, and its matrix (the p-curvature) is computed by the
    transform data alone;
  * mod p, multiplication by the top zeta wedge identifies the twisted
    complex of the primed side with the pushforward of the untwisted
    complex, and a two-term conormal complex with the truncated
    envelope complex.

Everything is assembled on explicit monomial windows and verified at
the stated precision; constructions that would leave a window or lose
precision refuse loudly rather than truncate silently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Mapping, Sequence, Tuple

from .deltaring import FrobeniusLift
from .derham import (
    DeRhamComplex,
    EMatrix,
    PConnection,
    WindowOverflow,
    _add_form,
    _e_all,
    _e_identity,
    _e_map,
    _e_mul,
    _e_zero,
    _twisted_by,
    build_p_derham,
    polynomial_connection,
    polynomial_p_connection,
)
from .homology import (
    ChainMap,
    FiniteComplex,
    QuasiIsoReport,
    SparseRows,
    all_cohomology,
    fp_cohomology_dims,
    is_strict_quasi_iso,
    mapping_cone,
)
from .envelopes import _cut
from .padic import Modulus, NotDivisible, Scalar
from .pdpoly import (
    Element,
    Monomial,
    RingMap,
    RingSpec,
    _Residues,
    div_p,
    equal_reduced,
    fresh_name,
    partial_derivative,
    substitute,
    window_monomials,
)

__all__ = [
    "ZetaUndefined",
    "NotClosed",
    "WindowTooSmall",
    "RelativeFrobenius",
    "f_transform",
    "isogeny_maps",
    "frobenius_comparison",
    "IsogenyReport",
    "check_frobenius_isogeny",
    "p_curvature",
    "CurvatureData",
    "CurvatureReport",
    "check_pcurvature_formula",
    "cartier_identity_check",
    "ComparisonReport",
    "check_pushforward_quasi_iso",
    "cotangent_comparison",
]


class ZetaUndefined(ValueError):
    """Some coordinate differential of F is not divisible by p."""


class NotClosed(ValueError):
    """The Cartier identity takes closed 1-forms only."""


class WindowTooSmall(ValueError):
    """The ring caps cannot hold the window a comparison needs."""


def _refuse_truncated(a: EMatrix, context: str) -> None:
    if not _e_all(lambda x: not x.truncated, a):
        raise WindowOverflow(
            f"{context} left the coefficient ring caps; raise poly_degree_cap"
        )


# -- the relative Frobenius ----------------------------------------------------


@dataclass(frozen=True)
class FrobeniusModP:
    """A relative Frobenius read mod p: both rings at precision 1, F
    between them as a ring map, and zeta reduced mod p, keyed as
    RelativeFrobenius.zeta."""

    domain_ring: RingSpec
    image_ring: RingSpec
    map: RingMap
    zeta: Dict[str, Dict[str, Element]]


class RelativeFrobenius:
    """The relative Frobenius F of a Frobenius lift on a polynomial ring.

    F sends each generator of the primed copy domain_ring (primed_ring)
    to the lift's image of the matching generator of image_ring; images
    holds them by primed name, map is F as a ring map, and mod_p is F
    read mod p.  zeta records the exact p-fold division of each nonzero
    coordinate differential of an image,

        zeta[x'][x] = p^{-1} * (d/dx) images[x'],

    an element known to one digit less than the ambient precision.
    FrobeniusLift has checked each image against g^p mod p, so a lift
    that left a generator unchecked is refused, as are divided-power
    rings and precision 1, where zeta has no digit left (ZetaUndefined).
    """

    def __init__(self, lift: FrobeniusLift) -> None:
        ring = lift.ring
        if ring.pd_gens:
            raise ValueError("relative Frobenius is defined on polynomial rings")
        if lift.unchecked:
            raise ValueError(
                "relative Frobenius needs every image checked against g^p mod p;"
                f" unchecked: {', '.join(sorted(lift.unchecked))}"
            )
        if ring.modulus.N < 2:
            raise ZetaUndefined(
                "dividing the differential by p needs precision at least 2"
            )
        dom = self.domain_ring = self.primed_ring(ring)
        self.image_ring = ring
        self.images: Dict[str, Element] = {
            gp: lift.images[g] for gp, g in zip(dom.ordinary_gens, ring.ordinary_gens)
        }
        self.map = RingMap(dom, self.images, ring)
        self.zeta: Dict[str, Dict[str, Element]] = {}
        for gp in dom.ordinary_gens:
            row: Dict[str, Element] = {}
            for g in ring.ordinary_gens:
                d = partial_derivative(self.images[gp], g)
                if d.is_zero():
                    continue
                try:
                    row[g] = div_p(d)
                except NotDivisible as exc:
                    raise ZetaUndefined(
                        f"d({gp})/d{g} is not divisible by p: {exc}"
                    ) from exc
            self.zeta[gp] = row
        dom1, img1 = dom.at_precision(1), ring.at_precision(1)
        images1 = {gp: e.map_to(img1) for gp, e in self.images.items()}
        zeta1 = {
            gp: {g: z.map_to(img1) for g, z in row.items()}
            for gp, row in self.zeta.items()
        }
        self.mod_p = FrobeniusModP(dom1, img1, RingMap(dom1, images1, img1), zeta1)

    @property
    def prime(self) -> int:
        return self.domain_ring.modulus.p

    def coordinate_pairs(self) -> List[Tuple[str, str]]:
        """(primed, unprimed) coordinate names, matched by position."""
        return list(zip(self.domain_ring.ordinary_gens, self.image_ring.ordinary_gens))

    @staticmethod
    def primed_ring(ring: RingSpec) -> RingSpec:
        """The primed coordinate copy of a ring's ordinary generators: x
        becomes xp, with underscores added until the name is free."""
        taken = set(ring.ordinary_gens)
        return RingSpec(
            ordinary_gens=tuple(fresh_name(g + "p", taken) for g in ring.ordinary_gens),
            pd_gens=(),
            modulus=ring.modulus,
            poly_degree_cap=ring.poly_degree_cap,
            pd_degree_cap=ring.pd_degree_cap,
        )


def _require_canonical_twist(conn: PConnection, what: str) -> None:
    ring = conn.ring
    if conn.coordinates != ring.all_gens():
        raise ValueError(f"{what} needs coordinates equal to the ring generators")
    if not _twisted_by(conn, ring.all_gens(), ring.modulus.p):
        raise ValueError(
            f"{what} needs the canonical p-twisted derivative d'g = p dg "
            "on every generator"
        )


# -- the F-transform -------------------------------------------------------------


def f_transform(rf: RelativeFrobenius, pconn: PConnection) -> PConnection:
    """Untwisted connection induced on the pullback along F.

    The derivative of a pulled-back function picks up the contraction
    zeta in place of the divided twist, so the result obeys the plain
    Leibniz rule with matrices

        A[x] = sum_k F(A'[x'_k]) * zeta[x'_k][x].

    zeta carries one digit less than the ambient precision, so the
    matrix entries of the result do too; p * A[x] is the matrix of the
    pullback p-connection, sum_k F(A'[x'_k]) * d(F x'_k)/dx, at full
    precision.  A matrix the ring caps truncated, even to zero, is
    refused with WindowOverflow; zero matrices are left out.
    """
    if pconn.ring != rf.domain_ring:
        raise ValueError("p-connection does not live on the Frobenius domain")
    _require_canonical_twist(pconn, "the F-transform")
    img = rf.image_ring
    matrices: Dict[str, EMatrix] = {}
    for x in img.ordinary_gens:
        acc = _e_zero(img, pconn.rank)
        for xp in rf.domain_ring.ordinary_gens:
            z = rf.zeta[xp].get(x)
            if z is None:
                continue
            pushed = _e_map(lambda e: substitute(e, rf.map) * z, pconn.matrix(xp))
            acc = _e_map(operator.add, acc, pushed)
        _refuse_truncated(acc, "the F-transform")
        if not _e_all(Element.is_zero, acc):
            matrices[x] = acc
    return polynomial_connection(img, rank=pconn.rank, matrices=matrices)


# -- the isogeny ---------------------------------------------------------------


def isogeny_maps(cx: FiniteComplex, cx_p: FiniteComplex) -> Tuple[ChainMap, ChainMap]:
    """Scaling chain maps between a complex and its p-scaled sibling.

    Both complexes share the graded module; cx_p must carry p times the
    differential of cx.  Degree q of the forward map multiplies by p^q,
    of the backward map by p^(m-q) for m the top degree, so the two
    composites are multiplication by p^m.
    """
    if cx.ranks != cx_p.ranks or cx.min_degree != cx_p.min_degree:
        raise ValueError("isogeny needs the same underlying graded module")
    p, pN = cx.modulus.p, cx.modulus.cardinality
    m = len(cx.ranks) - 1

    def scaling(q: int, power: int) -> SparseRows:
        # p^power may vanish mod p^N, leaving every row empty
        x = pow(p, power, pN)
        return [{i: x} if x else {} for i in range(cx.ranks[q])]

    return (
        ChainMap(cx, cx_p, tuple(scaling(q, q) for q in range(m + 1))),
        ChainMap(cx_p, cx, tuple(scaling(q, m - q) for q in range(m + 1))),
    )


def _zeta_wedge(
    zeta: Mapping[str, Mapping[str, Element]],
    source: DeRhamComplex,
    target: DeRhamComplex,
    push: RingMap,
) -> ChainMap:
    """The chain map (q-fold zeta wedge) o push in each degree q, for
    push a ring map from the source's coefficient ring into the target's.

    zeta is keyed by the source coordinates, and its rows must already
    live in the target coefficient ring, known to the precision the
    target window reads.  Each image enters the target window by
    derham's _add_form rule.  A pushforward the caps truncated is
    refused first: the wedge skips zero components, so a base truncated
    to zero would leave no trace.
    """
    img = target.connection.ring
    rank = source.connection.rank
    gens = source.connection.coordinates
    coords = list(img.ordinary_gens)
    one = Scalar(1, source.connection.ring.modulus)
    blocks: List[SparseRows] = []
    for q in range(len(gens) + 1):
        rows: SparseRows = [{} for _ in range(target.rank(q))]
        for col, (mono, slot, wedge) in enumerate(source.basis(q)):
            base = substitute(Element(source.connection.ring, {mono: one}), push)
            if base.truncated:
                raise WindowOverflow(
                    "pushforward left the image ring caps; raise poly_degree_cap"
                )
            parts: Dict[Tuple[int, ...], List[Element]] = {(): [img.zero()] * rank}
            parts[()][slot] = base
            for k in wedge:
                new: Dict[Tuple[int, ...], List[Element]] = {}
                for held, comps in parts.items():
                    for l, x in enumerate(coords):
                        z = zeta[gens[k]].get(x)
                        if z is None or l in held:
                            continue
                        sign = -1 if sum(1 for t in held if t > l) % 2 else 1
                        grown = tuple(sorted(held + (l,)))
                        bucket = new.setdefault(grown, [img.zero()] * rank)
                        for i in range(rank):
                            if comps[i].is_zero():
                                continue
                            piece = comps[i] * z
                            bucket[i] = (
                                bucket[i] + piece if sign > 0 else bucket[i] - piece
                            )
                parts = new
            for held, comps in parts.items():
                for i, e in enumerate(comps):
                    _add_form(rows, target._index[q], col, e, i, held, 1, False)
        pN = img.modulus.cardinality
        blocks.append([{j: x % pN for j, x in row.items() if x % pN} for row in rows])
    return ChainMap(source=source.complex, target=target.complex, rows=tuple(blocks))


def frobenius_comparison(rf: RelativeFrobenius, window_cap: int) -> ChainMap:
    """Chain map from the primed twisted complex into the pushforward.

    Degree q is the q-fold wedge of p * zeta after substituting F,
    landing in the twisted window complex of the image ring, which is
    the pullback of the trivial p-connection, over a window of cap
    p * window_cap.  p * zeta is the Jacobian of F, known to full
    precision, so the map is exact; its cone measures the failure of
    the two complexes to be equal, and is killed by p^(number of
    coordinates).

    The coefficient bundle is the trivial line: a nonzero matrix keeps
    polynomial degree while the staircase window shrinks, so the window
    complex would not close under its differential.  Matrix
    coefficients are handled mod p by check_pushforward_quasi_iso.
    """
    dom, img = rf.domain_ring, rf.image_ring
    p = rf.prime
    if dom.poly_degree_cap < window_cap:
        raise WindowTooSmall("domain ring caps are below the requested window")
    if img.poly_degree_cap < p * window_cap:
        raise WindowTooSmall(
            "image ring caps cannot hold the pushforward window "
            f"(need {p * window_cap})"
        )
    source = build_p_derham(polynomial_p_connection(dom), cap=window_cap)
    target = build_p_derham(polynomial_p_connection(img), cap=p * window_cap)
    jacobian = {
        xp: {x: z.scale(p) for x, z in row.items()} for xp, row in rf.zeta.items()
    }
    return _zeta_wedge(jacobian, source, target, rf.map)


@dataclass
class IsogenyReport:
    passed: bool
    top_power: int
    cone_exponents: Dict[int, Tuple[int, ...]]
    detail: str = ""


def check_frobenius_isogeny(rf: RelativeFrobenius, window_cap: int) -> IsogenyReport:
    """Cone of the comparison map is killed by p^m, m = coordinate count."""
    c = frobenius_comparison(rf, window_cap)
    cone = mapping_cone(c)
    groups = all_cohomology(cone)
    m = len(rf.domain_ring.ordinary_gens)
    exps = {q: g.exponents for q, g in groups.items()}
    bad = [
        (q, e)
        for q, g in groups.items()
        for e in g.exponents
        if e > m
    ]
    detail = ""
    if bad:
        q, e = bad[0]
        detail = f"cone class of order p^{e} in degree {q} survives p^{m}"
    return IsogenyReport(
        passed=not bad, top_power=m, cone_exponents=exps, detail=detail
    )


# -- p-curvature -----------------------------------------------------------------


def _product(a: EMatrix, b: EMatrix, context: str) -> EMatrix:
    """a b, refused when a term of a product left the ring's caps or an
    entry is flagged truncated."""
    out = _e_mul(a, b)
    _refuse_truncated(out, context)
    return out


def p_curvature(conn: PConnection) -> Dict[str, EMatrix]:
    """Matrix of the p-th power of each coordinate connection operator.

    Works over a mod-p polynomial coefficient ring, where the p-th
    power of the coordinate derivation vanishes; the p-fold composition
    of (d/dx + A) then collapses to multiplication by a single matrix,
    the p-curvature, returned per coordinate.

    Katz's recursion A_0 = 1, A_(k+1) = dA_k + A A_k reaches it in p
    matrix products.  By the Leibniz rule the coefficient of d^e in
    (d/dx + A)^s is C(s, e) A_(s-e), so the p-curvature is the order-0
    coefficient A_p.  The orders 1..p-1 are C(p, e) A_(p-e), which vanish
    mod p for every prime p, and order p is the identity; no check here
    can fail, so tests/test_transforms.py holds those identities against
    the oracle instead.

    The recursion runs on matrices of pdpoly's packed residues mod p
    (_Residues and its operators) through derham's matrix helpers, and
    elements are built only for the result.  A product that leaves the
    caps, or an input entry flagged truncated, raises WindowOverflow.
    tests/oracles.py keeps the composition of every order, one Element
    operation at a time, as the oracle.
    """
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
    if not _twisted_by(conn, ring.ordinary_gens, 1):
        raise ValueError(
            "p-curvature needs the untwisted exterior derivative "
            "(d'g = dg on every generator); apply the F-transform first"
        )
    out: Dict[str, EMatrix] = {}
    for coord in conn.coordinates:
        index = ring.ordinary_index(coord)
        amat = conn.matrix(coord)
        _refuse_truncated(amat, "the operator composition")
        a = _e_map(_Residues.of, amat)
        ak = _e_map(_Residues.of, _e_identity(ring, conn.rank))
        for _ in range(ring.modulus.p):
            prod = _product(a, ak, "the operator composition")
            ak = _e_map(lambda b, c: b.partial(index) + c, ak, prod)
        out[coord] = _e_map(_Residues.element, ak)
    return out


@dataclass
class CurvatureData:
    """Mod-p matrices entering the curvature formula, per coordinate."""

    psi: Dict[str, EMatrix]
    theta_source: Dict[str, EMatrix]
    theta_pullback: Dict[str, EMatrix]


@dataclass
class CurvatureReport:
    passed: bool
    data: CurvatureData
    failures: List[str]


def check_pcurvature_formula(
    rf: RelativeFrobenius, pconn: PConnection
) -> CurvatureReport:
    """p-curvature of the transform from the transform data alone.

    Mod p, with Theta the transformed matrices and theta' the source
    matrices, the p-curvature of the transformed connection in the
    coordinate paired with x'_k must equal

        Theta[x]^p - F(theta'[x'_k]),

    an exact matrix identity.  Theta is f_transform reduced mod p.  The
    report also verifies that the psi matrices commute with each other
    and with every Theta.  Theta^p and the commutation products run on
    matrices of packed residues mod p, through the refusing product of
    p_curvature; the oracle in tests/oracles.py takes them one Element
    operation at a time.
    """
    img1 = rf.mod_p.image_ring
    n = pconn.rank
    p = img1.modulus.p
    theta_source, theta_pullback = _mod_p(rf, pconn)
    conn1 = polynomial_connection(img1, rank=n, matrices=theta_pullback)
    psi = p_curvature(conn1)
    r_psi = {x: _e_map(_Residues.of, m) for x, m in psi.items()}
    r_theta = {x: _e_map(_Residues.of, m) for x, m in theta_pullback.items()}
    failures: List[str] = []
    for xp, x in rf.coordinate_pairs():
        power = _e_map(_Residues.of, _e_identity(img1, n))
        for _ in range(p):
            power = _product(power, r_theta[x], "the matrix p-th power")
        pulled = _e_map(
            lambda e: _Residues.of(substitute(e, rf.mod_p.map)), theta_source[xp]
        )
        # psi = Theta^p - F(theta'), read as psi + F(theta') = Theta^p
        if _e_map(operator.add, r_psi[x], pulled) != power:
            failures.append(f"curvature formula fails in the coordinate {x}")
    # a truncated product is refused, never read as a failure to commute
    coords = list(img1.ordinary_gens)
    for x, y in combinations(coords, 2):
        a, b, what = r_psi[x], r_psi[y], "the psi product"
        if _product(a, b, what) != _product(b, a, what):
            failures.append(f"psi matrices in {x} and {y} do not commute")
    for x in coords:
        for y in coords:
            a, b, what = r_psi[x], r_theta[y], "the psi-twist product"
            if _product(a, b, what) != _product(b, a, what):
                failures.append(
                    f"psi in {x} does not commute with the twist matrix in {y}"
                )
    data = CurvatureData(
        psi=psi, theta_source=theta_source, theta_pullback=theta_pullback
    )
    return CurvatureReport(passed=not failures, data=data, failures=failures)


def _mod_p(
    rf: RelativeFrobenius, pconn: PConnection
) -> Tuple[Dict[str, EMatrix], Dict[str, EMatrix]]:
    """theta' per primed coordinate and Theta = f_transform(rf, pconn) per
    unprimed coordinate, both reduced mod p into the rings of rf.mod_p."""
    dom1, img1 = rf.mod_p.domain_ring, rf.mod_p.image_ring
    transformed = f_transform(rf, pconn)
    theta_source = {
        xp: _e_map(lambda e: e.map_to(dom1), pconn.matrix(xp))
        for xp in dom1.ordinary_gens
    }
    theta_pullback = {
        x: _e_map(lambda e: e.map_to(img1), transformed.matrix(x))
        for x in img1.ordinary_gens
    }
    return theta_source, theta_pullback


# -- the Cartier identity --------------------------------------------------------


def cartier_identity_check(
    rf: RelativeFrobenius,
    omega: Mapping[str, Element],
    claimed: Mapping[str, Element],
) -> bool:
    """Verify a claimed Cartier image of a closed mod-p 1-form.

    omega maps unprimed coordinates to mod-p coefficients f_x of f_x dx;
    claimed maps primed coordinates to the coefficients of the claimed
    image.  The defining identity pairs both sides with a coordinate
    derivation D: substituting F into the claimed coefficient must give
    minus the (p-1)-fold D-derivative of the matching coefficient of
    omega.  Only closed forms have a Cartier image; closedness is
    checked first.
    """
    dom1, img1 = rf.mod_p.domain_ring, rf.mod_p.image_ring
    p = img1.modulus.p
    fs = {
        x: (omega[x].map_to(img1) if x in omega else img1.zero())
        for x in img1.ordinary_gens
    }
    for x, y in combinations(img1.ordinary_gens, 2):
        if not equal_reduced(
            partial_derivative(fs[y], x), partial_derivative(fs[x], y)
        ):
            raise NotClosed(f"d omega has a nonzero dx_{x} dx_{y} component")
    ok = True
    for xp, x in rf.coordinate_pairs():
        g = claimed.get(xp)
        g1 = img1.zero() if g is None else substitute(
            g.map_to(dom1) if g.ring != dom1 else g, rf.mod_p.map
        )
        rhs = fs[x]
        for _ in range(p - 1):
            rhs = partial_derivative(rhs, x)
        if not equal_reduced(g1, -rhs):
            ok = False
    return ok


# -- mod-p pushforward comparison -------------------------------------------------


@dataclass
class ComparisonReport:
    passed: bool
    source_dims: List[int]
    target_dims: List[int]
    quasi_iso: QuasiIsoReport
    detail: str = ""


def check_pushforward_quasi_iso(
    rf: RelativeFrobenius,
    pconn: PConnection,
    window_cap: int,
) -> ComparisonReport:
    """The zeta wedge is a mod-p quasi-isomorphism onto the pushforward.

    Mod p the twisted complex of the primed side keeps only its matrix
    part, while the pushforward of the transformed untwisted complex is
    finite over the primed ring with basis the coordinate powers below
    p.  Both are assembled as uniform-window complexes (the mod-p
    differentials never lower the window grading, so the high span is a
    genuine quotient) and the wedge map is checked to be a
    quasi-isomorphism via its cone.
    """
    dom1, img1 = rf.mod_p.domain_ring, rf.mod_p.image_ring
    theta_source, theta_pullback = _mod_p(rf, pconn)
    p = img1.modulus.p
    m = len(dom1.ordinary_gens)
    n = pconn.rank
    if dom1.poly_degree_cap < window_cap:
        raise WindowTooSmall("domain ring caps are below the requested window")
    need = m * (p - 1) + p * window_cap
    if img1.poly_degree_cap < need:
        raise WindowTooSmall(
            f"image ring caps cannot hold the pushforward basis (need {need})"
        )

    source_conn = polynomial_p_connection(dom1, rank=n, matrices=theta_source)
    source_window = window_monomials(dom1, window_cap)
    source = build_p_derham(
        source_conn,
        cap=window_cap,
        clip=True,
        windows=[source_window] * (m + 1),
    )

    target_conn = polynomial_connection(img1, rank=n, matrices=theta_pullback)
    shaped = [
        mono
        for mono in window_monomials(img1, need)
        if sum(e // p for e in mono.ordinary) <= window_cap
    ]
    target = build_p_derham(
        target_conn, cap=need, clip=True, windows=[shaped] * (m + 1)
    )

    qi = is_strict_quasi_iso(
        _zeta_wedge(rf.mod_p.zeta, source, target, rf.mod_p.map)
    )
    sdims = fp_cohomology_dims(source.complex)
    tdims = fp_cohomology_dims(target.complex)
    detail = "" if qi.passed else qi.detail
    return ComparisonReport(
        passed=qi.passed,
        source_dims=sdims,
        target_dims=tdims,
        quasi_iso=qi,
        detail=detail,
    )


# -- the conormal comparison -------------------------------------------------------


def cotangent_comparison(
    ambient: FrobeniusLift,
    cut_gens: Sequence[str],
    cap: int,
) -> QuasiIsoReport:
    """Two-term conormal complex versus the truncated envelope complex.

    The conormal module of the cut locus (together with the class of p)
    maps to the mod-p divided-power envelope by sending the class of p
    to 1 and the class of a cut coordinate to its divided generator.
    Against the ambient differentials this is a chain map into the
    shift of the envelope window complex C^0 -> C^1 -> C^2, and the
    check asserts it is a quasi-isomorphism onto the truncation at the
    cycles of C^1: by the long exact sequence of the cone (Weibel, An
    Introduction to Homological Algebra, 1994, 1.5) that holds exactly
    when the cone has no cohomology in degrees <= 0.  Windows follow the
    conormal weights: the class of p has weight 0, coordinate classes
    and differentials weight 1.  The envelope is the divided-power cut
    of envelopes, taken mod p with both caps at cap.
    """
    ring = ambient.ring
    if ring.pd_gens:
        raise ValueError("the conormal comparison wants a polynomial ambient ring")
    p = ring.modulus.p
    cut = tuple(cut_gens)
    if len(set(cut)) != len(cut):
        raise ValueError("duplicate cut generator")
    for g in cut:
        if g not in ring.ordinary_gens:
            raise ValueError(f"cut generator {g!r} is not an ambient coordinate")
    if cap < 1:
        raise ValueError("window cap must be at least 1")
    mod1 = Modulus(p, 1)
    amb1 = RingSpec(ring.ordinary_gens, (), mod1, cap, cap)
    taken = set(ring.ordinary_gens)
    t_names = [fresh_name("t_" + g, taken) for g in cut]
    env1, _, rows = _cut(amb1, cut, t_names, t_names, pd_degree_cap=cap)
    conn = PConnection(
        ring=env1,
        coordinates=ring.ordinary_gens,
        gen_differentials=rows,
        weights={g: 1 for g in env1.all_gens()},
    )
    dr = build_p_derham(conn, cap=cap)

    ox = RingSpec(env1.ordinary_gens, (), mod1, cap, 0)
    v_full = window_monomials(ox, cap)
    v_prev = window_monomials(ox, cap - 1)
    m = len(ring.ordinary_gens)
    r = len(cut)

    # degree -1: the class of p over the full window, one conormal class
    # per cut coordinate over the lower window; degree 0: one ambient
    # differential per coordinate over the lower window
    n_minus = len(v_full) + r * len(v_prev)
    n_zero = m * len(v_prev)
    dbar: SparseRows = [{} for _ in range(n_zero)]
    coord_index = {g: i for i, g in enumerate(ring.ordinary_gens)}
    col = len(v_full)
    for i, g in enumerate(cut):
        base = coord_index[g] * len(v_prev)
        for vi in range(len(v_prev)):
            dbar[base + vi][col] = 1
            col += 1
    # the conormal complex has nothing opposite C^2
    lhs = FiniteComplex(
        modulus=mod1,
        min_degree=-1,
        ranks=(n_minus, n_zero, 0),
        differentials=(dbar, []),
    )

    # target: envelope window complex through C^2, shifted down once
    n0, n1, n2 = dr.rank(0), dr.rank(1), dr.rank(2)
    rhs = FiniteComplex(
        modulus=mod1,
        min_degree=-1,
        ranks=(n0, n1, n2),
        differentials=(dr.differential(0), dr.differential(1) or []),
    )

    block_minus: SparseRows = [{} for _ in range(n0)]
    for vi, v in enumerate(v_full):
        mono = Monomial(v.ordinary, (0,) * r)
        block_minus[dr.index_of(0, (mono, 0, ()))][vi] = 1
    col = len(v_full)
    for i in range(r):
        pd = tuple(1 if j == i else 0 for j in range(r))
        for v in v_prev:
            mono = Monomial(v.ordinary, pd)
            block_minus[dr.index_of(0, (mono, 0, ()))][col] = 1
            col += 1
    block_zero: SparseRows = [{} for _ in range(n1)]
    for k in range(m):
        for vi, v in enumerate(v_prev):
            mono = Monomial(v.ordinary, (0,) * r)
            block_zero[dr.index_of(1, (mono, 0, (k,)))][k * len(v_prev) + vi] = 1

    cone = mapping_cone(ChainMap(
        source=lhs, target=rhs, rows=(block_minus, block_zero, [{}] * n2),
    ))
    # degree 1 of the cone is C^2/B^2, which the comparison does not claim
    return QuasiIsoReport.from_cone_dims(cone.min_degree, fp_cohomology_dims(cone)[:-1])
