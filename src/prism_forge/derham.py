"""p-twisted connections and their truncated de Rham complexes.

A p-connection on a free module of finite rank consists of a derivation
rule d' on the coefficient ring (one image per generator, expressed in a
fixed set of formal coordinate differentials dx_k) together with one
connection matrix per coordinate.  The twist lives entirely in the
derivation rule: on a plain polynomial ring the canonical choice is
d'x = p dx, while envelope rings divide that p into the new generators,
e.g. d't = dx when p*t = x.

The complex is assembled over a weighted monomial window.  Degree-q
forms keep the monomials of weighted degree at most cap - q, a staircase
that the differential respects whenever every d'-image lowers weighted
degree by at least one.  The builder verifies this closure monomial by
monomial and refuses windows the differential would leak out of.  Each
differential is written once, as sparse rows of residues mod p^N, and is
checked to square to zero modulo p^N on construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .envelopes import EnvelopePresentation
from .homology import (
    CohomologyGroup,
    FiniteComplex,
    SparseRows,
    all_cohomology,
    cohomology,
    compose,
)
from .padic import Modulus, PrecisionExhausted, Scalar
from .pdpoly import (
    Element,
    Monomial,
    RingSpec,
    apply_derivation,
    equal_reduced,
    window_monomials,
)

__all__ = [
    "WindowOverflow",
    "NotIntegrable",
    "PConnection",
    "polynomial_p_connection",
    "polynomial_connection",
    "envelope_p_connection",
    "apply_pconnection",
    "curvature_failures",
    "assert_integrable",
    "DeRhamComplex",
    "build_p_derham",
    "NilpotenceReport",
    "check_quasi_nilpotent",
    "divided_power_cell",
    "poincare_homotopy",
    "PoincareReport",
    "check_poincare",
    "poincare_contraction",
    "contraction_identity_failures",
]


class WindowOverflow(ValueError):
    """The differential left the monomial window (or the ring caps)."""


class NotIntegrable(ValueError):
    """Curvature obstruction for a claimed flat p-connection."""


EMatrix = List[List[Element]]


def _e_zero(ring: RingSpec, n: int) -> EMatrix:
    return [[ring.zero() for _ in range(n)] for _ in range(n)]


def _e_identity(ring: RingSpec, n: int) -> EMatrix:
    return [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]


def _e_map(f: Callable[..., Element], *mats: EMatrix) -> EMatrix:
    """f applied entry by entry to matrices of one shape."""
    return [[f(*xs) for xs in zip(*rows)] for rows in zip(*mats)]


def _e_all(pred: Callable[..., bool], *mats: EMatrix) -> bool:
    return all(pred(*xs) for rows in zip(*mats) for xs in zip(*rows))


def _e_mul(a: EMatrix, b: EMatrix) -> EMatrix:
    cols = list(zip(*b))
    return [[reduce(operator.add, map(operator.mul, row, col)) for col in cols] for row in a]


@dataclass
class PConnection:
    """Flat-to-be-checked connection data on a free module.

    coordinates are the labels of the formal differentials dx_k.
    gen_differentials[g][x] is the dx-coefficient of d'g; generators may
    be absent (d'g = 0) and coordinates absent from a row contribute
    nothing.  matrices[x] is the rank x rank connection form in the
    coordinate x, acting on column vectors: the dx-component of the
    image of the basis vector e_j picks up sum_i matrices[x][i][j] e_i.
    Missing coordinates mean a zero matrix, and matrix(x) returns one.
    weights feed the default monomial window of the complex builder.
    """

    ring: RingSpec
    coordinates: Tuple[str, ...]
    gen_differentials: Dict[str, Dict[str, Element]]
    rank: int = 1
    matrices: Dict[str, EMatrix] = field(default_factory=dict)
    weights: Dict[str, int] = field(default_factory=dict)
    # images[x][g] is the dx-coefficient of d'g, for the g where it is given
    images: Dict[str, Dict[str, Element]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("module rank must be at least 1")
        if len(set(self.coordinates)) != len(self.coordinates):
            raise ValueError("duplicate coordinate label")
        coord_set = set(self.coordinates)
        for g, row in self.gen_differentials.items():
            if not self.ring.has_gen(g):
                raise ValueError(f"derivation rule for unknown generator {g!r}")
            for x, e in row.items():
                if x not in coord_set:
                    raise ValueError(f"d'{g} uses unknown coordinate {x!r}")
                if e.ring != self.ring:
                    raise ValueError(f"d'{g} coefficient lives in the wrong ring")
        for x, mat in self.matrices.items():
            if x not in coord_set:
                raise ValueError(f"connection matrix for unknown coordinate {x!r}")
            if len(mat) != self.rank or any(len(r) != self.rank for r in mat):
                raise ValueError(f"connection matrix in {x} is not rank x rank")
            for r in mat:
                for e in r:
                    if e.ring != self.ring:
                        raise ValueError("connection matrix entry in the wrong ring")
        self.images = {
            x: {g: row[x] for g, row in self.gen_differentials.items() if x in row}
            for x in self.coordinates
        }

    # -- the underlying derivation ------------------------------------------

    def d_component(self, a: Element, coord: str) -> Element:
        """dx_coord coefficient of d'a."""
        images = self.images.get(coord)
        if not images:
            return self.ring.zero()
        return apply_derivation(a, images)

    def matrix(self, coord: str) -> EMatrix:
        mat = self.matrices.get(coord)
        return _e_zero(self.ring, self.rank) if mat is None else mat

    def with_matrices(self, matrices: Dict[str, EMatrix], rank: int) -> "PConnection":
        return PConnection(
            ring=self.ring,
            coordinates=self.coordinates,
            gen_differentials=self.gen_differentials,
            rank=rank,
            matrices=matrices,
            weights=dict(self.weights),
        )


def polynomial_p_connection(
    ring: RingSpec,
    rank: int = 1,
    matrices: Optional[Dict[str, EMatrix]] = None,
) -> PConnection:
    """The p-twisted exterior derivative: d'g = p dg for every generator."""
    p = ring.modulus.p
    return PConnection(
        ring=ring,
        coordinates=ring.all_gens(),
        gen_differentials={g: {g: ring.constant(p)} for g in ring.all_gens()},
        rank=rank,
        matrices=matrices or {},
        weights={g: 1 for g in ring.all_gens()},
    )


def polynomial_connection(
    ring: RingSpec,
    rank: int = 1,
    matrices: Optional[Dict[str, EMatrix]] = None,
) -> PConnection:
    """The plain exterior derivative: d'g = dg, no twist.

    Connections of this shape come out of the F-transform and are the
    inputs of the p-curvature operator.
    """
    return PConnection(
        ring=ring,
        coordinates=ring.all_gens(),
        gen_differentials={g: {g: ring.one()} for g in ring.all_gens()},
        rank=rank,
        matrices=matrices or {},
        weights={g: 1 for g in ring.all_gens()},
    )


def envelope_p_connection(
    pres: EnvelopePresentation,
    rank: int = 1,
    matrices: Optional[Dict[str, EMatrix]] = None,
) -> PConnection:
    """Connection of an envelope, in the ambient coordinate differentials.

    One coordinate per ambient generator, divided powers included.  The
    derivation rules are the recorded connection rows of the
    presentation, so d' agrees with the p-twisted exterior derivative of
    the ambient ring pushed through the structural map: an ambient
    divided power u that the cut keeps has d'u = p du.
    """
    return PConnection(
        ring=pres.ring,
        coordinates=pres.ambient.ring.all_gens(),
        gen_differentials={g: dict(row) for g, row in pres.connection_images.items()},
        rank=rank,
        matrices=matrices or {},
        weights=dict(pres.gen_weights),
    )


def apply_pconnection(
    conn: PConnection, coord: str, sections: Sequence[Element]
) -> List[Element]:
    """dx_coord component of the image of a section vector.

    Returns [d'v_i + sum_j A[i][j] v_j], the sum over j of the images of
    the basis sections v_j e_j.
    """
    if len(sections) != conn.rank:
        raise ValueError("section list does not match the module rank")
    amat = conn.matrix(coord)
    out = [conn.ring.zero()] * conn.rank
    for j, v in enumerate(sections):
        for i, g in _nabla_basis(conn, coord, amat, v, j):
            out[i] = out[i] + g
    return out


def _nabla_basis(
    conn: PConnection, coord: str, amat: EMatrix, f: Element, slot: int
) -> List[Tuple[int, Element]]:
    """dx_coord component of the image of the basis section f e_slot.

    As (module slot, component) pieces: d'f in slot `slot`, then
    A[i][slot] f in slot i for each nonzero entry, amat being
    conn.matrix(coord).  Every built complex column follows this rule.
    """
    pieces = [(slot, conn.d_component(f, coord))]
    for i, row in enumerate(amat):
        if not row[slot].is_zero():
            pieces.append((i, row[slot] * f))
    return pieces


def _twisted_by(conn: PConnection, gens: Sequence[str], c: int) -> bool:
    """Whether the coordinates pair with gens by position, each d'g being
    c dx for its coordinate x and nothing else: the one reading of the
    twist rows (c = p canonical, c = 1 untwisted).  A missing row, d'g = 0,
    fails wherever c is nonzero mod p^N, and so does a row with an entry
    known below N, which cannot be read to N digits."""
    ring = conn.ring
    N = ring.modulus.N
    if len(gens) != len(conn.coordinates):
        return False
    want = ring.constant(c)
    for g, x in zip(gens, conn.coordinates):
        row = conn.gen_differentials.get(g, {})
        if any(e.min_precision() < N or k != x and not e.is_zero()
               for k, e in row.items()):
            return False
        if not equal_reduced(row.get(x, ring.zero()), want):
            return False
    return True


# -- integrability -----------------------------------------------------------


def curvature_failures(conn: PConnection) -> List[str]:
    """Obstructions to flatness, one message per failing pair.

    Checks that the coordinate components of d' commute on every ring
    generator and that each curvature matrix
    d'_x A_y - d'_y A_x + [A_x, A_y] vanishes.
    """
    ring = conn.ring
    failures = []
    for x, y in combinations(conn.coordinates, 2):
        for g in ring.all_gens():
            e = ring.gen(g)
            ab = conn.d_component(conn.d_component(e, y), x)
            ba = conn.d_component(conn.d_component(e, x), y)
            if not equal_reduced(ab, ba):
                failures.append(f"d'_{x} and d'_{y} disagree on {g}")
        ax, ay = conn.matrix(x), conn.matrix(y)
        if _e_all(lambda a, b: a.is_zero() and b.is_zero(), ax, ay):
            continue
        curvature = _e_map(
            lambda dy, dx, xy, yx: dy - dx + xy - yx,
            _e_map(lambda a: conn.d_component(a, x), ay),
            _e_map(lambda a: conn.d_component(a, y), ax),
            _e_mul(ax, ay),
            _e_mul(ay, ax),
        )
        for i, row in enumerate(curvature):
            for j, val in enumerate(row):
                if not val.is_zero():
                    failures.append(
                        f"curvature in dx_{x}^dx_{y} at entry ({i},{j}): {val.render()}"
                    )
    return failures


def assert_integrable(conn: PConnection) -> None:
    failures = curvature_failures(conn)
    if failures:
        raise NotIntegrable("; ".join(failures))


# -- the complex -------------------------------------------------------------

# basis entries are (monomial, module slot, wedge), the wedge being the
# sorted tuple of coordinate indices of the differential factors
BasisForm = Tuple[Monomial, int, Tuple[int, ...]]


@dataclass
class DeRhamComplex:
    """Truncated de Rham complex of a p-connection over a monomial window."""

    connection: PConnection
    cap: int
    weights: Dict[str, int]
    bases: Tuple[Tuple[BasisForm, ...], ...]
    complex: FiniteComplex
    _index: Tuple[Dict[BasisForm, int], ...] = field(repr=False, default=())

    def basis(self, q: int) -> Tuple[BasisForm, ...]:
        if 0 <= q < len(self.bases):
            return self.bases[q]
        return ()

    def index_of(self, q: int, form: BasisForm) -> int:
        try:
            return self._index[q][form]
        except (IndexError, KeyError):
            raise WindowOverflow(f"form {form} is not in the degree-{q} window") from None

    def rank(self, q: int) -> int:
        return self.complex.rank(q)

    def differential(self, q: int) -> Optional[SparseRows]:
        return self.complex.differential(q)

    def cohomology(self, q: int) -> CohomologyGroup:
        return cohomology(self.complex, q)

    def all_cohomology(self) -> dict:
        return all_cohomology(self.complex)

    # -- moving between forms and coordinate vectors -------------------------

    def vector_of(self, q: int, parts: Mapping[Tuple[int, ...], Sequence[Element]]) -> List[int]:
        """Coordinate vector of a q-form given as wedge -> rank components,
        each written by the builder's rule (_add_form): a truncated or
        out-of-window component raises WindowOverflow, and one known
        below the ring's precision PrecisionExhausted."""
        index = self._index[q] if 0 <= q < len(self._index) else {}
        col: SparseRows = [{} for _ in range(self.rank(q))]
        for wedge, comps in parts.items():
            if len(comps) != self.connection.rank:
                raise ValueError("component list does not match the module rank")
            for slot, e in enumerate(comps):
                _add_form(col, index, 0, e, slot, tuple(wedge), 1, False)
        pN = self.connection.ring.modulus.cardinality
        return [row.get(0, 0) % pN for row in col]

    def form_of(self, q: int, vec: Sequence[int]) -> Dict[Tuple[int, ...], List[Element]]:
        """Inverse of vector_of; zero components are left out."""
        ring = self.connection.ring
        acc: Dict[Tuple[int, ...], List[Dict[Monomial, Scalar]]] = {}
        for idx, v in enumerate(vec):
            if v % ring.modulus.cardinality == 0:
                continue
            mono, slot, wedge = self.bases[q][idx]
            bucket = acc.setdefault(
                wedge, [{} for _ in range(self.connection.rank)]
            )
            bucket[slot][mono] = Scalar(v, ring.modulus)
        return {
            wedge: [Element(ring, terms) for terms in comps]
            for wedge, comps in acc.items()
        }


def _insertion_sign(wedge: Tuple[int, ...], k: int) -> int:
    return -1 if sum(1 for s in wedge if s < k) % 2 else 1


def _add_form(
    rows: SparseRows,
    index: Mapping[BasisForm, int],
    col: int,
    g: Element,
    slot: int,
    wedge: Tuple[int, ...],
    sign: int,
    clip: bool,
) -> None:
    """Add sign * g e_slot dx_wedge into column col of a window's rows.

    index gives the row of each basis form.  The one way a form enters a
    window: a g the ring caps truncated raises WindowOverflow, zero
    residues are skipped, a nonzero coefficient known below the ring's
    precision raises PrecisionExhausted, and a monomial outside the
    window raises WindowOverflow.  clip=True drops what the caps or the
    window cut instead.  Entries are left unreduced mod p^N.
    """
    if g.truncated and not clip:
        raise WindowOverflow(
            "ring degree caps clipped a coefficient of a form; enlarge the ring caps"
        )
    N = g.ring.modulus.N
    for mono, c in g.terms.items():
        if c.residue == 0:
            continue
        if c.precision < N:
            raise PrecisionExhausted(
                f"coefficient of {mono} known only mod p^{c.precision}"
            )
        row = index.get((mono, slot, wedge))
        if row is None:
            if clip:
                continue
            raise WindowOverflow(
                f"the degree-{len(wedge)} window has no {mono} in slot {slot}; "
                "raise the cap or weights"
            )
        rows[row][col] = rows[row].get(col, 0) + sign * c.residue


def build_p_derham(
    conn: PConnection,
    cap: int,
    clip: bool = False,
    windows: Optional[Sequence[Sequence[Monomial]]] = None,
) -> DeRhamComplex:
    """Assemble the window complex of a p-connection.

    Degree q holds one copy of the weighted window of cap - q per module
    slot and per q-element wedge of coordinates.  Raises WindowOverflow
    when some differential image needs a monomial the next window lacks,
    which is the signal to raise the ring caps or change weights.

    clip=True drops the overflowing terms instead, modeling the quotient
    by the span of high monomials.  A weight-raising connection matrix
    needs this; the construction still refuses to produce a non-complex,
    so a clip that breaks d o d = 0 fails loudly.

    windows overrides the staircase with one explicit monomial list per
    degree (length = number of coordinates + 1).  Mod-p models whose
    differential preserves rather than lowers degree want a uniform
    window here.
    """
    if cap < 0:
        raise ValueError("window cap must be nonnegative")
    ring = conn.ring
    modulus = ring.modulus
    wts = dict(conn.weights)
    if clip and any(wts.get(g, 1) < 1 for g in ring.all_gens()):
        # the clipped model identifies ring-cap truncation with window
        # truncation, which needs every weight to dominate plain degree
        raise ValueError("clipping requires every generator weight >= 1")
    m = len(conn.coordinates)

    if windows is not None:
        if len(windows) != m + 1:
            raise ValueError("need one window per degree 0..m")
        windows = [list(w) for w in windows]
    else:
        windows = []
        for q in range(m + 1):
            windows.append(window_monomials(ring, cap - q, wts) if cap - q >= 0 else [])

    bases: List[Tuple[BasisForm, ...]] = []
    index: List[Dict[BasisForm, int]] = []
    for q in range(m + 1):
        forms: List[BasisForm] = []
        for wedge in combinations(range(m), q):
            for slot in range(conn.rank):
                for mono in windows[q]:
                    forms.append((mono, slot, wedge))
        bases.append(tuple(forms))
        index.append({form: i for i, form in enumerate(forms)})

    one = Scalar(1, modulus)
    pN = modulus.cardinality
    amats = [conn.matrix(coord) for coord in conn.coordinates]
    diffs: List[SparseRows] = []
    for q in range(m):
        mat: SparseRows = [{} for _ in bases[q + 1]]
        for col, (mono, slot, wedge) in enumerate(bases[q]):
            f = Element(ring, {mono: one})
            for k, coord in enumerate(conn.coordinates):
                if k in wedge:
                    continue
                sign = _insertion_sign(wedge, k)
                bigger = tuple(sorted(wedge + (k,)))
                for i, g in _nabla_basis(conn, coord, amats[k], f, slot):
                    _add_form(mat, index[q + 1], col, g, i, bigger, sign, clip)
        diffs.append([{j: x % pN for j, x in row.items() if x % pN} for row in mat])

    cx = FiniteComplex(
        modulus=modulus,
        min_degree=0,
        ranks=tuple(len(b) for b in bases),
        differentials=tuple(diffs),
    )
    return DeRhamComplex(
        connection=conn,
        cap=cap,
        weights=wts,
        bases=tuple(bases),
        complex=cx,
        _index=tuple(index),
    )


# -- quasi-nilpotence --------------------------------------------------------


@dataclass
class NilpotenceReport:
    passed: bool
    indices: Dict[str, int]
    detail: str = ""


def check_quasi_nilpotent(
    conn: PConnection,
    cap: int,
) -> NilpotenceReport:
    """Iterate each coordinate operator mod p on the degree-0 window.

    For every coordinate the operator e -> d'_x e + A_x e is reduced mod
    p and raised to powers until it vanishes; indices records the first
    vanishing power.  Terms the window cannot hold are clipped, so this
    inspects the truncated model (for weight-lowering connections no
    clipping happens).  Fails when some power bound is exhausted first.
    """
    ring = conn.ring
    p = ring.modulus.p
    window = window_monomials(ring, cap, conn.weights)
    pos = {mono: i for i, mono in enumerate(window)}
    n = len(window) * conn.rank
    bound = n + 1
    one = Scalar(1, ring.modulus)

    indices: Dict[str, int] = {}
    for coord in conn.coordinates:
        amat = conn.matrix(coord)
        op: SparseRows = [{} for _ in range(n)]
        for ci, mono in enumerate(window):
            f = Element(ring, {mono: one})
            for slot in range(conn.rank):
                col = slot * len(window) + ci
                for dst, g in _nabla_basis(conn, coord, amat, f, slot):
                    for m2, c in g.terms.items():
                        ri = pos.get(m2)
                        if ri is None:
                            continue  # clipped by the window
                        row = op[dst * len(window) + ri]
                        row[col] = row.get(col, 0) + c.residue
        op = [{j: x % p for j, x in row.items() if x % p} for row in op]
        power, k = op, 1
        while any(power) and k < bound:
            power, k = compose(power, op, p), k + 1
        if any(power) or k > bound:
            return NilpotenceReport(
                passed=False,
                indices=indices,
                detail=f"operator in {coord} still nonzero mod p "
                       f"after {bound} iterations",
            )
        indices[coord] = k
    return NilpotenceReport(passed=True, indices=indices)


# -- contraction of the divided-power cell -----------------------------------


def divided_power_cell(
    modulus: Modulus, num_vars: int, pd_degree_cap: int
) -> PConnection:
    """Trivial rank-1 connection on a pure divided-power ring.

    One pd generator t_i per coordinate x_i with d't_i = dx_i; the model
    whose window complex the contraction below trivializes.
    """
    t_names = ("t",) if num_vars == 1 else tuple(f"t{i + 1}" for i in range(num_vars))
    x_names = ("x",) if num_vars == 1 else tuple(f"x{i + 1}" for i in range(num_vars))
    ring = RingSpec(
        ordinary_gens=(),
        pd_gens=t_names,
        modulus=modulus,
        poly_degree_cap=0,
        pd_degree_cap=pd_degree_cap,
    )
    return PConnection(
        ring=ring,
        coordinates=x_names,
        gen_differentials={t: {x: ring.one()} for t, x in zip(t_names, x_names)},
        weights={t: 1 for t in t_names},
    )


def _is_divided_power_cell(conn: PConnection) -> bool:
    ring = conn.ring
    if conn.rank != 1 or ring.ordinary_gens:
        return False
    if any(
        any(not e.is_zero() for row in mat for e in row)
        for mat in conn.matrices.values()
    ):
        return False
    return _twisted_by(conn, ring.pd_gens, 1)


def _require_divided_power_cell(conn: PConnection) -> None:
    if not _is_divided_power_cell(conn):
        raise ValueError(
            "contraction is defined for the trivial connection on a "
            "divided-power cell"
        )


def poincare_homotopy(dr: DeRhamComplex) -> Tuple[SparseRows, ...]:
    """Contracting homotopy h_q: degree q -> degree q-1, for q = 1..top.

    Defined on the divided-power cell only: a form t^[I] dx_S maps to
    t^[I + e_k] dx_(S - k) for k = min S provided every exponent I_j with
    j < k vanishes, and to zero otherwise.  Together with the identity
    d h + h d = id - (projection onto constants) this trivializes every
    positive degree; the projection term only survives in degree 0.
    """
    conn = dr.connection
    _require_divided_power_cell(conn)
    out: List[SparseRows] = []
    for q in range(1, len(dr.bases)):
        mat: SparseRows = [{} for _ in dr.bases[q - 1]]
        for col, (mono, slot, wedge) in enumerate(dr.bases[q]):
            k = wedge[0]
            if any(mono.pd[j] for j in range(k)):
                continue
            lifted = Monomial(
                mono.ordinary,
                tuple(e + 1 if j == k else e for j, e in enumerate(mono.pd)),
            )
            row = dr.index_of(q - 1, (lifted, slot, wedge[1:]))
            mat[row][col] = 1
        out.append(mat)
    return tuple(out)


@dataclass
class PoincareReport:
    passed: bool
    constants: CohomologyGroup
    higher_trivial: bool
    homotopy_identity: bool
    detail: str = ""


def check_poincare(
    modulus: Modulus, num_vars: int, pd_degree_cap: int
) -> PoincareReport:
    """Both certificates that the divided-power cell has no cohomology.

    The elementary-divisor route must find exactly the constants in
    degree 0 and nothing above; the contraction route must satisfy
    d h + h d = id - (constant-term projection) on the nose mod p^N.
    """
    conn = divided_power_cell(modulus, num_vars, pd_degree_cap)
    dr = build_p_derham(conn, cap=pd_degree_cap)
    groups = dr.all_cohomology()

    constants = groups[0]
    h0_ok = constants.exponents == (modulus.N,)
    higher = all(groups[q].is_trivial() for q in range(1, num_vars + 1))

    homotopy = poincare_homotopy(dr)
    pN = modulus.cardinality
    identity_ok = True
    detail = ""
    const_mono = Monomial((), (0,) * num_vars)
    proj_at = dr.index_of(0, (const_mono, 0, ()))
    for q in range(num_vars + 1):
        n = dr.rank(q)
        none: SparseRows = [{}] * n
        dh = compose(dr.differential(q - 1), homotopy[q - 1], pN) if q else none
        hd = compose(homotopy[q], dr.differential(q), pN) if q < num_vars else none
        for i, (a, b) in enumerate(zip(dh, hd)):
            total = dict(a)
            for j, x in b.items():
                total[j] = total.get(j, 0) + x
            if q or i != proj_at:
                total[i] = total.get(i, 0) - 1
            if any(x % pN for x in total.values()):
                identity_ok = False
                detail = f"homotopy identity fails in degree {q}"
                break
        if not identity_ok:
            break

    passed = h0_ok and higher and identity_ok
    if not h0_ok and not detail:
        detail = f"degree 0 is {constants.describe()}, expected the constants"
    if not higher and not detail:
        detail = "positive-degree cohomology did not vanish"
    return PoincareReport(
        passed=passed,
        constants=constants,
        higher_trivial=higher,
        homotopy_identity=identity_ok,
        detail=detail,
    )


# -- the element-level contraction --------------------------------------------


# multi-index I -> (t^[I], d^I e), in window order
DTable = Dict[Tuple[int, ...], Tuple[Monomial, Element]]


def _d_table(conn: PConnection, e: Element, window: Sequence[Monomial]) -> DTable:
    """I -> (t^[I], d^I e) for the multi-indices I of the divided-power
    window, in window order, leaving out those where d^I e vanishes.

    Each d^I e is one coordinate component of its parent d^(I - e_k) e,
    k the last coordinate with I_k > 0.  So coordinate 0 still comes
    first, and every entry comes from the same d_component calls as
    applying d^I to e coordinate by coordinate.  Window order lists a
    parent before its children, and a vanishing parent has only
    vanishing children.  The table lasts for one element only.
    """
    table: DTable = {}
    for mono in window:
        index = mono.pd
        k = max((j for j, n in enumerate(index) if n), default=None)
        if k is None:
            term = e
        else:
            parent = table.get(index[:k] + (index[k] - 1,) + index[k + 1:])
            if parent is None:
                continue
            term = conn.d_component(parent[1], conn.coordinates[k])
        if not term.is_zero():
            table[index] = (mono, term)
    return table


def _contract(ring: RingSpec, table: DTable, at: Tuple[int, ...]) -> Element:
    """r(d^at e) = sum over J of (-t)^[J] d^(at + J) e, read off e's table.

    On the cell every coordinate component of d' shifts terms and keeps
    their residues, precisions and order, so d^J(d^at e) is the entry at
    at + J term for term, and it vanishes where the table has no entry.
    Translation by at keeps window order, so the sum runs over J in the
    order a walk of d^at e would give them.
    """
    out = ring.zero()
    for index, (mono, term) in table.items():
        j = tuple(a - b for a, b in zip(index, at))
        if min(j, default=0) < 0:
            continue
        sign = -1 if sum(j) % 2 else 1
        shift = Monomial(mono.ordinary, j)
        out = out + Element(ring, {shift: Scalar(sign, ring.modulus)}) * term
    return out


def poincare_contraction(conn: PConnection, e: Element) -> Element:
    """Project onto horizontal elements: sum over I of (-t)^[I] d^I e.

    Defined on the divided-power cell, where the iterated coordinate
    components d^I act as divided-power partials t^[n] -> t^[n-1].  On
    the window the result is the constant term of e, the unique
    horizontal representative of its class.
    """
    _require_divided_power_cell(conn)
    table = _d_table(conn, e, window_monomials(conn.ring, conn.ring.pd_degree_cap))
    return _contract(conn.ring, table, (0,) * len(conn.coordinates))


def contraction_identity_failures(
    conn: PConnection, elements: Sequence[Element]
) -> List[str]:
    """Per-element obstructions to the two contraction identities.

    The image must be horizontal (every coordinate component of d'
    vanishes on it) and the Taylor reconstruction
    sum_I t^[I] r(d^I e) must recover e on the nose.  Both read one d^I
    table per element: r(d^I e) sums the entries at I + J.
    """
    ring = conn.ring
    _require_divided_power_cell(conn)
    window = window_monomials(ring, ring.pd_degree_cap)
    origin = (0,) * len(conn.coordinates)
    failures: List[str] = []
    for e in elements:
        table = _d_table(conn, e, window)
        r_e = _contract(ring, table, origin)
        for coord in conn.coordinates:
            if not conn.d_component(r_e, coord).is_zero():
                failures.append(
                    f"contraction of {e.render()} is not horizontal in {coord}"
                )
                break
        rebuilt = ring.zero()
        for index, (mono, _) in table.items():
            coeff = _contract(ring, table, index)
            if coeff.is_zero():
                continue
            rebuilt = rebuilt + Element(ring, {mono: Scalar(1, ring.modulus)}) * coeff
        if not equal_reduced(rebuilt, e):
            failures.append(
                f"reconstruction of {e.render()} gave {rebuilt.render()}"
            )
    return failures
