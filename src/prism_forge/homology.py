"""Cohomology of complexes over Z/p^N, Smith normal form, mapping cones.

A complex holds each differential once, as sparse rows: row i is a dict
from column to the nonzero residue mod p^N in that place (SparseRows).
Cohomology is computed over the local ring Z/p^N itself: the basis of
C^q splits into blocks on which the complex is a direct sum, and in each
block d^q is eliminated with pivots of least p-adic valuation, whose
column operations are replayed on d^(q-1).  That gives the kernel of
d^q as a lattice of generators p^(N-v) e_j and the image in those
generators; a second elimination reads off the quotient's elementary
divisors.  Entries stay residues below p^N (Dumas, Saunders & Villard,
"On efficient sparse integer matrix Smith normal form computations",
J. Symb. Comput. 32, 2001, specialised to the local ring).

A chain map holds one block of sparse rows per degree in the same
format.  Dense matrices are plain lists of integer rows.  The integer
Smith decomposition, with both change-of-basis matrices and their
inverses, stays for callers that want explicit lattices over Z.
dense(rows, cols) expands sparse rows for callers that multiply lists.

A chain map between complexes with matching degree ranges yields a
mapping cone; since all terms are finite free Z/p^N-modules, the cone is
acyclic exactly when it is acyclic mod p, which reduces the strict
quasi-isomorphism test to the cohomology of the cone over Z/p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .padic import Modulus, _residue_valuation

Matrix = List[List[int]]
# row i maps column -> nonzero residue; the row count is the target rank
SparseRows = List[Dict[int, int]]


class GradingMismatch(ValueError):
    """Chain map between complexes with different degree ranges."""


# -- plain integer matrix helpers ---------------------------------------------


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def dense(rows: SparseRows, cols: int) -> Matrix:
    """The integer matrix with these sparse rows and cols columns."""
    out = zero_matrix(len(rows), cols)
    for row, entries in zip(out, rows):
        for j, x in entries.items():
            row[j] = x
    return out


def compose(a: SparseRows, b: SparseRows, modulus: int) -> SparseRows:
    """Rows of the product a * b mod modulus; b has a row per column of a."""
    out = []
    for row in a:
        acc: Dict[int, int] = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v % modulus for j, v in acc.items() if v % modulus})
    return out


def _check_rows(rows: SparseRows, count: int, cols: int, pN: int, what: str) -> None:
    """Refuse rows that are not count rows of residues in (0, pN) below cols."""
    if len(rows) != count:
        raise ValueError(f"{what} has wrong row count")
    for row in rows:
        for j, x in row.items():
            if not 0 <= j < cols:
                raise ValueError(f"{what} has column {j} outside its {cols} columns")
            if not 0 < x < pN:
                raise ValueError(f"{what} has entry {x}, "
                                 f"not a nonzero residue mod {pN}")


# -- Smith normal form ---------------------------------------------------------


@dataclass
class SmithDecomposition:
    """U * A * V = S with S diagonal, divisors nonnegative and chained.

    U, V are unimodular; their inverses are tracked alongside so callers
    can move between the original and diagonal coordinates without
    solving anything.
    """

    rows: int
    cols: int
    S: Matrix
    U: Matrix
    V: Matrix
    Uinv: Matrix
    Vinv: Matrix

    @property
    def divisors(self) -> List[int]:
        return [self.S[i][i] for i in range(min(self.rows, self.cols))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.divisors if d != 0)


def smith_normal_form(
    a: Matrix, rows: Optional[int] = None, cols: Optional[int] = None
) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Pivot choice is deterministic: smallest absolute value in the
    remaining submatrix, ties broken by smallest row then smallest
    column.  Divisor chaining is enforced by the usual repair step
    (fold an offending row into the pivot row and rerun).
    """
    r = len(a) if rows is None else rows
    c = (len(a[0]) if a else 0) if cols is None else cols
    work = [list(row) for row in a] if a else [[] for _ in range(r)]
    U = identity_matrix(r)
    Uinv = identity_matrix(r)
    V = identity_matrix(c)
    Vinv = identity_matrix(c)

    def row_swap(i: int, j: int) -> None:
        work[i], work[j] = work[j], work[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def row_negate(i: int) -> None:
        work[i] = [-v for v in work[i]]
        U[i] = [-v for v in U[i]]
        for row in Uinv:
            row[i] = -row[i]

    def row_add(i: int, j: int, k: int) -> None:
        # row_i += k * row_j
        work[i] = [v + k * w for v, w in zip(work[i], work[j])]
        U[i] = [v + k * w for v, w in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= k * row[i]

    def col_swap(i: int, j: int) -> None:
        for row in work:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_add(i: int, j: int, k: int) -> None:
        # col_i += k * col_j
        for row in work:
            row[i] += k * row[j]
        for row in V:
            row[i] += k * row[j]
        Vinv[j] = [v - k * w for v, w in zip(Vinv[j], Vinv[i])]

    def submatrix_pivot(k: int) -> Optional[Tuple[int, int]]:
        best = None
        for i in range(k, r):
            for j in range(k, c):
                v = work[i][j]
                if v == 0:
                    continue
                key = (abs(v), i, j)
                if best is None or key < best:
                    best = key
        return None if best is None else (best[1], best[2])

    k = 0
    while k < min(r, c):
        piv = submatrix_pivot(k)
        if piv is None:
            break
        i, j = piv
        if i != k:
            row_swap(k, i)
        if j != k:
            col_swap(k, j)
        if work[k][k] < 0:
            row_negate(k)
        while True:
            dirty = False
            for i in range(r):
                if i != k and work[i][k]:
                    row_add(i, k, -(work[i][k] // work[k][k]))
                    if work[i][k]:
                        dirty = True
            for j in range(c):
                if j != k and work[k][j]:
                    col_add(j, k, -(work[k][j] // work[k][k]))
                    if work[k][j]:
                        dirty = True
            if not dirty:
                break
            piv = submatrix_pivot(k)
            i, j = piv
            if i != k:
                row_swap(k, i)
            if j != k:
                col_swap(k, j)
            if work[k][k] < 0:
                row_negate(k)
        bad = None
        d = work[k][k]
        for i in range(k + 1, r):
            for j in range(k + 1, c):
                if work[i][j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(k, bad, 1)
            continue
        k += 1

    return SmithDecomposition(rows=r, cols=c, S=work, U=U, V=V, Uinv=Uinv, Vinv=Vinv)


# -- complexes ------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteComplex:
    """Bounded complex of finite free Z/p^N-modules.

    ranks[i] is the rank in degree min_degree + i; differentials[i] maps
    that degree to the next one and is stored as ranks[i+1] sparse rows
    whose columns lie below ranks[i] and whose entries are residues in
    (0, p^N).  The composite of consecutive differentials must vanish
    mod p^N.
    """

    modulus: Modulus
    min_degree: int
    ranks: Tuple[int, ...]
    differentials: Tuple[SparseRows, ...]

    def __post_init__(self) -> None:
        if len(self.differentials) != max(0, len(self.ranks) - 1):
            raise ValueError("need one differential per adjacent pair of degrees")
        pN = self.modulus.cardinality
        for i, d in enumerate(self.differentials):
            _check_rows(d, self.ranks[i + 1], self.ranks[i], pN, f"differential {i}")
        for i in range(len(self.differentials) - 1):
            if any(compose(self.differentials[i + 1], self.differentials[i], pN)):
                raise ValueError(f"d o d is nonzero between degrees "
                                 f"{self.min_degree + i} and {self.min_degree + i + 2}")

    @property
    def max_degree(self) -> int:
        return self.min_degree + len(self.ranks) - 1

    def rank(self, q: int) -> int:
        if self.min_degree <= q <= self.max_degree:
            return self.ranks[q - self.min_degree]
        return 0

    def differential(self, q: int) -> Optional[SparseRows]:
        """Rows of d: C^q -> C^(q+1), or None when out of range."""
        i = q - self.min_degree
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        return None


@dataclass(frozen=True)
class CohomologyGroup:
    """Finite abelian p-group presented by its elementary divisors.

    exponents is ascending; a factor Z/p^e with e = N is indistinguishable
    from a free rank inside Z/p^N-modules and is reported via free_rank.
    """

    modulus: Modulus
    exponents: Tuple[int, ...]

    @property
    def free_rank(self) -> int:
        return sum(1 for e in self.exponents if e == self.modulus.N)

    @property
    def torsion_exponents(self) -> Tuple[int, ...]:
        return tuple(e for e in self.exponents if e < self.modulus.N)

    def is_trivial(self) -> bool:
        return not self.exponents

    def describe(self) -> str:
        if not self.exponents:
            return "0"
        p = self.modulus.p
        return " + ".join(f"Z/{p}^{e}" if e > 1 else f"Z/{p}" for e in self.exponents)


def _eliminate(
    rows: SparseRows,
    p: int,
    pN: int,
    on_pivot: Optional[Callable[[int, Dict[int, int]], None]] = None,
) -> List[Tuple[int, int]]:
    """Diagonalize sparse rows over Z/p^N; (column, valuation) per pivot.

    Each step pivots on an entry of least p-adic valuation, ties going to
    the earliest remaining row and then the smallest column.  Every entry
    left is then a multiple of the pivot, so row operations clear the
    pivot column; the row operations are not recorded.  The pivot row is
    cleared by column operations, which touch no other row once its
    column is clear: column k loses t_k times the pivot column, and
    on_pivot(column, {k: t_k}) hears of them.  The rows are consumed.
    """
    active = [row for row in rows if row]
    pivots: List[Tuple[int, int]] = []
    while active:
        best = None
        for r, row in enumerate(active):
            for col, x in row.items():
                key = (_residue_valuation(x, p), r, col)
                if best is None or key < best:
                    best = key
            if best[0] == 0:
                break
        best_v, best_r, best_c = best
        prow = active.pop(best_r)
        scale = p ** best_v
        inv = pow(prow.pop(best_c) // scale, -1, pN)
        for row in active:
            b = row.pop(best_c, 0)
            if b:
                f = b // scale * inv % pN
                for col, c in prow.items():
                    x = (row.get(col, 0) - f * c) % pN
                    if x:
                        row[col] = x
                    else:
                        row.pop(col, None)
        if on_pivot is not None:
            on_pivot(best_c, {k: c // scale * inv % pN for k, c in prow.items()})
        pivots.append((best_c, best_v))
        active = [row for row in active if row]
    return pivots


def _blocks(n: int, d_out: SparseRows, image: SparseRows):
    """Split the basis of C^q into the components of the support graph.

    Two basis elements are joined when a row of d^q or a column of
    d^(q-1) touches both.  Yields (members, rows of d^q on them) per
    component, in order of least member.
    """
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        i, j = find(i), find(j)
        if i != j:
            parent[max(i, j)] = min(i, j)

    for row in d_out:
        cols = iter(row)
        first = next(cols, None)
        for j in cols:
            union(first, j)
    first_row: Dict[int, int] = {}
    for i, row in enumerate(image):
        for c in row:
            union(first_row.setdefault(c, i), i)
    members: Dict[int, List[int]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    rows: Dict[int, List[Dict[int, int]]] = {}
    for row in d_out:
        if row:
            rows.setdefault(find(next(iter(row))), []).append(row)
    for root, block in members.items():
        yield block, rows.get(root, [])


def cohomology(cx: FiniteComplex, q: int) -> CohomologyGroup:
    """H^q as an explicit finite abelian p-group.

    The basis of C^q is split into the blocks on which the complex is a
    direct sum (see _blocks); each block is done on its own, on copies of
    the rows of d^q and d^(q-1).  Eliminating d^q with minimal-valuation
    pivots puts it in diagonal form in new coordinates of C^q: a pivot of
    valuation v at e_j gives the kernel generator p^(N-v) e_j, and a column
    with no pivot gives e_j.  The column operations are replayed as the
    inverse row operations on d^(q-1), which rewrites the image in the new
    coordinates; dividing row j exactly by p^(N-v) expresses it in the
    kernel generators, and p^v on the diagonal (the augmentation by p^N)
    says that generator j has order p^v.  A second elimination reads the
    quotient: its pivot valuations are the exponents, and a row with no
    pivot is a free summand Z/p^N.  Entries stay below p^N throughout.
    """
    modulus = cx.modulus
    p, N = modulus.p, modulus.N
    pN = modulus.cardinality
    n = cx.rank(q)
    if n == 0:
        return CohomologyGroup(modulus, ())
    d_out = [dict(row) for row in cx.differential(q) or ()]
    d_in = cx.differential(q - 1)
    # row i of d^(q-1): the image's coordinates at basis element i of C^q
    image = ([dict(row) for row in d_in] if d_in is not None
             else [{} for _ in range(n)])

    def mirror(j: int, mult: Dict[int, int]) -> None:
        # column k -= t * column j of d^q is row j += t * row k of d^(q-1)
        wj = image[j]
        for k, t in mult.items():
            for c, x in image[k].items():
                y = (wj.get(c, 0) + t * x) % pN
                if y:
                    wj[c] = y
                else:
                    wj.pop(c, None)

    out: List[int] = []
    for block, rows in _blocks(n, d_out, image):
        valuation = dict(_eliminate(rows, p, pN, mirror))
        gens = []
        for i in block:
            v = valuation.get(i, N)
            scale = p ** (N - v)
            row = {}
            for c, x in image[i].items():
                if x % scale:
                    raise ArithmeticError(
                        "image does not lie in the kernel lattice; "
                        "the complex is not a complex"
                    )
                row[c] = x // scale
            if v == 0:
                continue
            if v < N:
                row[-1 - i] = p ** v
            gens.append(row)
        divisors = [v for _, v in _eliminate(gens, p, pN)]
        out.extend(v for v in divisors if v)
        out.extend([N] * (len(gens) - len(divisors)))
    return CohomologyGroup(modulus, tuple(sorted(out)))


def all_cohomology(cx: FiniteComplex) -> dict:
    return {q: cohomology(cx, q) for q in range(cx.min_degree, cx.max_degree + 1)}


# -- chain maps and cones --------------------------------------------------------


@dataclass(frozen=True)
class ChainMap:
    """Degreewise map of complexes commuting with the differentials mod p^N.

    rows[i] maps degree min_degree + i of the source into the target, held
    as the differentials of a FiniteComplex are: one sparse row per basis
    element of the target, columns below the source rank, entries residues
    in (0, p^N).
    """

    source: FiniteComplex
    target: FiniteComplex
    rows: Tuple[SparseRows, ...]

    def __post_init__(self) -> None:
        src, tgt = self.source, self.target
        if src.modulus != tgt.modulus:
            raise ValueError("chain map across different moduli")
        if (src.min_degree, src.max_degree) != (tgt.min_degree, tgt.max_degree):
            raise GradingMismatch(
                f"source degrees [{src.min_degree}, {src.max_degree}] vs "
                f"target [{tgt.min_degree}, {tgt.max_degree}]"
            )
        if len(self.rows) != len(src.ranks):
            raise ValueError("need one block of rows per degree")
        pN = src.modulus.cardinality
        for i, rows in enumerate(self.rows):
            _check_rows(rows, tgt.ranks[i], src.ranks[i], pN,
                        f"map in degree {src.min_degree + i}")
        for i in range(len(src.ranks) - 1):
            if (compose(self.rows[i + 1], src.differentials[i], pN)
                    != compose(tgt.differentials[i], self.rows[i], pN)):
                raise ValueError(
                    f"map does not commute with d at degree {src.min_degree + i}"
                )

    @property
    def blocks(self) -> Tuple[Matrix, ...]:
        """The dense matrix of each degree, for callers that multiply lists."""
        return tuple(dense(rows, n) for rows, n in zip(self.rows, self.source.ranks))


def mapping_cone(f: ChainMap) -> FiniteComplex:
    """Cone(f)^q = C^(q+1) (+) C'^q with d = [[-d, 0], [f, d']]."""
    src, tgt = f.source, f.target
    pN = src.modulus.cardinality
    lo = src.min_degree - 1
    hi = src.max_degree
    ranks = []
    for q in range(lo, hi + 1):
        ranks.append(src.rank(q + 1) + tgt.rank(q))
    diffs = []
    for q in range(lo, hi):
        cs_top = src.rank(q + 1)
        rows = [{j: pN - x for j, x in row.items()}
                for row in src.differential(q + 1) or ()]
        d_tgt = tgt.differential(q) or [{}] * tgt.rank(q + 1)
        # f.rows[q - lo] is f in degree q + 1
        for f_row, d_row in zip(f.rows[q - lo], d_tgt):
            row = dict(f_row)
            row.update((cs_top + j, x) for j, x in d_row.items())
            rows.append(row)
        diffs.append(rows)
    return FiniteComplex(
        modulus=src.modulus,
        min_degree=lo,
        ranks=tuple(ranks),
        differentials=tuple(diffs),
    )


@dataclass
class QuasiIsoReport:
    passed: bool
    failing_degree: Optional[int] = None
    detail: str = ""

    @classmethod
    def from_cone_dims(cls, min_degree: int, dims: Sequence[int]) -> "QuasiIsoReport":
        """Fails at the lowest degree, from min_degree on, with a nonzero dim."""
        for q, dim in enumerate(dims, min_degree):
            if dim:
                return cls(passed=False, failing_degree=q,
                           detail=f"cone has {dim}-dimensional mod-p "
                                  f"cohomology at degree {q}")
        return cls(passed=True)


def fp_cohomology_dims(cx: FiniteComplex) -> List[int]:
    """dim_Fp H^q(cx tensor F_p) for each degree, lowest first.

    The reduction of cx mod p is a complex over Z/p, whose cohomology
    groups have one exponent per dimension.
    """
    p = cx.modulus.p
    mod_p = FiniteComplex(
        modulus=Modulus(p, 1),
        min_degree=cx.min_degree,
        ranks=cx.ranks,
        differentials=tuple(
            [{j: x % p for j, x in row.items() if x % p} for row in d]
            for d in cx.differentials
        ),
    )
    return [len(cohomology(mod_p, q).exponents)
            for q in range(cx.min_degree, cx.max_degree + 1)]


def is_strict_quasi_iso(f: ChainMap) -> QuasiIsoReport:
    """Whether the cone of f is acyclic, i.e. f is a strict quasi-iso.

    All terms are finite free modules over Z/p^N, so acyclicity mod p is
    equivalent to acyclicity on the nose (an acyclic bounded complex of
    free modules over this local ring splits).
    """
    cone = mapping_cone(f)
    return QuasiIsoReport.from_cone_dims(cone.min_degree, fp_cohomology_dims(cone))
