"""Smith normal form and Z/p^N cohomology against independent oracles."""

import copy
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prism_forge.padic import Modulus
from prism_forge.homology import (
    ChainMap,
    FiniteComplex,
    GradingMismatch,
    all_cohomology,
    cohomology,
    dense,
    fp_cohomology_dims,
    identity_matrix,
    is_strict_quasi_iso,
    mapping_cone,
    smith_normal_form,
    zero_matrix,
)

from oracles import (
    det_int,
    fp_rank,
    kernel_basis_mod_prime_power,
    mat_mul,
    minors_gcd_divisors,
    snf_cohomology,
    sparse,
)

STALL_DATA = Path(__file__).parent / "data" / "snf_stall_complex.json"


# -- Smith normal form ---------------------------------------------------------


class TestSmithNormalForm:
    def test_small_frozen(self):
        dec = smith_normal_form([[1, 2], [3, 4]])
        assert dec.divisors == [1, 2]
        dec = smith_normal_form([[4, 0], [0, 6]])
        assert dec.divisors == [2, 12]

    def test_identity_and_zero(self):
        assert smith_normal_form(identity_matrix(3)).divisors == [1, 1, 1]
        assert smith_normal_form(zero_matrix(2, 3)).divisors == [0, 0]

    def test_empty_shapes(self):
        dec = smith_normal_form([], rows=0, cols=3)
        assert dec.divisors == []
        assert dec.V == identity_matrix(3)
        dec = smith_normal_form([[], [], []], rows=3, cols=0)
        assert dec.divisors == []

    def test_deterministic(self):
        a = [[6, 4, 2], [2, 8, 10], [4, 2, 6]]
        d1 = smith_normal_form(a)
        d2 = smith_normal_form(a)
        assert d1.S == d2.S and d1.U == d2.U and d1.V == d2.V

    def test_random_against_minors_oracle(self):
        rng = random.Random(31415)
        for trial in range(200):
            r = rng.randrange(1, 6)
            c = rng.randrange(1, 7)
            a = [[rng.randrange(-20, 21) for _ in range(c)] for _ in range(r)]
            dec = smith_normal_form(a)
            # decomposition actually holds
            assert mat_mul(mat_mul(dec.U, a), dec.V) == dec.S
            # transforms are inverse pairs and unimodular
            assert mat_mul(dec.U, dec.Uinv) == identity_matrix(r)
            assert mat_mul(dec.V, dec.Vinv) == identity_matrix(c)
            assert det_int(dec.U) in (1, -1)
            assert det_int(dec.V) in (1, -1)
            # diagonal, nonnegative, chained
            for i in range(r):
                for j in range(c):
                    if i != j:
                        assert dec.S[i][j] == 0
            divs = dec.divisors
            assert all(d >= 0 for d in divs)
            for x, y in zip(divs, divs[1:]):
                if x:
                    assert y % x == 0
                else:
                    assert y == 0
            assert divs == minors_gcd_divisors(a)


# -- kernels mod p^N --------------------------------------------------------------


def brute_kernel(a, modulus, n):
    pN = modulus.cardinality
    out = []
    for x in itertools.product(range(pN), repeat=n):
        if all(sum(r * v for r, v in zip(row, x)) % pN == 0 for row in a):
            out.append(x)
    return out


class TestKernelBasis:
    def test_single_scale(self):
        basis, exps = kernel_basis_mod_prime_power([[3]], Modulus(3, 3))
        assert exps == [2]
        assert basis == [[9]]

    @pytest.mark.parametrize("p,N", [(2, 2), (3, 2), (2, 3)])
    def test_brute_force_count(self, p, N):
        rng = random.Random(100 * p + N)
        modulus = Modulus(p, N)
        for _ in range(20):
            a = [[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)]
            basis, exps = kernel_basis_mod_prime_power(a, modulus)
            kern = brute_kernel(a, modulus, 2)
            assert len(kern) == p ** sum(modulus.N - e for e in exps)
            pN = modulus.cardinality
            for j in range(2):
                col = [basis[0][j], basis[1][j]]
                assert all(
                    sum(r * v for r, v in zip(row, col)) % pN == 0 for row in a
                )

    def test_generators_are_residues(self):
        # the stall complex's matrices have entries of up to 705 bits
        data = json.loads(STALL_DATA.read_text())
        modulus = Modulus(data["p"], data["N"])
        pN = modulus.cardinality
        for a, n in zip(data["differentials"], data["ranks"]):
            basis, _ = kernel_basis_mod_prime_power(a, modulus, cols=n)
            assert all(0 <= x < pN for row in basis for x in row)
            for j in range(n):
                col = [row[j] for row in basis]
                assert all(sum(r * v for r, v in zip(row, col)) % pN == 0 for row in a)


# -- cohomology --------------------------------------------------------------------


def two_term(modulus, matrix, r0, r1):
    return FiniteComplex(
        modulus=modulus, min_degree=0, ranks=(r0, r1),
        differentials=(sparse(matrix, modulus.cardinality),),
    )


class TestCohomology:
    def test_zero_differential_is_free(self):
        cx = two_term(Modulus(3, 2), zero_matrix(2, 2), 2, 2)
        h0 = cohomology(cx, 0)
        assert h0.exponents == (2, 2)
        assert h0.free_rank == 2
        assert h0.torsion_exponents == ()

    @pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (5, 2)])
    def test_multiplication_by_p(self, p, N):
        cx = two_term(Modulus(p, N), [[p]], 1, 1)
        assert cohomology(cx, 0).exponents == (1,)
        assert cohomology(cx, 1).exponents == (1,)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_multiplication_by_p_power(self, k):
        p, N = 3, 3
        cx = two_term(Modulus(p, N), [[p ** k]], 1, 1)
        want = (min(k, N),)
        assert cohomology(cx, 0).exponents == want
        assert cohomology(cx, 1).exponents == want

    def test_three_term_frozen(self):
        # 0 -> R -(p,p)-> R^2 -(p,-p)-> R -> 0
        p, N = 2, 3
        cx = FiniteComplex(
            modulus=Modulus(p, N),
            min_degree=0,
            ranks=(1, 2, 1),
            differentials=(sparse([[p], [p]], p ** N), sparse([[p, -p]], p ** N)),
        )
        # ker in degree 0 is {x : 2x = 0 and 2x = 0 mod 8} = 4Z/8
        assert cohomology(cx, 0).exponents == (1,)
        assert cohomology(cx, 1).exponents == (1, 1)
        assert cohomology(cx, 2).exponents == (1,)

    def test_derham_line_matrix_model(self):
        # C^0 spanned by 1..x^D, C^1 by dx..x^(D-1)dx, d(x^n) = p*n*x^(n-1)
        p, N, D = 3, 3, 9
        rows = []
        for i in range(D):
            rows.append([p * (i + 1) if j == i + 1 else 0 for j in range(D + 1)])
        cx = two_term(Modulus(p, N), rows, D + 1, D)

        def vp(n):
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return k

        want_h1 = tuple(sorted(min(N, 1 + vp(n)) for n in range(1, D + 1)))
        assert cohomology(cx, 1).exponents == want_h1
        want_h0 = tuple(sorted([N] + [min(N, 1 + vp(n)) for n in range(1, D + 1)]))
        assert cohomology(cx, 0).exponents == want_h0

    def test_rejects_non_complex(self):
        with pytest.raises(ValueError):
            FiniteComplex(
                modulus=Modulus(2, 2),
                min_degree=0,
                ranks=(1, 1, 1),
                differentials=([{0: 1}], [{0: 1}]),
            )


def brute_group_exponents(d_in, d_out, modulus, n):
    """Elementary divisor exponents of ker(d_out)/im(d_in) by counting."""
    p, N = modulus.p, modulus.N
    pN = modulus.cardinality
    kernel = brute_kernel(d_out, modulus, n) if d_out is not None else [
        x for x in itertools.product(range(pN), repeat=n)
    ]
    kernel_set = set(kernel)
    image = set()
    m = len(d_in[0]) if (d_in and d_in[0] is not None) else 0
    if d_in is None or m == 0:
        image = {tuple([0] * n)}
    else:
        for y in itertools.product(range(pN), repeat=m):
            image.add(
                tuple(sum(r * v for r, v in zip(row, y)) % pN for row in d_in)
            )
    assert image <= kernel_set
    import math

    def logp(k):
        e = 0
        while k > 1:
            assert k % p == 0
            k //= p
            e += 1
        return e

    counts = []
    for j in range(N + 1):
        c = sum(
            1
            for x in kernel
            if tuple((v * p ** j) % pN for v in x) in image
        )
        assert c % len(image) == 0
        counts.append(logp(c // len(image)))
    exps = []
    for j in range(1, N + 1):
        # number of elementary divisors with exponent >= j
        exps.append(counts[j] - counts[j - 1])
    out = []
    for j in range(N, 0, -1):
        at_least_j = exps[j - 1]
        longer = exps[j] if j < N else 0
        out.extend([j] * (at_least_j - longer))
    return tuple(sorted(out))


class TestCohomologyBruteForce:
    @pytest.mark.parametrize("p,N", [(2, 2), (3, 2)])
    def test_random_complexes(self, p, N):
        rng = random.Random(7 * p + N)
        modulus = Modulus(p, N)
        pN = modulus.cardinality
        for _ in range(15):
            d0 = [[rng.randrange(0, pN) for _ in range(2)] for _ in range(2)]
            # rows of d1 must kill d0: pick them in the kernel of d0^T
            d0t = [[d0[j][i] for j in range(2)] for i in range(2)]
            basis, _ = kernel_basis_mod_prime_power(d0t, modulus)
            r1 = []
            for _ in range(2):
                c1, c2 = rng.randrange(0, pN), rng.randrange(0, pN)
                r1.append(
                    [
                        (c1 * basis[0][0] + c2 * basis[0][1]),
                        (c1 * basis[1][0] + c2 * basis[1][1]),
                    ]
                )
            cx = FiniteComplex(
                modulus=modulus,
                min_degree=0,
                ranks=(2, 2, 2),
                differentials=(sparse(d0, pN), sparse(r1, pN)),
            )
            want = brute_group_exponents(d0, r1, modulus, 2)
            assert cohomology(cx, 1).exponents == want


# -- local elimination against the integer Smith form --------------------------------


@st.composite
def random_complexes(draw, p=None, N=None, length=None, min_degree=None):
    """A complex over Z/p^N built from the top differential down.

    The top differential is sparse and random, scaled by p^k (k up to N,
    so some blocks have no unit entry and some vanish); each lower one
    has its columns in the kernel lattice of the one above, as random
    combinations of the generators kernel_basis_mod_prime_power gives.
    Every entry is then moved by a random multiple of p^N, so the
    kernel generators are computed from entries that may be negative or
    at least p^N; the complex holds them reduced.  Ranks may be 0.
    """
    p = draw(st.sampled_from((2, 3, 5))) if p is None else p
    N = draw(st.integers(1, 4)) if N is None else N
    length = draw(st.integers(1, 4)) if length is None else length
    min_degree = draw(st.integers(-1, 1)) if min_degree is None else min_degree
    modulus = Modulus(p, N)
    pN = p ** N
    ranks = draw(st.lists(st.integers(0, 6), min_size=length, max_size=length))
    coeff = st.one_of(st.just(0), st.integers(0, pN - 1))

    def matrix(rows, cols, entries):
        flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return [flat[r * cols:(r + 1) * cols] for r in range(rows)]

    def shifted(m):
        shifts = matrix(len(m), len(m[0]) if m else 0, st.integers(-2, 2))
        return [[x + pN * s for x, s in zip(row, srow)] for row, srow in zip(m, shifts)]

    diffs = []
    if length > 1:
        scale = p ** draw(st.integers(0, N))
        top = matrix(ranks[-1], ranks[-2], coeff)
        diffs.append(shifted([[x * scale for x in row] for row in top]))
        for i in range(length - 3, -1, -1):
            basis, _ = kernel_basis_mod_prime_power(diffs[0], modulus, cols=ranks[i + 1])
            combo = matrix(ranks[i + 1], ranks[i], coeff)
            diffs.insert(0, shifted(mat_mul(basis, combo, inner=ranks[i + 1])))
    return FiniteComplex(modulus, min_degree, tuple(ranks),
                         tuple(sparse(d, pN) for d in diffs))


@st.composite
def shuffled_direct_sums(draw):
    """Two complexes of one shape and their direct sum, bases interleaved."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(1, 4))
    length = draw(st.integers(1, 4))
    a, b = (draw(random_complexes(p, N, length, 0)) for _ in range(2))
    perms = [draw(st.permutations(range(ra + rb))) for ra, rb in zip(a.ranks, b.ranks)]
    diffs = []
    for i, (da, db) in enumerate(zip(a.differentials, b.differentials)):
        d = [{} for _ in perms[i + 1]]
        for off_r, off_c, part in ((0, 0, da), (a.ranks[i + 1], a.ranks[i], db)):
            for r, row in enumerate(part):
                for c, x in row.items():
                    d[perms[i + 1][off_r + r]][perms[i][off_c + c]] = x
        diffs.append(d)
    ranks = tuple(len(perm) for perm in perms)
    return a, b, FiniteComplex(a.modulus, 0, ranks, tuple(diffs))


def stall_complex():
    """The complex on which the Smith-form oracle once ran for minutes.

    Drawn by random_complexes under --hypothesis-seed=1 while the kernel
    generators were not yet reduced mod p^N.  The data file keeps the
    entries as drawn, of up to 705 bits, which the oracle's second Smith
    pass at degree -1 grew to tens of thousands of bits.  A FiniteComplex
    holds residues, so they enter reduced mod p^N.
    """
    data = json.loads(STALL_DATA.read_text())
    modulus = Modulus(data["p"], data["N"])
    return FiniteComplex(
        modulus, data["min_degree"], tuple(data["ranks"]),
        tuple(sparse(d, modulus.cardinality) for d in data["differentials"]),
    )


class TestCohomologyAgainstSmithForm:
    @settings(max_examples=300, deadline=None)
    @given(random_complexes())
    @example(stall_complex())
    def test_exponents_match(self, cx):
        for q in range(cx.min_degree - 1, cx.max_degree + 2):
            assert cohomology(cx, q).exponents == snf_cohomology(cx, q).exponents

    @settings(max_examples=150, deadline=None)
    @given(shuffled_direct_sums())
    def test_direct_sum_is_union(self, sums):
        a, b, total = sums
        for q in range(total.min_degree, total.max_degree + 1):
            want = tuple(sorted(cohomology(a, q).exponents + cohomology(b, q).exponents))
            assert cohomology(total, q).exponents == want

    @settings(max_examples=150, deadline=None)
    @given(random_complexes(length=3), st.data())
    def test_rejects_image_outside_kernel(self, cx, data):
        # d o d was checked at construction; spoil d^0 in place afterwards
        if not cx.ranks[0] or not cx.ranks[1]:
            return
        d0, d1 = cx.differentials
        pN = cx.modulus.cardinality
        r = data.draw(st.integers(0, cx.ranks[1] - 1))
        c = data.draw(st.integers(0, cx.ranks[0] - 1))
        d0[r][c] = (d0[r].get(c, 0) + data.draw(st.integers(1, pN - 1))) % pN
        if not d0[r][c]:
            del d0[r][c]
        broken = any(v % pN for row in mat_mul(dense(d1, cx.ranks[1]), dense(d0, cx.ranks[0]))
                     for v in row)
        q = cx.min_degree + 1
        for group in (cohomology, snf_cohomology):
            if broken:
                with pytest.raises(ArithmeticError):
                    group(cx, q)
            else:
                group(cx, q)

    def test_rejects_unit_image_under_unit_pivot(self):
        cx = FiniteComplex(Modulus(3, 2), 0, (1, 1, 1), ([{0: 3}], [{}]))
        cx.differentials[1][0][0] = 1
        with pytest.raises(ArithmeticError):
            cohomology(cx, 1)


# -- the sparse rows of a complex ------------------------------------------------------


class TestSparseDifferentials:
    @settings(max_examples=200, deadline=None)
    @given(random_complexes())
    def test_fp_dims_match_dense_ranks(self, cx):
        p = cx.modulus.p
        want = []
        for q in range(cx.min_degree, cx.max_degree + 1):
            d_out, d_in = cx.differential(q), cx.differential(q - 1)
            r_out = fp_rank(dense(d_out, cx.rank(q)), p) if d_out is not None else 0
            r_in = fp_rank(dense(d_in, cx.rank(q - 1)), p) if d_in is not None else 0
            want.append(cx.rank(q) - r_out - r_in)
        assert fp_cohomology_dims(cx) == want

    @pytest.mark.parametrize("ranks,diffs,match", [
        ((1, 2), ([{0: 1}],), "row count"),
        ((1, 1), ([{1: 1}],), "column 1 outside"),
        ((1, 1), ([{-1: 1}],), "column -1 outside"),
        ((1, 1), ([{0: 0}],), "entry 0"),
        ((1, 1), ([{0: 9}],), "entry 9"),
        ((1, 1), ([{0: -3}],), "entry -3"),
        ((1, 1, 1), ([{0: 1}], [{0: 3}]), "d o d is nonzero"),
    ], ids=["rows", "column-high", "column-negative", "zero", "p^N", "negative", "d-o-d"])
    def test_refuses(self, ranks, diffs, match):
        with pytest.raises(ValueError, match=match):
            FiniteComplex(Modulus(3, 2), 0, ranks, diffs)

    @settings(max_examples=100, deadline=None)
    @given(random_complexes())
    def test_cohomology_leaves_differentials_alone(self, cx):
        before = copy.deepcopy(cx.differentials)
        first = all_cohomology(cx)
        assert all_cohomology(cx) == first
        assert cx.differentials == before

    @settings(max_examples=100, deadline=None)
    @given(random_complexes(), st.integers(-30, 30))
    def test_cone_is_the_block_matrix(self, cx, c):
        # Cone(c * id)^q = C^(q+1) + C^q with d = [[-d, 0], [c, d]], densely
        pN = cx.modulus.cardinality
        f = ChainMap(cx, cx, tuple(
            sparse([[c if i == j else 0 for j in range(n)] for i in range(n)], pN)
            for n in cx.ranks
        ))
        cone = mapping_cone(f)
        for q in range(cone.min_degree, cone.max_degree):
            top, bot = cx.rank(q + 2), cx.rank(q + 1)
            left, right = cx.rank(q + 1), cx.rank(q)
            want = zero_matrix(top + bot, left + right)
            d_top, d_bot = cx.differential(q + 1), cx.differential(q)
            for i in range(top):
                for j in range(left):
                    want[i][j] = -dense(d_top, left)[i][j] % pN
            for i in range(bot):
                want[top + i][i] = c % pN
                for j in range(right):
                    want[top + i][left + j] = dense(d_bot, right)[i][j]
            assert dense(cone.differential(q), left + right) == want

    @pytest.mark.parametrize("rows,match", [
        (([{0: 1}, {}], [{0: 1}]), "row count"),
        (([{1: 1}], [{0: 1}]), "column 1 outside"),
        (([{-1: 1}], [{0: 1}]), "column -1 outside"),
        (([{0: 0}], [{0: 1}]), "entry 0"),
        (([{0: 9}], [{0: 1}]), "entry 9"),
        (([{0: -3}], [{0: 1}]), "entry -3"),
        (([{0: 1}], [{0: 2}]), "does not commute"),
    ], ids=["rows", "column-high", "column-negative", "zero", "p^N", "negative",
            "commute"])
    def test_chain_map_refuses(self, rows, match):
        cx = FiniteComplex(Modulus(3, 2), 0, (1, 1), ([{0: 3}],))
        with pytest.raises(ValueError, match=match):
            ChainMap(cx, cx, rows)


# -- chain maps, cones, quasi-isomorphisms ------------------------------------------


class TestQuasiIso:
    def test_identity_is_quasi_iso(self):
        cx = FiniteComplex(
            modulus=Modulus(3, 2),
            min_degree=0,
            ranks=(1, 2, 1),
            differentials=(sparse([[3], [3]], 9), sparse([[3, -3]], 9)),
        )
        f = ChainMap(cx, cx, (sparse(identity_matrix(1), 9), sparse(identity_matrix(2), 9),
                              sparse(identity_matrix(1), 9)))
        report = is_strict_quasi_iso(f)
        assert report.passed
        assert all(g.is_trivial() for g in all_cohomology(mapping_cone(f)).values())

    def test_multiplication_by_p_is_not(self):
        p = 3
        cx = two_term(Modulus(p, 2), zero_matrix(1, 1), 1, 1)
        f = ChainMap(cx, cx, (sparse([[p]], 9), sparse([[p]], 9)))
        report = is_strict_quasi_iso(f)
        assert not report.passed
        assert report.failing_degree is not None
        # the full computation agrees with the mod-p shortcut
        assert not all(g.is_trivial() for g in all_cohomology(mapping_cone(f)).values())

    def test_acyclic_to_zero_is_quasi_iso(self):
        mod = Modulus(2, 3)
        acyclic = two_term(mod, identity_matrix(2), 2, 2)
        trivial = two_term(mod, zero_matrix(0, 0), 0, 0)
        f = ChainMap(acyclic, trivial,
                     (sparse(zero_matrix(0, 2), 8), sparse(zero_matrix(0, 2), 8)))
        assert is_strict_quasi_iso(f).passed
        assert all(g.is_trivial() for g in all_cohomology(mapping_cone(f)).values())

    def test_grading_mismatch(self):
        mod = Modulus(2, 2)
        a = two_term(mod, zero_matrix(1, 1), 1, 1)
        b = FiniteComplex(modulus=mod, min_degree=1, ranks=(1, 1),
                          differentials=(sparse(zero_matrix(1, 1), 4),))
        with pytest.raises(GradingMismatch):
            ChainMap(a, b, (sparse([[1]], 4), sparse([[1]], 4)))

    def test_rejects_non_commuting_map(self):
        mod = Modulus(3, 2)
        a = two_term(mod, [[3]], 1, 1)
        b = two_term(mod, zero_matrix(1, 1), 1, 1)
        with pytest.raises(ValueError):
            ChainMap(a, b, (sparse([[1]], 9), sparse([[1]], 9)))

    def test_cone_shape(self):
        mod = Modulus(2, 2)
        cx = two_term(mod, [[2]], 1, 1)
        f = ChainMap(cx, cx, (sparse(identity_matrix(1), 4), sparse(identity_matrix(1), 4)))
        cone = mapping_cone(f)
        assert cone.min_degree == -1
        assert cone.ranks == (1, 2, 1)
        assert fp_cohomology_dims(cone) == [0, 0, 0]


# -- F_p helpers ----------------------------------------------------------------------


class TestFpLinearAlgebra:
    def test_rank_and_nullspace(self):
        a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        p = 5
        assert fp_rank(a, p) == 2
        # the kernel of a is H^0 of the two-term complex a over F_p
        assert fp_cohomology_dims(two_term(Modulus(p, 1), a, 3, 3))[0] == 1
