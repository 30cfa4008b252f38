"""The integer product kernels against the plain Fraction arithmetic.

`LieAlgebra` keeps its structure constants as integers over one common
denominator, a `Mat` is an integer view that every operation builds
directly, `matrix_of` and `ad` work on integer rows, and elimination
takes integer rows and reads null spaces off integer reduced rows; all
must give exactly what entry-by-entry Fraction arithmetic gives, as
Fractions.  The reference functions below are that arithmetic, written
out on a dense tensor of Fraction tuples (None for a zero bracket) and
as Gauss-Jordan elimination on Fraction rows.
"""

import math
import random
from fractions import Fraction as F

import pytest

from conftest import (
    dense_draw, derived_subalgebra, doubled, so_algebra_and_rep, structure_pairs,
    unimodular_conjugate,
)
from kinsila import catalog
from kinsila.errors import JacobiError
from kinsila.exactla import Mat, Subspace, inverse, kernel, q, rank, solve
from kinsila.liecore import LieAlgebra
from kinsila.repth import Rep, hom_space


# ---------------------------------------------------------------------------
# reference: dense Fraction arithmetic

def ref_tensor(dim, pairs):
    t = [[None] * dim for _ in range(dim)]
    for (i, j), v in pairs.items():
        vv = tuple(q(x) for x in v)
        if any(vv):
            t[i][j] = vv
            t[j][i] = tuple(-x for x in vv)
    return t


def ref_bracket(t, x, y):
    n = len(t)
    out = [F(0)] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j in range(n):
            c = t[i][j]
            if c is None or not y[j]:
                continue
            f = xi * y[j]
            for m, a in enumerate(c):
                if a:
                    out[m] += f * a
    return tuple(out)


def ref_jacobi_defects(t):
    """Every violating triple i < j < k with its defect, in lexicographic
    order."""
    n = len(t)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                defect = None
                for a, bc in ((i, t[j][k]), (j, t[k][i]), (k, t[i][j])):
                    if bc is None:
                        continue
                    term = ref_bracket(t, [F(int(b == a)) for b in range(n)], bc)
                    if defect is None:
                        defect = list(term)
                    else:
                        defect = [x + y for x, y in zip(defect, term)]
                if defect is not None and any(defect):
                    yield (i, j, k), tuple(defect)


def ref_jacobi_defect(t):
    return next(ref_jacobi_defects(t), None)


def ref_killing(t):
    n = len(t)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = F(0)
            for k in range(n):
                if t[j][k] is None:
                    continue
                for m, a in enumerate(t[j][k]):
                    if a and t[i][m] is not None:
                        s += a * t[i][m][k]
            rows[i][j] = s
    return rows


def ref_matmul(a, b, cols):
    return [
        tuple(sum((F(x) * F(row_b[j]) for x, row_b in zip(row, b)), F(0))
              for j in range(cols))
        for row in a
    ]


def ref_apply(a, v):
    return tuple(sum((F(x) * F(y) for x, y in zip(row, v)), F(0)) for row in a)


def exact(entries):
    entries = list(entries)
    assert all(type(x) is F for x in entries)
    return entries


# ---------------------------------------------------------------------------
# inputs

def sl2_on_plane_pairs():
    """sl2 (h, e, f) acting on its two-dimensional module (x, y)."""
    return 5, {
        (0, 1): (0, 2, 0, 0, 0),
        (0, 2): (0, 0, -2, 0, 0),
        (1, 2): (1, 0, 0, 0, 0),
        (0, 3): (0, 0, 0, 1, 0),
        (0, 4): (0, 0, 0, 0, -1),
        (1, 4): (0, 0, 0, 1, 0),
        (2, 3): (0, 0, 0, 0, 1),
    }, ((), (0, 1, 2), (3, 4))


def poincare_pairs():
    entry = catalog.make("poincare", 4)
    alg = entry.algebra
    n = alg.dim
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = alg.structure_constant(i, j)
            if any(v):
                pairs[(i, j)] = v
    labels = alg.labels
    roles = (
        (labels.index(entry.z_label),),
        tuple(labels.index(x) for x in entry.s_labels),
        tuple(labels.index(x) for x in entry.p_labels),
    )
    return n, pairs, roles


def rebase(n, pairs, roles, rng):
    """Constants after a role-preserving change of basis: Z scaled by
    lam in {+-2, +-3}, each of s and P mixed by a permuted triangular block
    with entries in {-1, 0, 1} and diagonal in {1, 2}, so the new
    constants have mixed denominators."""
    cols = [[F(0)] * n for _ in range(n)]
    for z in roles[0]:
        cols[z][z] = F(rng.choice((2, 3)) * rng.choice((1, -1)))
    for idx in roles[1:]:
        k = len(idx)
        perm = list(range(k))
        rng.shuffle(perm)
        for a in range(k):
            for b in range(k):
                pa, pb = perm[a], perm[b]
                if pa == pb:
                    x = rng.choice((1, 2))
                else:
                    x = rng.randint(-1, 1) if pb < pa else 0
                cols[idx[b]][idx[a]] = F(x)
    minv = inverse(Mat(list(zip(*cols)))).entries
    t = ref_tensor(n, pairs)
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = ref_apply(minv, ref_bracket(t, cols[a], cols[b]))
            if any(w):
                out[(a, b)] = w
    return out


def rand_vector(rng, n):
    """Mixed denominators, plain ints and zeros in one vector."""
    return tuple(
        rng.choice((0, F(0), rng.randint(-3, 3),
                    F(rng.randint(-5, 5), rng.randint(1, 7))))
        for _ in range(n)
    )


def vectors(rng, n):
    yield (0,) * n
    yield (F(0),) * n
    yield tuple(rng.randint(-2, 2) for _ in range(n))
    for _ in range(6):
        yield rand_vector(rng, n)


# ---------------------------------------------------------------------------

def algebras(rng):
    for (n, pairs, roles), draws in ((sl2_on_plane_pairs(), 3), (poincare_pairs(), 1)):
        yield n, pairs
        for _ in range(draws):
            yield n, rebase(n, pairs, roles, rng)


def test_lie_algebra_kernels_match_fraction_arithmetic_seeded():
    rng = random.Random(4411)
    denominators = set()
    for n, pairs in algebras(rng):
        alg = LieAlgebra(n, pairs)
        t = ref_tensor(n, pairs)
        denominators |= {x.denominator for row in pairs.values() for x in map(q, row)}
        for i in range(n):
            for j in range(n):
                got = alg.structure_constant(i, j)
                assert exact(got) == list(t[i][j] or (F(0),) * n)
        assert alg.jacobi_defect() is None and ref_jacobi_defect(t) is None
        got = alg.killing_form()
        assert [exact(r) for r in got.entries] == ref_killing(t)
        vs = list(vectors(rng, n))
        for x in vs:
            for y in rng.sample(vs, 3):
                assert exact(alg.bracket(x, y)) == list(ref_bracket(t, x, y))
    # the draws did reach non-integer constants
    assert denominators - {1}


def test_jacobi_violations_match_fraction_arithmetic_seeded():
    rng = random.Random(5023)
    cases = [(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0), (1, 2): (0, 1, 0)})]
    n, pairs, roles = sl2_on_plane_pairs()
    for _ in range(12):
        bad = dict(rebase(n, pairs, roles, rng))
        key = rng.choice(sorted(bad))
        v = list(bad[key])
        v[rng.randrange(n)] += F(rng.choice((1, -2, 3)), rng.choice((1, 3, 4)))
        bad[key] = tuple(v)
        cases.append((n, bad))
    violations = 0
    for n, bad in cases:
        want = ref_jacobi_defect(ref_tensor(n, bad))
        if want is None:
            assert LieAlgebra(n, bad).jacobi_defect() is None
            continue
        violations += 1
        with pytest.raises(JacobiError) as exc:
            LieAlgebra(n, bad)
        assert (exc.value.triple, exc.value.defect) == want
        exact(exc.value.defect)
    assert violations >= 10


def perturbed_sum(rng, first, second, count):
    """(n, pairs): the direct sum of the algebras first and second, with
    `count` constants of second's brackets moved, each by a small or a
    70-bit Fraction, and the basis then shuffled.  Every violation lies
    in second, so the first one has a random smallest index, after
    indices that have nonzero products whose sums vanish."""
    n0, n = first.dim, first.dim + second.dim
    pairs = {ij: tuple(v) + (0,) * second.dim for ij, v in structure_pairs(first).items()}
    pairs.update({(n0 + i, n0 + j): (0,) * n0 + tuple(v)
                  for (i, j), v in structure_pairs(second).items()})
    for _ in range(count):
        i, j = sorted(rng.sample(range(n0, n), 2))
        v = list(pairs.get((i, j), (0,) * n))
        v[rng.randrange(n0, n)] += F(rng.choice((1, -2, 3, -(2 ** 70) - 1)), rng.choice((1, 2, 5)))
        pairs[(i, j)] = tuple(v)
    perm = rng.sample(range(n), n)
    shuffled = {}
    for (i, j), v in pairs.items():
        w = [0] * n
        for m, x in enumerate(v):
            w[perm[m]] = x
        a, b = perm[i], perm[j]
        shuffled[(a, b) if a < b else (b, a)] = tuple(w) if a < b else tuple(-x for x in w)
    return n, shuffled


def assert_jacobi_matches_reference(n, pairs):
    """The constructor's JacobiError, or a clean table, as the reference
    says: the same first triple and the same defect.  Returns the
    reference's answer."""
    want = ref_jacobi_defect(ref_tensor(n, pairs))
    if want is None:
        assert LieAlgebra(n, pairs).jacobi_defect() is None
        return None
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(n, pairs)
    assert (exc.value.triple, exc.value.defect) == want
    exact(exc.value.defect)
    return want


def test_perturbed_tables_report_the_reference_triple_seeded():
    # every catalog entry at d = 1..6 and dense d = 4 draws, with one or
    # two constants moved, each after a catalog entry at d = 2
    rng = random.Random(9173)
    algebras = [catalog.make(f, d).algebra for d in range(1, 7) for f in catalog.FAMILIES]
    for family in catalog.FAMILIES:
        e = catalog.make(family, 4)
        algebras.append(dense_draw(e.algebra, e.roles(), 0)[0])
    smallest = []
    for second in algebras:
        for count in (1, 2):
            first = catalog.make(rng.choice(catalog.FAMILIES), 2).algebra
            want = assert_jacobi_matches_reference(*perturbed_sum(rng, first, second, count))
            if want is not None:
                smallest.append(want[0][0])
    # most tables violate, and most first violations come after index 0
    assert len(smallest) >= 90 and sum(i > 0 for i in smallest) >= 40


def test_several_violations_report_the_one_with_the_smallest_index():
    # poincare d = 4 with [B1, P2] and [P4, H] moved: violations at two
    # smallest indices, and at several pairs (j, k) for each
    alg = catalog.make("poincare", 4).algebra
    n, index = alg.dim, alg.labels.index
    pairs = structure_pairs(alg)
    for x, y, m in (("B1", "P2", "J1_2"), ("P4", "H", "B4")):
        i, j = sorted((index(x), index(y)))
        v = list(pairs.get((i, j), (0,) * n))
        v[index(m)] += F(-3, 2)
        pairs[(i, j)] = tuple(v)
    violations = [triple for triple, _ in ref_jacobi_defects(ref_tensor(n, pairs))]
    assert len({i for i, _, _ in violations}) >= 2
    assert len([t for t in violations if t[0] == violations[0][0]]) >= 2
    assert assert_jacobi_matches_reference(n, pairs)[0] == min(violations)


def test_valid_tables_have_no_defect():
    for d in range(1, 9):
        for family in catalog.FAMILIES:
            assert catalog.make(family, d).algebra.jacobi_defect() is None, (family, d)
    for family in catalog.FAMILIES:
        e = catalog.make(family, 6)
        assert dense_draw(e.algebra, e.roles(), 0)[0].jacobi_defect() is None, family


def rand_mat(rng, rows, cols):
    return Mat([rand_vector(rng, cols) for _ in range(rows)], cols=cols)


def test_mat_products_match_fraction_arithmetic_seeded():
    rng = random.Random(3391)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(20)]
    for r, k, c in shapes:
        a, b = rand_mat(rng, r, k), rand_mat(rng, k, c)
        got = a @ b
        assert (got.rows, got.cols) == (r, c)
        assert [exact(row) for row in got.entries] == [
            list(row) for row in ref_matmul(a.entries, b.entries, c)
        ]
        other = rand_mat(rng, r, k)
        for result, sign in ((a + other, 1), (a - other, -1)):
            assert [exact(row) for row in result.entries] == [
                [x + sign * y for x, y in zip(ra, rb)]
                for ra, rb in zip(a.entries, other.entries)
            ]
        for v in vectors(rng, k):
            assert exact(a.apply(v)) == list(ref_apply(a.entries, v))
    # the adjoint matrices of rebased algebras, multiplied and applied
    for n, pairs in algebras(rng):
        t = ref_tensor(n, pairs)
        ad = [
            Mat(list(zip(*[t[i][j] or (F(0),) * n for j in range(n)])))
            for i in range(n)
        ]
        for _ in range(4):
            a, b = rng.choice(ad), rng.choice(ad)
            assert [exact(row) for row in (a @ b).entries] == [
                list(row) for row in ref_matmul(a.entries, b.entries, n)
            ]
            v = rand_vector(rng, n)
            assert exact(a.apply(v)) == list(ref_apply(a.entries, v))


def ref_hom_space(rep1, rep2):
    """Intertwiners T (T rho1 = rho2 T) from dense Fraction equations."""
    d1, d2 = rep1.dim, rep2.dim
    rows = []
    for m1, m2 in zip(rep1.mats, rep2.mats):
        for r in range(d2):
            for c in range(d1):
                row = [F(0)] * (d1 * d2)
                for k in range(d1):
                    row[r * d1 + k] += m1[k, c]
                for k in range(d2):
                    row[k * d1 + c] -= m2[r, k]
                rows.append(row)
    combos = kernel(Mat(rows, cols=d1 * d2))
    return [Mat([v[r * d1:(r + 1) * d1] for r in range(d2)], cols=d1)
            for v in combos.basis]


def test_hom_space_matches_fraction_equations_seeded():
    # conjugates by triangular blocks with diagonal in {1, 2} give the
    # two modules different denominators
    rng = random.Random(2719)
    for d in (3, 4):
        _, rep = so_algebra_and_rep(d)
        conj = [rep]
        for _ in range(2):
            cols = [[F(0)] * d for _ in range(d)]
            for a in range(d):
                for b in range(a + 1):
                    cols[b][a] = F(rng.choice((1, 2)) if a == b else rng.randint(-1, 1))
            t = Mat(list(zip(*cols)))
            conj.append(Rep(rep.algebra, [t @ m @ inverse(t) for m in rep.mats]))
        for a, b in ((conj[0], conj[1]), (conj[1], conj[2]), (conj[2], conj[2])):
            got = hom_space(a, b)
            assert got == ref_hom_space(a, b) and len(got) == 1
            exact(x for row in got[0].entries for x in row)
        assert [x for m in conj[1].mats for row in m.entries for x in row
                if x.denominator > 1]


# ---------------------------------------------------------------------------
# the integer entry into elimination, against plain Fraction Gauss-Jordan

def ref_rref(rows, width):
    """Reduced echelon rows (pivot entries 1, sorted by pivot) and pivots
    of the span of the rows, by Gauss-Jordan elimination in Fractions."""
    out, pivots = [], []
    for r in rows:
        r = [F(x) for x in r]
        for b, p in zip(out, pivots):
            c = r[p]
            if c:
                r = [x - c * y for x, y in zip(r, b)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        r = [x / r[lead] for x in r]
        for k, b in enumerate(out):
            c = b[lead]
            if c:
                out[k] = [x - c * y for x, y in zip(b, r)]
        out.append(r)
        pivots.append(lead)
    order = sorted(range(len(out)), key=pivots.__getitem__)
    return [tuple(out[k]) for k in order], [pivots[k] for k in order]


def ref_null_space(basis, pivots, cols):
    """The null space read off a reduced echelon basis in Fractions: one
    vector per free column f, 1 at f and -row[f] at each row's pivot."""
    vs = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [F(0)] * cols
        v[f] = F(1)
        for row, p in zip(basis, pivots):
            if row[f]:
                v[p] = -row[f]
        vs.append(v)
    return ref_rref(vs, cols)


def ref_kernel(m):
    return ref_null_space(*ref_rref(m.entries, m.cols), m.cols)


def ref_solve(m, b):
    n = m.cols
    basis, pivots = ref_rref([row + (F(y),) for row, y in zip(m.entries, b)], n + 1)
    if n in pivots:
        return None
    x = [F(0)] * n
    for row, p in zip(basis, pivots):
        x[p] = row[n]
    return tuple(x), ref_null_space(basis, pivots, n)


def ref_inverse(m):
    n = m.rows
    ident = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
    basis, pivots = ref_rref([row + e for row, e in zip(m.entries, ident)], 2 * n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in basis]


def assert_subspace(got, want):
    basis, pivots = want
    assert got.basis == tuple(basis) and got.pivots == tuple(pivots)
    exact(x for row in got.basis for x in row)


def elimination_inputs(rng):
    """Matrices with mixed denominators: empty, all zero, full rank
    (square, wide, tall) and rank deficient."""
    yield Mat([], cols=4)
    yield Mat([[], [], []], cols=0)
    yield Mat([], cols=0)
    yield Mat.zeros(3, 4)
    for _ in range(6):
        n = rng.randint(1, 5)
        # triangular with nonzero diagonal, then its rows mixed
        tri = [[F(rng.randint(1, 4), rng.randint(1, 3)) if i == j
                else rand_vector(rng, 1)[0] if j > i else 0 for j in range(n)]
               for i in range(n)]
        yield Mat(tri)
        yield Mat(tri).transpose()
    for _ in range(16):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(1, min(r, c))
        # rank at most k: a product through k dimensions
        yield rand_mat(rng, r, k) @ rand_mat(rng, k, c)
        yield rand_mat(rng, r, c)


def test_kernel_and_rank_match_fraction_elimination_seeded():
    rng = random.Random(6121)
    for m in elimination_inputs(rng):
        assert_subspace(kernel(m), ref_kernel(m))
        assert rank(m) == len(ref_rref(m.entries, m.cols)[0])


def test_solve_matches_fraction_elimination_seeded():
    rng = random.Random(6122)
    consistent = inconsistent = 0
    for m in elimination_inputs(rng):
        x0 = rand_vector(rng, m.cols)
        for b in (m.apply(x0), rand_vector(rng, m.rows)):
            got, want = solve(m, b), ref_solve(m, b)
            if want is None:
                inconsistent += 1
                assert got is None
                continue
            consistent += 1
            assert got.particular == want[0]
            exact(got.particular)
            assert_subspace(got.kernel, want[1])
    assert consistent > 20 and inconsistent > 10


def test_inverse_matches_fraction_elimination_seeded():
    rng = random.Random(6123)
    inverted = singular = 0
    for m in elimination_inputs(rng):
        if not m.is_square():
            continue
        want = ref_inverse(m)
        if want is None:
            singular += 1
            with pytest.raises(ValueError):
                inverse(m)
            continue
        inverted += 1
        got = inverse(m)
        assert [exact(row) for row in got.entries] == [list(row) for row in want]
    assert inverted > 5 and singular > 2


def ref_hom_space_fractions(rep1, rep2):
    """Intertwiners from dense Fraction equations for every basis element,
    solved by Fraction Gauss-Jordan elimination."""
    d1, d2 = rep1.dim, rep2.dim
    rows = []
    for m1, m2 in zip(rep1.mats, rep2.mats):
        for r in range(d2):
            for c in range(d1):
                row = [F(0)] * (d1 * d2)
                for k in range(d1):
                    row[r * d1 + k] += m1[k, c]
                for k in range(d2):
                    row[k * d1 + c] -= m2[r, k]
                rows.append(row)
    basis, _ = ref_kernel(Mat(rows, cols=d1 * d2))
    return [Mat([v[r * d1:(r + 1) * d1] for r in range(d2)], cols=d1)
            for v in basis]


def test_hom_space_matches_fraction_elimination_seeded():
    rng = random.Random(6124)
    for d in (3, 4):
        _, rep = so_algebra_and_rep(d)
        dual = Rep(rep.algebra, [-m.transpose() for m in rep.mats])
        modules = [rep, dual] + [unimodular_conjugate(rep, rng)[0] for _ in range(2)]
        if d == 3:
            modules.append(doubled(rep))
        for a in modules:
            for b in modules:
                got = hom_space(a, b)
                assert got == ref_hom_space_fractions(a, b)
                exact(x for t in got for row in t.entries for x in row)


def test_bracket_span_matches_fraction_brackets_seeded():
    rng = random.Random(6125)
    for n, pairs in algebras(rng):
        alg = LieAlgebra(n, pairs)
        t = ref_tensor(n, pairs)
        for _ in range(4):
            a, b = (Subspace.span(n, [rand_vector(rng, n)
                                      for _ in range(rng.randint(0, 4))])
                    for _ in range(2))
            for x, y in ((a, a), (a, b), (b, a)):
                want = Subspace.span(
                    n, [ref_bracket(t, u, v) for u in x.basis for v in y.basis]
                )
                assert alg.bracket_span(x, y) == want
        full = Subspace.full(n)
        assert alg.bracket_span(full, full) == derived_subalgebra(alg)


# ---------------------------------------------------------------------------
# the integer Mat against Fraction entries, and matrix_of and ad on top

def rand_rows(rng, rows, cols):
    """Fraction rows: all zero now and then, else sparse with negative
    entries and mixed denominators."""
    if rng.random() < 0.15:
        return [[F(0)] * cols for _ in range(rows)]
    return [
        [F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9)))
         if rng.random() < 0.6 else F(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def rows_of(m):
    return [exact(row) for row in m.entries]


def test_mat_operations_match_fraction_entries_seeded():
    rng = random.Random(5171)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(30)]
    for r, c in shapes:
        k = rng.randint(0, 4)
        a_rows, b_rows = rand_rows(rng, r, c), rand_rows(rng, r, c)
        c_rows = rand_rows(rng, c, k)
        a, b = Mat(a_rows, cols=c), Mat(b_rows, cols=c)
        assert (a.rows, a.cols) == (r, c)
        assert rows_of(a) == a_rows
        product = a @ Mat(c_rows, cols=k)
        assert (product.rows, product.cols) == (r, k)
        assert rows_of(product) == [list(row) for row in ref_matmul(a_rows, c_rows, k)]
        assert rows_of(a + b) == [[x + y for x, y in zip(u, v)] for u, v in zip(a_rows, b_rows)]
        assert rows_of(a - b) == [[x - y for x, y in zip(u, v)] for u, v in zip(a_rows, b_rows)]
        assert rows_of(-a) == [[-x for x in u] for u in a_rows]
        for f in (F(0), 0, F(-3, 4), F(5), -1, F(2, 7)):
            assert rows_of(a.scale(f)) == [[f * x for x in u] for u in a_rows]
        t = a.transpose()
        assert (t.rows, t.cols) == (c, r)
        assert rows_of(t) == [[a_rows[i][j] for i in range(r)] for j in range(c)]
        if r == c:
            assert a.trace() == sum((a_rows[i][i] for i in range(r)), F(0))
        assert a.is_zero() == (not any(x for u in a_rows for x in u))
        assert rows_of(Mat.zeros(r, c)) == [[F(0)] * c for _ in range(r)]
        assert rows_of(Mat.identity(c)) == [
            [F(int(i == j)) for j in range(c)] for i in range(c)
        ]
        assert Mat.identity(c).trace() == c


def test_mat_equality_and_hash_follow_fraction_entries_seeded():
    rng = random.Random(8837)
    for _ in range(40):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        a_rows, b_rows = rand_rows(rng, r, k), rand_rows(rng, k, c)
        a, b = Mat(a_rows, cols=k), Mat(b_rows, cols=c)
        want = [list(row) for row in ref_matmul(a_rows, b_rows, c)]
        p = a @ b
        routes = [
            Mat(p.entries, cols=c),
            Mat(want, cols=c),
            Mat([[x.numerator if x.denominator == 1 else x for x in row]
                 for row in want], cols=c),
            p.transpose().transpose(),
            -(-p),
            a.scale(2) @ b.scale(F(1, 2)),
            p + Mat.zeros(r, c),
            p - Mat.zeros(r, c),
            p.scale(F(-2, 3)).scale(F(-3, 2)),
        ]
        for m in routes:
            assert rows_of(m) == want
            assert m == p and hash(m) == hash(p)
        # a different Fraction entry gives a different matrix
        if r and c:
            i, j = rng.randrange(r), rng.randrange(c)
            moved = [list(row) for row in want]
            moved[i][j] += F(1, rng.choice((1, 2, 5)))
            assert Mat(moved, cols=c) != p
        zero = p - p
        assert zero == Mat.zeros(r, c) == p.scale(0)
        assert hash(zero) == hash(Mat.zeros(r, c))
    assert Mat([], cols=3) != Mat([], cols=2)
    assert Mat([[], [], []], cols=0) != Mat([[], []], cols=0)


def ref_matrix_of(space, f):
    """The matrix of f on space by Fraction arithmetic: the coordinates
    of f(b) are its entries at the pivots, checked by recombining."""
    cols = []
    for b in space.basis:
        image = list(f(b))
        coords = [image[p] for p in space.pivots]
        back = [
            sum((x * row[j] for x, row in zip(coords, space.basis)), F(0))
            for j in range(space.ambient_dim)
        ]
        if back != image:
            return None
        cols.append(coords)
    return [[col[i] for col in cols] for i in range(space.dim)]


def check_matrix_of(space, m, f):
    """matrix_of(m) against the reference for f; True when invariant."""
    want = ref_matrix_of(space, f)
    got = space.matrix_of(m)
    if want is None:
        assert got is None
        return False
    assert (got.rows, got.cols) == (space.dim, space.dim)
    assert rows_of(got) == want
    return True


def test_ad_and_its_matrix_on_subspaces_match_fraction_brackets_seeded():
    rng = random.Random(4409)
    outcomes = []
    for n, pairs in algebras(rng):
        alg = LieAlgebra(n, pairs)
        t = ref_tensor(n, pairs)
        full = Subspace.full(n)
        derived = derived_subalgebra(alg)
        for x in vectors(rng, n):
            # ad x from x times the lcm of its denominators
            dx = math.lcm(*(F(c).denominator for c in x))
            ad = alg._integer_ad([int(F(c) * dx) for c in x], dx)
            assert rows_of(ad) == [
                [ref_bracket(t, x, e)[i] for e in full.basis] for i in range(n)
            ]
            # ideals are invariant under every ad x; random lines and
            # planes mostly are not
            spaces = [full, derived, Subspace.zero(n)]
            spaces += [Subspace.span(n, [rand_vector(rng, n)
                                         for _ in range(rng.randint(1, 2))])
                       for _ in range(2)]
            for space in spaces:
                outcomes.append(
                    check_matrix_of(space, ad, lambda v: ref_bracket(t, x, v))
                )
            for space in spaces[:3]:
                assert space.matrix_of(ad) is not None
    assert outcomes.count(False) >= 20


def test_matrix_of_a_matrix_matches_fraction_arithmetic_seeded():
    rng = random.Random(1597)
    outcomes = []
    for _ in range(25):
        n = rng.randint(1, 5)
        m_rows = rand_rows(rng, n, n)
        m = Mat(m_rows, cols=n)
        v = rand_vector(rng, n)
        # invariant: ker m, ker (m - 1/2), the span of v, m v, m^2 v, ...
        krylov = [v]
        for _ in range(n):
            krylov.append(m.apply(krylov[-1]))
        invariant = [
            kernel(m),
            kernel(m - Mat.identity(n).scale(F(1, 2))),
            Subspace.span(n, krylov),
            Subspace.full(n),
        ]
        others = [Subspace.span(n, [rand_vector(rng, n)]) for _ in range(2)]
        for space in invariant + others:
            ok = check_matrix_of(space, m, lambda u: ref_apply(m_rows, u))
            assert ok or space in others
            outcomes.append(ok)
        # W W^T R + 1/3 maps Q^n into W plus the identity, so it preserves
        # W; W's echelon rows have pivot entries of different sizes
        w = Subspace.span(n, [rand_vector(rng, n) for _ in range(rng.randint(1, 3))])
        w_rows = [[b[i] for b in w.basis] for i in range(n)]
        r_rows = rand_rows(rng, w.dim, n)
        wr_rows = [list(row) for row in ref_matmul(w_rows, r_rows, n)]
        for i in range(n):
            wr_rows[i][i] += F(1, 3)
        assert check_matrix_of(w, Mat(wr_rows, cols=n), lambda u: ref_apply(wr_rows, u))
        with pytest.raises(ValueError):
            Subspace.full(n + 1).matrix_of(m)
    assert outcomes.count(False) >= 10
