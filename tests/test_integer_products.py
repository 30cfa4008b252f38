"""The integer product kernels against the plain Fraction arithmetic.

`LieAlgebra` keeps its structure constants as integers over one common
denominator, `Mat` multiplies through an integer view, and elimination
takes integer rows and reads null spaces off integer reduced rows; all
must give exactly what entry-by-entry Fraction arithmetic gives, as
Fractions.  The reference functions below are that arithmetic, written
out on a dense tensor of Fraction tuples (None for a zero bracket) and
as Gauss-Jordan elimination on Fraction rows.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import doubled, so_algebra_and_rep, unimodular_conjugate
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


def ref_jacobi_defect(t):
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
                    return (i, j, k), tuple(defect)
    return None


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
    minv = inverse(Mat.from_cols(cols)).entries
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
            Mat.from_cols([t[i][j] or (F(0),) * n for j in range(n)])
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
            t = Mat.from_cols(cols)
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
        assert alg.bracket_span(full, full) == alg.derived_subalgebra()
