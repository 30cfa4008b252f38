import ast
import math
import random
from fractions import Fraction as F
from pathlib import Path
from types import FunctionType

import pytest

from conftest import intersection, so_algebra_and_rep, unimodular_conjugate
from kinsila import exactla, kinematics, liecore, repth
from kinsila.exactla import (
    Echelon,
    Mat,
    Poly,
    Subspace,
    char_poly,
    inverse,
    is_nilpotent,
    is_semisimple,
    is_squarefree,
    kernel,
    matrix_poly,
    min_poly,
    poly_gcd,
    poly_lcm,
    poly_xgcd,
    polynomial_in,
    q,
    rank,
    sn_decomposition,
    solve,
    sqrt_rational,
    squarefree_part,
    unit_vec,
    zero_vec,
)


def echelon_of(n, rows):
    """An Echelon of width n holding the rows, each scaled to integers by
    the lcm of its denominators."""
    ech = Echelon(n)
    for v in rows:
        ech.add_integer(exactla._integer_row(v)[1])
    return ech


def rand_mat(rng, n, lo=-5, hi=5):
    return Mat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


class TestScalarsAndVectors:
    def test_q_accepts_exact_forms(self):
        assert q(3) == F(3)
        assert q("3/4") == F(3, 4)
        assert q(F(-1, 2)) == F(-1, 2)

    def test_q_rejects_float(self):
        with pytest.raises(TypeError):
            q(0.5)
        half = F(1, 2)
        assert q(half) == half and type(q(half)) is F
        for build in (
            lambda: Mat([[0.5]]),
            lambda: Subspace.span(1, [[0.5]]),
            lambda: Poly([0.5]),
            lambda: solve(Mat([[1]]), [0.5]),
        ):
            with pytest.raises(TypeError):
                build()
        with pytest.raises(TypeError):
            Mat([[half, 0.5]])
        # a row that is not all Fractions is coerced entry by entry
        for row in ([1, half, 2], [True, False, half], [True, False]):
            (got,) = Mat([row]).entries
            assert got == tuple(F(x) for x in row)
            assert all(type(x) is F for x in got)
        basis = Subspace.span(3, [(2, 0, 4), (0, 1, 3)]).basis
        assert basis == ((1, 0, 2), (0, 1, 3))
        assert all(type(x) is F for row in basis for x in row)

    def test_one_shared_zero_and_one(self):
        # the modules that import the constants
        assert kinematics._ZERO is exactla._ZERO

    def test_vector_helpers(self):
        assert unit_vec(3, 1) == (0, 1, 0)
        assert zero_vec(2) == (0, 0)


class TestMat:
    def test_sparse_paths_match_dense_reference_seeded(self):
        # at least half of each matrix is zero; shapes include 0 x n and
        # n x 0, so the sparse row view of an empty matrix is exercised too
        rng = random.Random(6061)

        def rand_sparse(rows, cols):
            out = [[0] * cols for _ in range(rows)]
            nonzero = rng.randint(0, rows * cols // 2)
            for cell in rng.sample(range(rows * cols), nonzero):
                x = F(rng.randint(1, 9), rng.randint(1, 5))
                out[cell // cols][cell % cols] = rng.choice((x, -x))
            return out

        def exact(rows, expected):
            assert [list(r) for r in rows] == expected
            assert all(type(x) is F for r in rows for x in r)

        for _ in range(240):
            n, k, m = (rng.randint(0, 5) for _ in range(3))
            a_rows, c_rows = rand_sparse(n, k), rand_sparse(n, k)
            b_rows = rand_sparse(k, m)
            a, b, c = Mat(a_rows, cols=k), Mat(b_rows, cols=m), Mat(c_rows, cols=k)
            exact(
                (a @ b).entries,
                [
                    [sum((a_rows[i][t] * b_rows[t][j] for t in range(k)), F(0))
                     for j in range(m)]
                    for i in range(n)
                ],
            )
            v = [F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5
                 else 0 for _ in range(k)]
            exact(
                [a.apply(v)],
                [[sum((a_rows[i][t] * v[t] for t in range(k)), F(0))
                  for i in range(n)]],
            )
            exact(a.transpose().entries,
                  [[a_rows[i][j] for i in range(n)] for j in range(k)])
            exact((a + c).entries,
                  [[x + y for x, y in zip(r, t)] for r, t in zip(a_rows, c_rows)])
            exact((a - c).entries,
                  [[x - y for x, y in zip(r, t)] for r, t in zip(a_rows, c_rows)])
            f = F(rng.randint(-3, 3), rng.randint(1, 3))
            exact(a.scale(f).entries, [[f * x for x in r] for r in a_rows])
            # the cached view leaves equality, hashing and reuse unchanged
            again = Mat(a_rows, cols=k)
            assert a == again and hash(a) == hash(again)
            assert (a @ b) == (again @ b)

    def test_shapes_and_product(self):
        a = Mat([[1, 2], [3, 4], [5, 6]])
        b = Mat([[1, 0, 2], [0, 1, 3]])
        p = a @ b
        assert (p.rows, p.cols) == (3, 3)
        assert p == Mat([[1, 2, 8], [3, 4, 18], [5, 6, 28]])

    def test_zero_dimensional(self):
        e = Mat([], cols=0)
        assert e.rows == 0 and e.cols == 0
        wide = Mat([[1, 2, 3]])
        tall = wide.transpose()
        assert (tall @ wide).rows == 3
        assert (wide @ tall) == Mat([[14]])

    def test_apply(self):
        m = Mat([[1, 2], [3, 4]])
        assert m.apply((1, 1)) == (3, 7)

    def test_immutability(self):
        m = Mat([[1]])
        with pytest.raises(AttributeError):
            m.rows = 5

    def test_trace_and_power(self):
        m = Mat([[1, 1], [0, 1]])
        assert m.trace() == 2
        assert m.power(5) == Mat([[1, 5], [0, 1]])
        assert m.power(0) == Mat.identity(m.rows)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Mat([[1, 2], [3]])


class TestSubspace:
    def test_canonical_equality(self):
        # same plane, two different spanning sets
        a = Subspace.span(3, [(1, 1, 0), (0, 2, 2)])
        b = Subspace.span(3, [(1, 3, 2), (2, 2, 0), (3, 5, 2)])
        assert a == b
        assert a.dim == 2

    def test_contains(self):
        s = Subspace.span(3, [(1, 0, 2), (0, 1, 3)])
        assert s.contains((2, 1, 7))
        assert s.contains((F(1, 2), F(-1, 3), 0))
        assert not s.contains((0, 0, 1))
        with pytest.raises(ValueError):
            s.contains((1, 2))

    def test_matrix_of(self):
        # the shear maps the plane z = 0 into itself and moves the z axis
        shear = Mat([[1, 1, 1], [0, 2, 0], [0, 0, 1]])
        plane = Subspace.span(3, [(1, 1, 0), (0, 1, 0)])
        m = plane.matrix_of(shear)
        assert m == Mat([[1, 1], [0, 2]])
        def vector(coords):
            # the vector with these coefficients in the plane's basis
            return tuple(sum(c * b[j] for c, b in zip(coords, plane.basis))
                         for j in range(3))

        for c in ((1, 0), (0, 1), (2, -3)):
            assert vector(m.apply(c)) == shear.apply(vector(c))
        assert Subspace.span(3, [(0, 0, 1)]).matrix_of(shear) is None
        assert Subspace.zero(3).matrix_of(shear) == Mat([], cols=0)

    def test_sum_and_intersection(self):
        xy = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
        yz = Subspace.span(3, [(0, 1, 0), (0, 0, 1)])
        assert xy.sum_with(yz).is_full()
        assert intersection(xy, yz) == Subspace.span(3, [(0, 1, 0)])
        assert intersection(xy, Subspace.zero(3)).is_zero()

    def test_direct_sum_across_disjoint_coordinates_seeded(self):
        # two subspaces living on complementary index sets: the union of
        # their rows sorted by pivot is what sum_with eliminates to
        rng = random.Random(34)
        for _ in range(200):
            n = rng.randint(1, 8)
            sign = [rng.choice((1, -1)) for _ in range(n)]
            spaces = []
            for eps in (1, -1):
                idx = [i for i in range(n) if sign[i] == eps]
                vectors = [[rng.randint(-3, 3) if i in idx else 0 for i in range(n)]
                           for _ in range(rng.randint(0, len(idx)))]
                spaces.append(Subspace.span(n, vectors))
            a, b = spaces
            assert a.direct_sum(b) == a.sum_with(b) == b.direct_sum(a)
            assert a.direct_sum(b)._support == a.sum_with(b)._support
        with pytest.raises(ValueError):
            Subspace.span(3, [(1, 1, 0)]).direct_sum(Subspace.span(3, [(0, 1, 1)]))
        with pytest.raises(ValueError):
            Subspace.span(3, [(1, 0, 0)]).direct_sum(Subspace.span(2, [(1, 0)]))

    def test_embedding_in_a_coordinate_subspace_seeded(self):
        # rows moved to the coordinate subspace's indices are the echelon
        # form that combining the basis vectors gives
        rng = random.Random(35)
        for _ in range(200):
            n = rng.randint(1, 8)
            idx = sorted(rng.sample(range(n), rng.randint(0, n)))
            coord = Subspace.coordinate(n, idx)
            sub = Subspace.span(len(idx), [[rng.randint(-3, 3) for _ in idx]
                                           for _ in range(rng.randint(0, len(idx)))])
            assert coord.embed(sub) == coord._image(sub.rows)
            assert coord.embed(sub).pivots == coord._image(sub.rows).pivots

    def test_containment_order(self):
        big = Subspace.full(3)
        small = Subspace.span(3, [(1, 2, 3)])
        assert big.contains_space(small)
        assert not small.contains_space(big)


def dense_residual(rows, pivots, v):
    """Reduction of v against echelon rows that scans every column after
    each pivot: the reference for the stored column indices."""
    w = list(v)
    for row, p in zip(rows, pivots):
        c = w[p]
        if c:
            for j in range(p, len(w)):
                if row[j]:
                    w[j] -= c * row[j]
    return w


def dense_add(rows, pivots, v):
    w = dense_residual(rows, pivots, v)
    p = next((j for j, x in enumerate(w) if x), None)
    if p is None or len(rows) == len(w):
        return None
    row = tuple(x / w[p] for x in w)
    rows.append(row)
    pivots.append(p)
    return row


def dense_subspace(rows, pivots):
    done_rows, done_pivots = [], []
    for p, row in sorted(zip(pivots, rows), key=lambda pr: -pr[0]):
        done_rows.append(tuple(dense_residual(done_rows, done_pivots, row)))
        done_pivots.append(p)
    return done_rows[::-1], done_pivots[::-1]


def dense_span(n, vectors):
    """Reduced echelon basis and pivots of the span of the vectors in Q^n,
    by the dense Fraction reduction above."""
    rows, pivots = [], []
    for v in vectors:
        assert len(v) == n
        dense_add(rows, pivots, [F(x) for x in v])
    return dense_subspace(rows, pivots)


def dense_null_vectors(basis, pivots, cols):
    out = []
    for f in range(cols):
        if f not in pivots:
            v = [F(0)] * cols
            v[f] = F(1)
            for row, p in zip(basis, pivots):
                v[p] = -row[f]
            out.append(v)
    return out


def dense_kernel(rows, cols):
    return dense_span(cols, dense_null_vectors(*dense_span(cols, rows), cols))


def dense_solve(rows, b, cols):
    basis, pivots = dense_span(cols + 1, [list(r) + [x] for r, x in zip(rows, b)])
    if cols in pivots:
        return None
    x = [F(0)] * cols
    for row, p in zip(basis, pivots):
        x[p] = row[cols]
    return tuple(x), dense_span(cols, dense_null_vectors(basis, pivots, cols))


def dense_inverse(rows):
    n = len(rows)
    basis, pivots = dense_span(2 * n, [list(r) + list(unit_vec(n, i))
                                       for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in basis]


def dense_min_poly(m):
    n = m.rows
    result = Poly.one()
    for i in range(n):
        if result.degree == n:
            break
        seed = unit_vec(n, i)
        if matrix_poly(result, m).apply(seed) == zero_vec(n):
            continue
        rows, pivots, v = [], [], seed
        for k in range(n + 1):
            row = dense_add(rows, pivots, list(v) + list(unit_vec(n + 1, k)))
            if pivots[-1] >= n:
                result = poly_lcm(result, Poly(row[n:]).monic())
                break
            v = m.apply(v)
    return result


def dense_intersect(u, w, n):
    rows = [[a[i] for a in u] + [-b[i] for b in w] for i in range(n)]
    combos, _ = dense_kernel(rows, len(u) + len(w))
    return dense_span(n, [
        [sum((c[a] * u[a][i] for a in range(len(u))), F(0)) for i in range(n)]
        for c in combos
    ])


def primitive(row):
    """The integer multiple of a nonzero rational row whose entries have
    gcd 1 and whose first nonzero entry is positive."""
    den = math.lcm(*(F(x).denominator for x in row))
    ints = [int(F(x) * den) for x in row]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def assert_nonzero_multiple(got, ref):
    """got is an int list that is zero exactly when ref is, and otherwise
    a nonzero multiple of it."""
    assert all(type(x) is int for x in got)
    if not any(ref):
        assert not any(got)
        return
    p = next(j for j, x in enumerate(ref) if x)
    k = F(got[p]) / ref[p]
    assert k and list(got) == [k * x for x in ref]


class TestEchelon:
    def test_stored_columns_match_dense_reduction_seeded(self):
        rng = random.Random(8819)

        def rand_row(n, density):
            return [F(rng.randint(-6, 6), rng.randint(1, 4))
                    if rng.random() < density else F(0) for _ in range(n)]

        def rand_rows(n, density, count):
            # some rows are combinations of the others, so not all are kept
            rows = []
            for _ in range(count):
                if rows and rng.random() < 0.3:
                    a, b = rng.choice(rows), rng.choice(rows)
                    c = F(rng.randint(-3, 3), rng.randint(1, 3))
                    rows.append([x + c * y for x, y in zip(a, b)])
                else:
                    rows.append(rand_row(n, density))
            return rows

        def exact(space):
            return all(type(x) is F for row in space.basis for x in row)

        def add_both(ech, rows, pivots, v):
            # the stored row is the primitive integer multiple, with a
            # positive pivot, of the row the dense reduction stores
            # v times the lcm of its denominators, reduced fraction-free
            den = math.lcm(*(x.denominator for x in v))
            residual = ech._reduce([int(x * den) for x in v])
            assert_nonzero_multiple(residual, dense_residual(rows, pivots, v))
            got = ech.add_integer([int(x * den) for x in v])
            want = dense_add(rows, pivots, v)
            assert (got is None) == (want is None)
            if want is not None:
                assert got == primitive(want)
                assert ech.support[-1] == tuple(
                    j for j in range(ech.pivots[-1] + 1, len(v)) if want[j]
                )

        for _ in range(150):
            n = rng.randint(1, 8)
            density = rng.choice((0.2, 0.5, 1.0))
            ech, rows, pivots = Echelon(n), [], []
            for v in rand_rows(n, density, rng.randint(0, n + 2)):
                add_both(ech, rows, pivots, v)
            assert ech.rows == [primitive(row) for row in rows]
            assert ech.pivots == pivots
            assert ech.support == [
                tuple(j for j in range(p + 1, n) if row[j])
                for row, p in zip(rows, pivots)
            ]
            basis, basis_pivots = dense_subspace(rows, pivots)
            built = ech.subspace()
            assert list(built.basis) == basis and list(built.pivots) == basis_pivots
            assert exact(built)
            # a Subspace is its integer rows: one spanned again from the
            # Fraction basis and `built`, which holds the rows Echelon
            # handed over, must extend alike
            bare = Subspace.span(n, built.basis)
            more = rand_rows(n, density, rng.randint(0, 3))
            for space in (built, bare):
                ext = space.echelon()
                assert ext.rows == [primitive(row) for row in basis]
                ref_rows, ref_pivots = list(basis), list(basis_pivots)
                for v in more:
                    add_both(ext, ref_rows, ref_pivots, v)
                sub = ext.subspace()
                assert (list(sub.basis), list(sub.pivots)) == dense_subspace(
                    ref_rows, ref_pivots
                )
                assert exact(sub)
            other = echelon_of(n, rand_rows(n, density, rng.randint(0, n))).subspace()
            rows2, pivots2 = list(basis), list(basis_pivots)
            for v in other.basis:
                dense_add(rows2, pivots2, v)
            ref_sum = dense_subspace(rows2, pivots2)
            for space in (built, bare):
                for v in more:
                    assert space.contains(v) == (
                        not any(dense_residual(basis, basis_pivots, v))
                    )
                assert space.contains_space(other) == all(
                    not any(dense_residual(basis, basis_pivots, v))
                    for v in other.basis
                )
                total = space.sum_with(other)
                assert (list(total.basis), list(total.pivots)) == ref_sum
                assert total == other.sum_with(space) and exact(total)

    def test_scaled_steps_leave_primitive_residuals_seeded(self):
        # dense {-1, 0, 1} rows: stored pivot entries other than 1 make
        # reduction steps scale w by a/g != 1, after which w is divided by
        # its content.  `_reduce` against the first s stored rows is w
        # after step s, so each step is checked on its own.
        rng = random.Random(3187)

        def parent_reduce(self, w):
            # the reduction before content division
            for row, p, cols in zip(self.rows, self.pivots, self.support):
                c = w[p]
                if c:
                    a = row[p]
                    if a != 1:
                        g = math.gcd(a, c)
                        a //= g
                        c //= g
                        if a != 1:
                            w = [a * x for x in w]
                    w[p] = 0
                    for j in cols:
                        w[j] -= c * row[j]
            return w

        class ParentEchelon(Echelon):
            _reduce = parent_reduce

        def prefix(ech, s):
            part = Echelon(ech.width)
            part.rows, part.pivots, part.support = (
                ech.rows[:s], ech.pivots[:s], ech.support[:s]
            )
            return part

        scaled = 0
        for _ in range(40):
            n = rng.randint(4, 8)
            vectors = [[rng.choice((-1, 0, 1)) for _ in range(n)]
                       for _ in range(rng.randint(n - 2, n + 2))]
            ech = Echelon(n)
            for v in vectors:
                w0 = list(v)
                before = w0
                for s in range(1, len(ech.rows) + 1):
                    after = prefix(ech, s)._reduce(list(w0))
                    a, c = ech.rows[s - 1][ech.pivots[s - 1]], before[ech.pivots[s - 1]]
                    if c and a // math.gcd(a, c) != 1 and any(after):
                        scaled += 1
                        assert math.gcd(*after) == 1
                    before = after
                ech.add_integer(list(v))
            parent = ParentEchelon(n)
            for v in vectors:
                parent.add_integer(list(v))
            assert ech.rows == parent.rows and ech.pivots == parent.pivots
            basis, pivots = dense_span(n, vectors)
            built = ech.subspace()
            assert list(built.basis) == basis and list(built.pivots) == pivots
        assert scaled > 20

    def test_outputs_are_exact_fractions_for_any_input_type(self):
        # ints, ints mixed with Fractions, and Fractions all come out as
        # exact Fractions, however few rescalings the reduction needs
        line = repth.Rep(
            liecore.LieAlgebra(1, {}, labels=["J"]), [Mat([[0, 1], [0, 0]])]
        )
        half = F(1, 2)
        for rows in (
            [(2, 0, 1), (0, 3, 0)],
            [(1, 0, 0), (0, 1, 0)],
            [(2, half, 1), (0, 3, F(0))],
            [(F(2), F(0), F(1)), (F(0), F(3), F(0))],
        ):
            spaces = [
                echelon_of(3, rows).subspace(),
                Subspace.span(3, rows),
                kernel(Mat(rows)),
                Subspace.span(3, rows).sum_with(Subspace.span(3, rows[:1])),
            ]
            for space in spaces:
                assert all(type(x) is F for row in space.basis for x in row)
        # spin takes an integer vector: each of these times its denominator
        for v in ((1, 0), (0, 1), (half, 0), (F(1), 0)):
            space = repth.spin(line.mats, exactla._integer_row(v)[1])
            assert all(type(x) is F for row in space.basis for x in row)


class TestKernelImageSolve:
    def test_kernel_oracle(self):
        # rank-1 matrix, kernel is the line through (-2, 1)
        k = kernel(Mat([[1, 2], [2, 4]]))
        assert k == Subspace.span(2, [(-2, 1)])

    def test_solve_underdetermined(self):
        res = solve(Mat([[1, 1]]), (2,))
        assert res is not None
        assert Mat([[1, 1]]).apply(res.particular) == (F(2),)
        assert res.kernel == Subspace.span(2, [(1, -1)])

    def test_solve_inconsistent(self):
        assert solve(Mat([[1, 1], [1, 1]]), (1, 2)) is None

    def test_solve_empty_system(self):
        res = solve(Mat([], cols=0), ())
        assert res is not None and res.particular == ()

    def test_inverse(self):
        m = Mat([[1, 2], [3, 4]])
        assert inverse(m) @ m == Mat.identity(m.rows)
        with pytest.raises(ValueError):
            inverse(Mat([[1, 2], [2, 4]]))

    def test_rank_nullity_seeded(self):
        rng = random.Random(4021)
        for _ in range(40):
            n = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = Mat([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(n)])
            assert rank(m) + kernel(m).dim == cols
            # every kernel vector actually annihilates
            for v in kernel(m).basis:
                assert m.apply(v) == zero_vec(n)

        # rank-deficient rational rows, whose reduction needs the
        # back-substitution: the span does not depend on the spanning rows
        def rat():
            return F(rng.randint(-4, 4), rng.randint(1, 5))

        for _ in range(40):
            cols = rng.randint(1, 6)
            gens = [[rat() for _ in range(cols)] for _ in range(rng.randint(0, cols - 1))]
            rows = []
            for _ in range(rng.randint(1, 6)):
                row = zero_vec(cols)
                for g in gens:
                    c = rat()
                    row = tuple(x + c * y for x, y in zip(row, g))
                rows.append(row)
            m = Mat(rows, cols=cols)
            span = Subspace.span(cols, rows)
            permuted = rng.sample(rows, len(rows))
            rescaled = [
                tuple(c * x for x in r)
                for c, r in ((F(rng.choice([-3, -1, 2, 7]), rng.randint(1, 4)), r) for r in rows)
            ]
            # a u + b w, drawn in the order a, u, b, w
            extended = rows + [
                tuple(a * x + b * y for x, y in zip(u, w))
                for a, u, b, w in (
                    (rat(), rng.choice(rows), rat(), rng.choice(rows)) for _ in range(3)
                )
            ]
            for other in (permuted, rescaled, extended):
                assert Subspace.span(cols, other) == span
            assert span.dim == rank(m) < cols
            assert all(span.contains(r) for r in rows)
            # solve: a consistent right-hand side and an inconsistent one
            b = m.apply([rat() for _ in range(cols)])
            res = solve(m, b)
            assert res is not None and m.apply(res.particular) == b
            assert res.kernel == kernel(m) and res.kernel.dim == cols - rank(m)
            if rank(m) < m.rows:
                y = kernel(m.transpose()).basis[0]
                assert solve(m, y) is None
            # inverse: the square part of the rows is singular; a full-rank
            # square matrix is inverted on both sides
            if m.rows >= cols:
                with pytest.raises(ValueError):
                    inverse(Mat(rows[:cols], cols=cols))
            sq = Mat([[rat() for _ in range(cols)] for _ in range(cols)])
            if rank(sq) == cols:
                inv = inverse(sq)
                assert inv @ sq == sq @ inv == Mat.identity(cols)
            else:
                with pytest.raises(ValueError):
                    inverse(sq)


class TestFractionGrowth:
    def test_large_denominators_and_dense_conjugates_match_dense_reference_seeded(self):
        # entries whose denominators reach 10^6, and integer conjugates of
        # the so(3) and so(4) actions, against the dense Fraction reduction
        rng = random.Random(6247)

        def big():
            return F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))

        def exact(entries):
            entries = list(entries)
            assert all(type(x) is F for x in entries)
            return entries

        def same_space(space, ref):
            basis, pivots = ref
            assert list(space.basis) == basis and list(space.pivots) == pivots
            exact(x for row in space.basis for x in row)

        matrices = []
        for _ in range(10):
            cols = rng.randint(1, 5)
            gens = [[big() if rng.random() < 0.7 else F(0) for _ in range(cols)]
                    for _ in range(rng.randint(1, cols))]
            rows = [[sum((big() * g[j] for g in gens), F(0)) for j in range(cols)]
                    for _ in range(rng.randint(1, 5))]
            matrices.append(Mat(rows, cols=cols))
            matrices.append(Mat([[big() for _ in range(cols)] for _ in range(cols)]))
        for d in (3, 4):
            _, rep = so_algebra_and_rep(d)
            for _ in range(2):
                conj, _ = unimodular_conjugate(rep, rng)
                matrices += conj.mats
                # every generator's entries as one column: the faithfulness system
                flats = [[x for row in m.entries for x in row] for m in conj.mats]
                matrices.append(Mat([list(col) for col in zip(*flats)]))

        for m in matrices:
            rows, cols = [list(r) for r in m.entries], m.cols
            ref_kernel = dense_kernel(rows, cols)
            same_space(kernel(m), ref_kernel)
            assert rank(m) == len(dense_span(cols, rows)[0])
            same_space(Subspace.span(cols, rows), dense_span(cols, rows))
            # a consistent right-hand side, and an inconsistent one when
            # the rows are dependent
            b = m.apply([big() for _ in range(cols)])
            res = solve(m, b)
            particular, ref_res_kernel = dense_solve(rows, b, cols)
            assert exact(res.particular) == list(particular)
            same_space(res.kernel, ref_res_kernel)
            left, _ = dense_kernel(m.transpose().entries, m.rows)
            if left:
                assert dense_solve(rows, left[0], cols) is None
                assert solve(m, left[0]) is None
            if m.is_square():
                for sq in (m, m + Mat.identity(cols)):
                    ref_inv = dense_inverse(sq.entries)
                    if ref_inv is None:
                        with pytest.raises(ValueError):
                            inverse(sq)
                    else:
                        got = inverse(sq)
                        assert [list(r) for r in got.entries] == [list(r) for r in ref_inv]
                        exact(x for r in got.entries for x in r)
                mp = min_poly(m)
                assert mp == dense_min_poly(m) and exact(mp.coeffs)
            # two spans inside Q^cols: their intersection and their sum
            other = [[big() if rng.random() < 0.6 else F(0) for _ in range(cols)]
                     for _ in range(rng.randint(1, cols))]
            if rng.random() < 0.5:
                other.append(rows[0])
            u, w = Subspace.span(cols, rows), Subspace.span(cols, other)
            ref_u, ref_w = dense_span(cols, rows)[0], dense_span(cols, other)[0]
            same_space(intersection(u, w), dense_intersect(ref_u, ref_w, cols))
            same_space(u.sum_with(w), dense_span(cols, ref_u + ref_w))


class TestPoly:
    def test_basic_arithmetic(self):
        p = Poly([1, 0, 1])  # t^2 + 1
        x = Poly.x()
        assert p - x * x == Poly.one()
        assert str(p) == "t^2 + 1"
        assert str(Poly([-6, 11, -6, 1])) == "t^3 - 6*t^2 + 11*t - 6"

    def test_divmod(self):
        num = Poly([-1, 0, 0, 1])   # t^3 - 1
        den = Poly([-1, 1])         # t - 1
        quot, rem = num.divmod_by(den)
        assert rem.is_zero()
        assert quot == Poly([1, 1, 1])

    def test_gcd_and_xgcd(self):
        a = Poly([-1, 0, 1])       # (t-1)(t+1)
        b = Poly([-2, 1, 1])       # (t-1)(t+2)
        g = poly_gcd(a, b)
        assert g == Poly([-1, 1])
        g2, u, v = poly_xgcd(a, b)
        assert g2 == g
        assert u * a + v * b == g

    def test_lcm(self):
        a = Poly([-1, 1])
        b = Poly([-2, 1])
        assert poly_lcm(a, b) == Poly([2, -3, 1])

    def test_squarefree(self):
        # (t-1)^2 (t+2)
        p = Poly([-1, 1]) * Poly([-1, 1]) * Poly([2, 1])
        assert not is_squarefree(p)
        assert squarefree_part(p) == Poly([-1, 1]) * Poly([2, 1])
        assert is_squarefree(squarefree_part(p))

    def test_evaluation(self):
        p = Poly([1, 2, 3])
        assert p(F(1, 2)) == F(1) + 1 + F(3, 4)


class TestCharAndMinPoly:
    def test_char_poly_diag(self):
        m = Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert char_poly(m) == Poly([-6, 11, -6, 1])

    def test_char_poly_det_and_trace_read_off(self):
        m = Mat([[2, 1], [1, 2]])
        p = char_poly(m)
        assert p == Poly([3, -4, 1])  # t^2 - (tr) t + det

    def test_min_poly_rotation(self):
        rot = Mat([[0, -1], [1, 0]])
        assert min_poly(rot) == Poly([1, 0, 1])

    def test_min_poly_repeated_eigenvalue(self):
        m = Mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert min_poly(m) == Poly([2, -3, 1])  # (t-1)(t-2)

    def test_min_poly_jordan(self):
        jb = Mat([[2, 1, 0], [0, 2, 1], [0, 0, 2]])
        assert min_poly(jb) == Poly([-8, 12, -6, 1])  # (t-2)^3

    def test_min_divides_char_seeded(self):
        rng = random.Random(515)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = rand_mat(rng, n, -3, 3)
            mp, cp = min_poly(m), char_poly(m)
            assert (cp % mp).is_zero()
            assert matrix_poly(mp, m).is_zero()
            # minimal: no lower power of m depends on the ones before it
            flat = [[x for row in m.power(k).entries for x in row] for k in range(n + 1)]
            assert mp.degree == rank(Mat(flat))

    def test_zero_by_zero(self):
        z = Mat([], cols=0)
        assert min_poly(z) == Poly.one()
        assert char_poly(z) == Poly.one()


class TestSemisimpleNilpotentSplit:
    def test_jordan_block_oracle(self):
        jb = Mat([[2, 1, 0], [0, 2, 1], [0, 0, 2]])
        s, n = sn_decomposition(jb)
        assert s == Mat.identity(3).scale(2)
        assert n == jb - s

    def test_already_semisimple(self):
        m = Mat([[0, -1], [1, 0]])
        s, n = sn_decomposition(m)
        assert n.is_zero() and s == m
        assert is_semisimple(m) and not is_nilpotent(m)

    def test_strictly_upper_triangular(self):
        m = Mat([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
        s, n = sn_decomposition(m)
        assert s.is_zero() and n == m
        assert is_nilpotent(m) and not is_semisimple(m)

    def test_zero_matrix_is_both(self):
        z = Mat.zeros(2, 2)
        assert is_semisimple(z) and is_nilpotent(z)

    def test_postconditions_seeded(self):
        rng = random.Random(77103)
        for _ in range(30):
            n = rng.randint(1, 6)
            m = rand_mat(rng, n)
            s, nil = sn_decomposition(m)
            assert s + nil == m
            assert s @ nil == nil @ s
            assert is_semisimple(s)
            assert is_nilpotent(nil)
            # both parts are polynomials in m
            assert polynomial_in(m, s) is not None
            assert polynomial_in(m, nil) is not None

    def test_polynomial_in_negative(self):
        # nothing commuting-free: identity target under nilpotent source
        m = Mat([[0, 1], [0, 0]])
        assert polynomial_in(m, Mat([[0, 0], [1, 0]])) is None


def combination_by_hand(mats, target, rows, cols):
    """`solve` on sum c_i mats[i] = target written out entry by entry: one
    equation per entry, one column per matrix."""
    system = Mat([[m[r, c] for m in mats] for r in range(rows) for c in range(cols)],
                 cols=len(mats))
    return solve(system, [target[r, c] for r in range(rows) for c in range(cols)])


class TestSolveCombination:
    def test_matches_solve_on_the_system_written_out_seeded(self):
        rng = random.Random(3301)

        def entry():
            return rng.choice((0, 0, rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 6))))

        def rand_mat(rows, cols):
            return Mat([[entry() for _ in range(cols)] for _ in range(rows)])

        kinds = set()
        for _ in range(150):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            mats = [rand_mat(rows, cols) for _ in range(rng.randint(0, 5))]
            if len(mats) >= 2 and rng.random() < 0.4:
                # a dependent matrix, so the kernel is nonzero
                mats.append(mats[0].scale(entry()) + mats[1].scale(entry()))
            pick = rng.random()
            if pick < 0.3 or not mats:
                target = rand_mat(rows, cols)
            elif pick < 0.6:
                target = Mat.zeros(rows, cols)
                for m in mats:
                    target = target + m.scale(entry())
            else:
                target = None
            zero = Mat.zeros(rows, cols)
            want = combination_by_hand(mats, zero if target is None else target, rows, cols)
            got = exactla.solve_combination(mats, target)
            assert got == want
            if got is None:
                kinds.add("inconsistent")
            else:
                assert all(type(x) is F for x in got.particular)
                kinds.add("kernel" if got.kernel.dim else "unique")
        assert kinds == {"inconsistent", "kernel", "unique"}

    def test_empty_list(self):
        got = exactla.solve_combination([])
        assert got.particular == () and got.kernel == Subspace.zero(0)
        assert exactla.solve_combination([], Mat.zeros(2, 3)) == got
        assert exactla.solve_combination([], Mat([[0, F(1, 2)]])) is None

    def test_zero_target_gives_the_kernel(self):
        a, b = Mat([[1, 2], [0, 1]]), Mat([[0, 1], [1, 0]])
        mats = [a, b, a.scale(F(-3, 2)) + b.scale(4)]
        got = exactla.solve_combination(mats)
        assert got == exactla.solve_combination(mats, Mat.zeros(2, 2))
        assert got.particular == (0, 0, 0)
        assert got.kernel == Subspace.span(3, [(F(-3, 2), 4, -1)])
        assert got == combination_by_hand(mats, Mat.zeros(2, 2), 2, 2)

    def test_inconsistent_target(self):
        mats = [Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, F(1, 3)]])]
        assert exactla.solve_combination(mats, Mat([[0, 1], [0, 0]])) is None
        assert exactla.solve_combination(mats, Mat([[2, 0], [0, 1]])).particular == (2, 3)

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError):
            exactla.solve_combination([Mat.zeros(2, 2)], Mat.zeros(2, 3))
        with pytest.raises(ValueError):
            exactla.solve_combination([Mat.zeros(1, 2), Mat.zeros(2, 1)])


class TestSqrtRational:
    def test_perfect_square(self):
        assert sqrt_rational(F(9, 4)) == F(3, 2)
        assert sqrt_rational(49) == 7
        assert sqrt_rational(0) == 0

    def test_non_square(self):
        assert sqrt_rational(2) is None
        assert sqrt_rational(F(1, 3)) is None

    def test_negative(self):
        assert sqrt_rational(-4) is None


# public names of exactla that no code of the package loads, each with the
# acceptance criterion that calls it
CALLED_ONLY_BY_CRITERIA = {
    "polynomial_in": "test_acceptance.py, criterion 8",
    "unit_vec": "test_acceptance.py, criteria 1, 2, 5 and 6",
}

# public methods of the matrix and echelon classes that no code of the
# package calls, each with the reason it is kept
KEPT_METHODS = {
    "Mat.apply": "the Fraction boundary: a matrix applied to a caller's vector",
    "Subspace.contains": "the Fraction boundary: is a caller's vector in the span",
    "Subspace.span": "the Fraction boundary: the span of a caller's vectors; "
                     "bench/spans.py traces it",
    "Mat.power": "test_acceptance.py, criterion 8",
}


def names_loaded(tree, own=False):
    """Names loaded by a Name or an Attribute node in a module's syntax
    tree.  With own=True, a top-level definition's loads of its own name
    (recursion, a class naming itself) are left out."""
    found = set()

    def visit(node, owner):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name != owner:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for top in tree.body:
        defines = isinstance(top, (ast.FunctionDef, ast.ClassDef))
        visit(top, top.name if own and defines else None)
    return found


# public names of liecore and repth, and public methods of their classes,
# that no code of the package loads, each with the reason it is kept
KEPT_UNUSED = {
    "LieAlgebra.bracket": "the Fraction boundary: the bracket of a caller's vectors",
    "LieAlgebra.levi_complement": "the tests' oracle for the Levi factor; "
                                  "bench/spans.py traces it",
    "LieAlgebra.is_automorphism": "the tests' oracle for sigma; bench/spans.py traces it",
    "match_decompositions": "test_acceptance.py, criterion 9",
}


def unused_public_names(module, classes):
    """The public names of `module` (its `__all__`, else the functions and
    classes it defines) that no module of the package loads, and the
    public methods of `classes` whose name no module reads as an
    attribute.  The owner of an attribute is not resolved, so a read
    through any object counts."""
    package = Path(module.__file__).parent
    own = Path(module.__file__).name
    loaded, attributes = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded |= names_loaded(tree, own=path.name == own)
        attributes |= {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    names = getattr(module, "__all__", None) or [
        name for name, value in vars(module).items()
        if not name.startswith("_") and isinstance(value, (FunctionType, type))
        and value.__module__ == module.__name__
    ]
    methods = {
        f"{cls.__name__}.{name}"
        for cls in classes
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (FunctionType, property, staticmethod))
    }
    return set(names) - loaded, {m for m in methods if m.split(".")[1] not in attributes}


def test_every_public_name_is_used_in_the_package():
    unused, methods = unused_public_names(exactla, (Mat, Echelon, Subspace))
    assert unused == set(CALLED_ONLY_BY_CRITERIA)
    assert methods == set(KEPT_METHODS)
    kept = set()
    for module in (liecore, repth):
        classes = [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
        unused, methods = unused_public_names(module, classes)
        kept |= unused | methods
    assert kept == set(KEPT_UNUSED)
