import hashlib
import json
import operator
import random
from fractions import Fraction

import pytest

from conftest import (
    ad_matrix,
    bench_workloads,
    block_copies,
    check_simplicity,
    count_calls,
    dense_rebase,
    doubled,
    intersection,
    restricted,
    so_algebra_and_rep,
    unimodular_conjugate,
)
from kinsila import catalog, repth
from kinsila.errors import DecompositionError, InternalFault, RepError
from kinsila.exactla import (
    _integer_row, Echelon, Mat, Subspace, inverse, kernel, unit_vec,
)
from kinsila.liecore import LieAlgebra
from kinsila.repth import (
    Rep,
    Simplicity,
    certify_copy,
    enveloping_basis,
    hom_space,
    invariant_complement,
    invariant_symmetric_forms,
    is_faithful,
    is_simple,
    match_decompositions,
    nondegenerate_invariant_form,
    rep_on_subspace,
    simple_decomposition,
    spin,
    wedge_square,
)


def dual(rep):
    return Rep(rep.algebra, [-m.transpose() for m in rep.mats])


def momentum_module(alg, roles):
    """P as a module of s, from the brackets of the roles' basis vectors."""
    _, s, p = roles
    n = alg.dim
    p_space = Subspace.coordinate(n, p)
    mats = [p_space.matrix_of(ad_matrix(alg, unit_vec(n, x))) for x in s]
    return Rep(restricted(alg, Subspace.coordinate(n, s)), mats, dim=len(p))


def catalog_momentum(family, d):
    entry = catalog.make(family, d)
    return momentum_module(entry.algebra, bench_workloads().entry_roles(entry))


def companion_line(coeffs):
    """The abelian algebra Q x acting on Q^n by the companion matrix of
    the monic t^n + c_(n-1) t^(n-1) + ... + c_0, coeffs = (c_0, ..., c_(n-1))."""
    n = len(coeffs)
    alg = LieAlgebra(1, {}, labels=["x"])
    rows = [[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)]
    return Rep(alg, [Mat(rows)])


def quaternion_module():
    """s = span(i, j, k) in H = (-1, -1)_Q with the commutator bracket,
    acting on H by left multiplication in the basis 1, i, j, k."""
    alg = LieAlgebra(3, {(0, 1): (0, 0, 2), (1, 2): (2, 0, 0), (0, 2): (0, -2, 0)},
                     labels=["i", "j", "k"])
    return Rep(alg, [
        Mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
        Mat([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]),
        Mat([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
    ])


def so2_line():
    alg = LieAlgebra(1, {}, labels=["J"])
    return alg, Rep(alg, [Mat([[0, -1], [1, 0]])])


class TestRepConstruction:
    def test_bracket_condition_enforced(self):
        alg, _ = so_algebra_and_rep(3)
        good = [Mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]) for _ in range(3)]
        with pytest.raises(RepError):
            Rep(alg, good)  # three equal matrices cannot satisfy so(3)

    def test_matrix_count_enforced(self):
        alg, rep = so_algebra_and_rep(3)
        with pytest.raises(RepError):
            Rep(alg, rep.mats[:2])

    def test_zero_algebra_module(self):
        zero = LieAlgebra(0, {})
        rep = Rep(zero, [], dim=3)
        assert rep.dim == 3
        ok, wit = is_simple(rep)
        assert not ok and wit.dim == 1


class TestSimplicity:
    def test_standard_module_simple(self):
        for d in (3, 4, 5):
            _, rep = so_algebra_and_rep(d)
            ok, wit = is_simple(rep)
            assert ok and wit is None

    def test_rotation_plane_simple_over_q(self):
        # the enveloping algebra is the field Q[t]/(t^2+1)
        _, rot = so2_line()
        ok, _ = is_simple(rot)
        assert ok
        assert len(enveloping_basis(rot)) == 2

    def test_enveloping_basis_matches_quadratic_closure(self, monkeypatch):
        # reference: the closure run until no product is new; the spin of
        # the identity spans the same algebra for no more products
        def closure(rep):
            d = rep.dim
            found = Echelon(d * d)
            elements = []

            def try_add(m):
                flat = [x for row in m.entries for x in row]
                if found.add_integer(_integer_row(flat)[1]) is None:
                    return False
                elements.append(m)
                return True

            try_add(Mat.identity(d))
            for m in rep.mats:
                try_add(m)
            frontier = list(elements)
            while frontier:
                fresh = []
                for a in frontier:
                    for b in list(elements):
                        for p in (a @ b, b @ a):
                            if try_add(p):
                                fresh.append(p)
                frontier = fresh
            return elements

        products = [0]
        original = Mat.__matmul__

        def matmul(a, b):
            products[0] += 1
            return original(a, b)

        def counted(build, rep):
            products[0] = 0
            out = build(rep)
            return out, products[0]

        rng = random.Random(2210)
        _, v3 = so_algebra_and_rep(3)
        _, v4 = so_algebra_and_rep(4)
        _, rot = so2_line()
        cases = [v3, v4, doubled(v3), rot]
        cases += [unimodular_conjugate(rep, rng)[0]
                  for rep in (v3, v4, doubled(v3)) for _ in range(2)]
        def span(elements, d):
            return Subspace.span(d * d, [[x for row in m.entries for x in row]
                                         for m in elements])

        monkeypatch.setattr(Mat, "__matmul__", matmul)
        for rep in cases:
            got, made = counted(enveloping_basis, rep)
            want, reference_made = counted(closure, rep)
            assert len(got) == len(want)
            assert span(got, rep.dim) == span(want, rep.dim)
            assert made <= reference_made

    @pytest.mark.parametrize("coeffs, verdict", [
        # Q[t]/(f) is simple exactly when f is irreducible; t^4 + 1 is
        # irreducible over Q but factors modulo every prime
        ((1, 0), "field"), ((1, 0, 0, 0), "field"), ((2, 0, 0, 0), "field"),
        # (t^2 + 2)(t^2 + 3), (t^2 + 1)(t^4 - t^2 + 1), and (t^2 + 1)^2,
        # the last not semisimple
        ((6, 0, 5, 0), {2}), ((1, 0, 0, 0, 0, 0), {2, 4}), ((1, 0, 2, 0), {2}),
    ])
    def test_companion_modules_are_decided(self, coeffs, verdict):
        rep = companion_line(coeffs)
        ok, wit = is_simple(rep)
        if ok:
            assert rep.simplicity.kind == verdict and check_simplicity(rep)
        else:
            assert wit.dim in verdict

    def test_doubled_module_reducible(self):
        _, v = so_algebra_and_rep(3)
        ok, wit = is_simple(doubled(v))
        assert not ok
        assert 0 < wit.dim < 6
        for m in doubled(v).mats:
            for b in wit.basis:
                assert wit.contains(m.apply(b))

    def test_zero_action_reducible(self):
        alg = LieAlgebra(1, {}, labels=["J"])
        ok, wit = is_simple(Rep(alg, [Mat.zeros(2, 2)]))
        assert not ok and wit.dim == 1

    def test_one_dimensional_always_simple(self):
        alg = LieAlgebra(1, {}, labels=["J"])
        ok, _ = is_simple(Rep(alg, [Mat.zeros(1, 1)]))
        assert ok

    def test_upper_triangular_plane_gives_the_line_witness(self):
        # b(2) = span(E11, E12, E22) on Q^2 by its own matrices: the
        # kernel vector e2 of E11 spins to everything, and span(e1) is the
        # invariant line
        alg = LieAlgebra(3, {(0, 1): (0, 1, 0), (1, 2): (0, 1, 0)},
                         labels=["E11", "E12", "E22"])
        rep = Rep(alg, [Mat([[1, 0], [0, 0]]), Mat([[0, 1], [0, 0]]),
                        Mat([[0, 0], [0, 1]])])
        assert is_simple(rep) == (False, Subspace.span(2, [(1, 0)]))

    def test_radical_of_the_trace_form_gives_the_witness(self, monkeypatch):
        # Q x acting by a Jordan block: no matrix is singular, so no kernel
        # spins; the envelope span(1, N) has radical span(N), and N Q^2 is
        # the invariant line
        calls = count_calls(monkeypatch, "enveloping_basis")
        alg = LieAlgebra(1, {}, labels=["x"])
        rep = Rep(alg, [Mat([[1, 1], [0, 1]])])
        assert is_simple(rep) == (False, Subspace.span(2, [(1, 0)]))
        assert calls == [2]


class TestProbeWorkIsNotRepeated:
    def test_each_vector_spins_once_per_call(self, monkeypatch):
        spins = []
        original = repth.spin

        def counted(mats, w):
            spins.append((mats, tuple(w)))
            return original(mats, w)

        monkeypatch.setattr(repth, "spin", counted)
        for d in (4, 5):
            _, v = so_algebra_and_rep(d)
            spins.clear()
            assert is_simple(v) == (True, None)
            gens = [v.mats[i] for i in v.algebra.generators()]
            under_mats = [
                u for mats, u in spins
                if len(mats) == len(gens) and all(map(operator.is_, mats, gens))
            ]
            assert under_mats
            assert len(under_mats) == len(set(under_mats))

    def test_stage_one_forms_no_product_before_its_first_probe(
        self, monkeypatch
    ):
        products = [0]
        before_probe = []
        matmul, probe = Mat.__matmul__, repth._kernel_probe

        def counted_matmul(a, b):
            products[0] += 1
            return matmul(a, b)

        def watched_probe(*args):
            before_probe.append(products[0])
            return probe(*args)

        monkeypatch.setattr(Mat, "__matmul__", counted_matmul)
        monkeypatch.setattr(repth, "_kernel_probe", watched_probe)
        for d in (3, 4, 5):
            _, v = so_algebra_and_rep(d)
            rep = doubled(v)
            products[0] = 0
            before_probe.clear()
            ok, wit = is_simple(rep)
            # the first generator already has a kernel vector whose spin
            # is one of the two copies
            assert not ok and wit.dim == d
            assert before_probe == [0]

    def test_shared_spins_leave_every_outcome_unchanged_seeded(
        self, monkeypatch
    ):
        def outcomes(reps):
            out = []
            for rep in reps:
                ok, wit = is_simple(rep)
                cert = rep.simplicity
                out.append((ok, wit, cert and (cert.kind, cert.mats)))
            return out

        def modules():
            rng = random.Random(4157)
            reps = [so_algebra_and_rep(d)[1] for d in (3, 4, 5)]
            reps += [doubled(reps[0]), so2_line()[1]]
            reps += [unimodular_conjugate(rep, rng)[0]
                     for rep in list(reps) for _ in range(2)]
            return reps

        shared = outcomes(modules())
        original = repth._kernel_probe
        monkeypatch.setattr(
            repth, "_kernel_probe", lambda rep, a, spun: original(rep, a, set())
        )
        assert outcomes(modules()) == shared
        assert [ok for ok, _, _ in shared] == [True] * 3 + [False, True] + (
            [True] * 6 + [False] * 2 + [True] * 2
        )


class TestConicPoint:
    # (a, b)_Q splits exactly when x^2 = a y^2 + b z^2 has a nonzero
    # rational point; the Hilbert symbol of each pair is -1 at some place
    # for the first four and +1 everywhere for the rest
    @pytest.mark.parametrize("a, b", [(-1, -1), (2, 3), (21, 14), (-3, 6)])
    def test_division_algebras_have_no_point(self, a, b):
        assert repth._conic_point(a, b) is None

    @pytest.mark.parametrize("a, b", [
        (6, 10), (3, 6), (15, 10), (0, 5), (7, 0),
        # a split pair from a dense d = 4 poincare draw (seed 7), on which
        # sympy found no point when handed the conic over a common
        # denominator
        (Fraction(-30007133, 10090668), Fraction(71231134, 840889)),
    ])
    def test_split_algebras_have_a_checked_point(self, a, b):
        x, y, z = repth._conic_point(a, b)
        assert (x, y, z) != (0, 0, 0)
        assert x * x == a * y * y + b * z * z


class TestHomAndCommutant:
    def test_schur_line_for_absolutely_irreducible(self):
        _, v = so_algebra_and_rep(3)
        assert len(hom_space(v, v)) == 1

    def test_commutant_of_double_is_two_by_two(self):
        _, v = so_algebra_and_rep(3)
        p = doubled(v)
        assert len(hom_space(p, p)) == 4

    def test_hom_between_nonisomorphic_is_zero(self):
        _, v = so_algebra_and_rep(4)
        assert hom_space(v, wedge_square(v)) == []

    def test_wedge_of_rotation_module(self):
        # for so(3) the second exterior power is the module itself
        _, v = so_algebra_and_rep(3)
        w = wedge_square(v)
        assert w.dim == 3
        homs = hom_space(v, w)
        assert len(homs) == 1
        t = homs[0]
        for m_v, m_w in zip(v.mats, w.mats):
            assert t @ m_v == m_w @ t

    def test_wedge_intertwiner_counts_by_dimension(self):
        for d, expected in ((3, 1), (4, 0), (5, 0)):
            _, v = so_algebra_and_rep(d)
            assert len(hom_space(v, wedge_square(v))) == expected


    def test_sparse_equations_match_dense_rows_seeded(self):
        # reference: the equation rows of T m1 - m2 T written out densely
        def dense_hom(rep1, rep2):
            d1, d2 = rep1.dim, rep2.dim
            rows = []
            for m1, m2 in zip(rep1.mats, rep2.mats):
                for r in range(d2):
                    for c in range(d1):
                        row = [0] * (d1 * d2)
                        for k in range(d1):
                            row[r * d1 + k] += m1[k, c]
                        for k in range(d2):
                            row[k * d1 + c] -= m2[r, k]
                        rows.append(row)
            basis = kernel(Mat(rows, cols=d1 * d2)).basis
            return [
                Mat([v[r * d1:(r + 1) * d1] for r in range(d2)], cols=d1)
                for v in basis
            ]

        rng = random.Random(2210)
        _, v = so_algebra_and_rep(3)
        p = doubled(v)
        for _ in range(4):
            skew, _ = unimodular_conjugate(p, rng)
            pairs = ((p, skew), (skew, p), (v, skew), (skew, v), (skew, skew))
            for rep1, rep2 in pairs:
                assert hom_space(rep1, rep2) == dense_hom(rep1, rep2)

        # catalog P = V + V at d = 4: no unit vector spins all of it, so
        # the spin takes a second seed
        p4 = catalog_momentum("poincare", 4)
        gens = repth._generator_mats(p4)
        assert all(
            spin(gens, [int(j == i) for j in range(p4.dim)]).dim < p4.dim
            for i in range(p4.dim)
        )
        # s = 0 at d = 1: no generators, so every matrix intertwines
        p1 = catalog_momentum("poincare", 1)
        assert p1.algebra.dim == 0 and len(hom_space(p1, p1)) == p1.dim ** 2
        # abelian s by the companion matrix of t^4 + 1, alone and doubled
        line = companion_line((1, 0, 0, 0))
        # so(4): Hom(V, wedge^2 V) is 0, found at full rank
        _, v4 = so_algebra_and_rep(4)
        pairs = (
            (p4, p4), (p1, p1), (line, line), (doubled(line), doubled(line)),
            (line, doubled(line)), (v4, wedge_square(v4)),
        )
        for rep1, rep2 in pairs:
            assert hom_space(rep1, rep2) == dense_hom(rep1, rep2)


# sha256 of json.dumps of the entries of hom_space(P, P), as strings, for
# dense d = 6 draws (`dense_block`) of the momentum module, recorded with
# the d1 * d2 equation system that hom_space solved before its spin seeds
DENSE_COMMUTANT_PINS = {
    ("static", 2): "0f918a4affdb52bee2077604d4b1d3803c31e66e3cb4c94f5f75bdc630faec08",
    ("poincare", 0): "89df682101cff5f70d141e61b5b23e5c4e9cea70e008043d9d2918b52cb06ef1",
}


@pytest.mark.parametrize("family, seed", list(DENSE_COMMUTANT_PINS))
def test_dense_commutant_matches_pin(family, seed):
    workloads = bench_workloads()
    entry = catalog.make(family, 6)
    alg = entry.algebra
    roles = workloads.entry_roles(entry)
    pairs, _ = dense_rebase(alg, roles, random.Random(f"{seed}:{family}"))
    p = momentum_module(LieAlgebra(alg.dim, pairs, list(alg.labels)), roles)
    homs = hom_space(p, p)
    digest = hashlib.sha256(json.dumps(
        [[[str(x) for x in row] for row in t.entries] for t in homs]
    ).encode()).hexdigest()
    assert digest == DENSE_COMMUTANT_PINS[(family, seed)]
    # the equations were the generators'; every matrix must commute
    assert all(t @ m == m @ t for t in homs for m in p.mats)


@pytest.fixture(scope="module")
def generator_modules():
    """(V, modules) for the vector module V of so(d), d = 3, 4, 5: V
    doubled, its wedge square, the dual of V doubled, and a seeded
    unimodular conjugate of each, but at d = 5 of V doubled only (the
    other two would take seconds)."""
    rng = random.Random(1313)
    out = []
    for d in (3, 4, 5):
        _, v = so_algebra_and_rep(d)
        mods = [doubled(v), wedge_square(v), dual(doubled(v))]
        drawn = mods if d < 5 else mods[:1]
        mods += [unimodular_conjugate(m, rng)[0] for m in drawn]
        out.append((v, mods))
    return out


def every_index_generates(monkeypatch):
    """The all-matrix reference: every basis element taken as a generator."""
    monkeypatch.setattr(
        LieAlgebra, "generators", lambda self: tuple(range(self.dim))
    )


class TestGeneratorsDecideModuleQuestions:
    def test_hom_space_matches_every_matrix_seeded(
        self, generator_modules, monkeypatch
    ):
        def outcomes():
            out = []
            for v, mods in generator_modules:
                for m in mods:
                    # the commutant of a larger conjugate takes a second
                    pairs = [(v, m), (m, v)] + [(m, m)] * (m.dim <= 6)
                    out.append([hom_space(a, b) for a, b in pairs])
            return out

        by_generators = outcomes()
        every_index_generates(monkeypatch)
        assert outcomes() == by_generators

    def test_is_simple_matches_every_matrix_seeded(
        self, generator_modules, monkeypatch
    ):
        def outcomes():
            out = []
            for v, mods in generator_modules:
                for rep in [v, dual(v)] + mods:
                    ok, wit = is_simple(rep)
                    cert = rep.simplicity
                    out.append((ok, wit, cert and cert.kind))
            return out

        by_generators = outcomes()
        every_index_generates(monkeypatch)
        assert outcomes() == by_generators
        # per d: V, its dual, V doubled, the wedge square, the dual doubled,
        # then the conjugates; the wedge square is simple for so(3), so(5)
        assert [ok for ok, _, _ in by_generators] == [
            True, True, False, True, False, False, True, False,
            True, True, False, False, False, False, False, False,
            True, True, False, True, False, False,
        ]

    def test_only_generator_matrices_are_read(self, monkeypatch):
        alg, v = so_algebra_and_rep(5)
        w = wedge_square(v)
        read = []
        # every read of a Mat's integer view goes through this slot
        slot = Mat.__dict__["_integer"]

        def counted(m):
            read.append(m)
            return slot.__get__(m, Mat)

        monkeypatch.setattr(Mat, "_integer", property(counted, slot.__set__))
        hom_space(v, w)
        gens = alg.generators()
        assert len(gens) == 4 < alg.dim
        for rep in (v, w):
            touched = {i for i, m in enumerate(rep.mats) if any(m is x for x in read)}
            assert touched and touched <= set(gens)

    def test_modules_of_two_algebra_objects_are_refused(self):
        _, v1 = so_algebra_and_rep(3)
        _, v2 = so_algebra_and_rep(3)
        with pytest.raises(ValueError):
            hom_space(v1, v2)


class TestInvariantForms:
    def test_standard_module_has_unique_form(self):
        _, v = so_algebra_and_rep(3)
        forms = invariant_symmetric_forms(v)
        assert len(forms) == 1
        b = nondegenerate_invariant_form(v)
        assert b is not None
        for m in v.mats:
            assert (m.transpose() @ b + b @ m).is_zero()

    def test_no_form_when_none_invariant(self):
        # 1-dim rep of the affine line algebra scales by ad, no invariant form
        alg = LieAlgebra(2, {(0, 1): (0, 1)}, labels=["h", "x"])
        rep = Rep(alg, [Mat([[1]]), Mat([[0]])], check=False)
        assert nondegenerate_invariant_form(rep) is None

    def test_degenerate_form_proves_the_module_is_not_simple(self):
        for d in (3, 4):
            with pytest.raises(ValueError):
                nondegenerate_invariant_form(doubled(so_algebra_and_rep(d)[1]))

    def test_forms_match_dense_reference_seeded(self):
        def dense_forms(rep):
            # reference: symmetry and invariance written out as one system
            # in the d^2 entries of B, read row by row
            d = rep.dim
            rows = []
            for r in range(d):
                for c in range(r + 1, d):
                    row = [0] * (d * d)
                    row[r * d + c] += 1
                    row[c * d + r] -= 1
                    rows.append(row)
            for m in rep.mats:
                for r in range(d):
                    for c in range(d):
                        row = [0] * (d * d)
                        for k in range(d):
                            row[k * d + c] += m[k, r]
                            row[r * d + k] += m[k, c]
                        rows.append(row)
            basis = kernel(Mat(rows, cols=d * d)).basis
            return [
                Mat([v[r * d:(r + 1) * d] for r in range(d)], cols=d)
                for v in basis
            ]

        affine = LieAlgebra(2, {(0, 1): (0, 1)}, labels=["h", "x"])
        reps = [
            so_algebra_and_rep(3)[1],
            so_algebra_and_rep(4)[1],
            doubled(so_algebra_and_rep(3)[1]),
            Rep(affine, [Mat([[1]]), Mat([[0]])]),
        ]
        rng = random.Random(3307)
        for rep in reps:
            for moved in [rep] + [unimodular_conjugate(rep, rng)[0] for _ in range(3)]:
                assert invariant_symmetric_forms(moved) == dense_forms(moved)


class TestSpinAndFaithful:
    def test_spin_full_on_simple(self):
        _, v = so_algebra_and_rep(3)
        assert spin(v.mats, (1, 0, 0)).is_full()

    def test_spin_proper_on_invariant_line(self):
        alg = LieAlgebra(1, {}, labels=["J"])
        rep = Rep(alg, [Mat([[0, 1], [0, 0]])])
        assert spin(rep.mats, (1, 0)) == Subspace.span(2, [(1, 0)])

    def test_spin_stops_once_the_span_is_full(self, monkeypatch):
        builders = []

        class Watched(Echelon):
            def __init__(self, *args):
                super().__init__(*args)
                builders.append(self)

        applies = []
        original = Mat._integer_apply

        def apply(m, u):
            applies.append(any(len(e.rows) == e.width for e in builders))
            return original(m, u)

        monkeypatch.setattr(repth, "Echelon", Watched)
        # spin applies each matrix to its integer rows through this entry
        monkeypatch.setattr(Mat, "_integer_apply", apply)
        for d in (3, 4, 5):
            _, v = so_algebra_and_rep(d)
            builders.clear()
            applies.clear()
            assert spin(v.mats, [int(i == 0) for i in range(d)]).is_full()
            # each apply before the span fills finds a new basis vector here
            assert applies == [False] * (d - 1)

    def test_spin_matches_full_closure_seeded(self):
        def full_closure(rep, v):
            span = Subspace.span(rep.dim, [v])
            while True:
                images = [m.apply(b) for m in rep.mats for b in span.basis]
                bigger = Subspace.span(rep.dim, list(span.basis) + images)
                if bigger == span:
                    return span
                span = bigger

        rng = random.Random(2210)
        _, v = so_algebra_and_rep(3)
        p = doubled(v)
        modules = [(p, Mat.identity(6))]
        modules += [unimodular_conjugate(p, rng) for _ in range(3)]
        # halves (a, c a) of p spin to a proper submodule; t carries it
        # to one of the conjugate
        for rep, t in modules:
            dims = set()
            for _ in range(12):
                a = [rng.randint(-2, 2) for _ in range(3)]
                if rng.random() < 0.5:
                    w = a + [rng.randint(-2, 2) for _ in range(3)]
                else:
                    c = rng.randint(-2, 2)
                    w = a + [c * x for x in a]
                w = t.apply(w)
                # t is unimodular, so t w has integer entries
                got = spin(rep.mats, [int(x) for x in w])
                assert got == full_closure(rep, w)
                dims.add(got.dim)
            assert dims & {1, 2, 3, 4, 5}

    def test_faithful(self):
        _, v = so_algebra_and_rep(4)
        assert is_faithful(v)
        alg = LieAlgebra(1, {}, labels=["J"])
        assert not is_faithful(Rep(alg, [Mat.zeros(2, 2)]))


class TestDecomposition:
    def test_double_splits_into_two(self):
        _, v = so_algebra_and_rep(3)
        parts = simple_decomposition(doubled(v))
        assert sorted(p.dim for p in parts) == [3, 3]
        total = parts[0].sum_with(parts[1])
        assert total.is_full()

    def test_complement_of_top_block(self):
        _, v = so_algebra_and_rep(3)
        p = doubled(v)
        top = Subspace.span(6, [unit_vec(6, i) for i in range(3)])
        assert invariant_complement(p, top) == Subspace.span(
            6, [unit_vec(6, i) for i in range(3, 6)]
        )

    def test_complement_of_a_conjugated_summand_seeded(self):
        rng = random.Random(5151)
        for d in (2, 3, 4):
            p = doubled(so_algebra_and_rep(d)[1])
            for _ in range(5):
                skew, t = unimodular_conjugate(p, rng)
                # t carries the first copy of p onto a summand of skew
                top = Subspace.span(2 * d, [t.apply(unit_vec(2 * d, i)) for i in range(d)])
                comp = invariant_complement(skew, top)
                assert comp.dim == d and top.sum_with(comp).is_full()
                for m in skew.mats:
                    assert all(comp.contains(m.apply(b)) for b in comp.basis)

    def test_nonsplit_extension_refused(self):
        alg = LieAlgebra(1, {}, labels=["J"])
        rep = Rep(alg, [Mat([[0, 1], [0, 0]])])
        line = Subspace.span(2, [(1, 0)])
        with pytest.raises(DecompositionError):
            invariant_complement(rep, line)
        with pytest.raises(DecompositionError):
            simple_decomposition(rep)

    def test_skewed_double_still_splits(self):
        # conjugate the doubled module by a shear mixing the two copies
        _, v = so_algebra_and_rep(3)
        p = doubled(v)
        shear_rows = [[0] * 6 for _ in range(6)]
        for i in range(6):
            shear_rows[i][i] = 1
        for i in range(3):
            shear_rows[i][3 + i] = 1
        shear = Mat(shear_rows)
        shear_inv = inverse(shear)
        conj = Rep(p.algebra, [shear @ m @ shear_inv for m in p.mats])
        parts = simple_decomposition(conj)
        assert sorted(q.dim for q in parts) == [3, 3]

    def test_matching_after_commutant_transport(self):
        _, v = so_algebra_and_rep(3)
        p = doubled(v)
        parts = simple_decomposition(p)
        swap_rows = [[0] * 6 for _ in range(6)]
        for i in range(3):
            swap_rows[i][3 + i] = 1
            swap_rows[3 + i][i] = 1
        swap = Mat(swap_rows)
        for m in p.mats:
            assert swap @ m == m @ swap
        parts2 = [
            Subspace.span(6, [swap.apply(b) for b in q.basis]) for q in parts
        ]
        perm, isos = match_decompositions(p, parts, p, parts2)
        assert sorted(perm) == [0, 1]
        for i, j in enumerate(perm):
            s1 = rep_on_subspace(p, parts[i])
            s2 = rep_on_subspace(p, parts2[j])
            for m1, m2 in zip(s1.mats, s2.mats):
                assert isos[i] @ m1 == m2 @ isos[i]

    def test_matching_refuses_wrong_modules(self):
        _, v3 = so_algebra_and_rep(3)
        p = doubled(v3)
        parts = simple_decomposition(p)
        with pytest.raises(ValueError):
            match_decompositions(p, parts, p, [parts[0]])


class TestCertifiedSimplicity:
    def test_double_runs_the_schedule_once_per_isomorphism_type(
        self, monkeypatch
    ):
        calls = {
            name: count_calls(monkeypatch, name)
            for name in ("is_simple", "enveloping_basis")
        }
        # the whole module runs is_simple, which splits it; the first
        # piece is simple by its commutant, the second is a copy of it
        for d in (3, 4):
            for seen in calls.values():
                seen.clear()
            _, v = so_algebra_and_rep(d)
            parts = simple_decomposition(doubled(v))
            assert [q.dim for q in parts] == [d, d]
            assert calls["is_simple"] == [2 * d]
            assert calls["enveloping_basis"] == []
            first, second = parts.modules
            assert first.simplicity.kind == "commutant"
            assert second.simplicity.kind == "intertwiner"
            assert second.simplicity.source is first
            assert check_simplicity(first) and check_simplicity(second)

    def test_recorded_evidence_rechecks(self):
        _, rot = so2_line()
        line = Rep(LieAlgebra(1, {}, labels=["J"]), [Mat([[0]])])
        cases = [(rot, "field"), (line, "dimension-one")]
        cases += [(so_algebra_and_rep(d)[1], "commutant") for d in (3, 4)]
        cases += [(quaternion_module(), "quaternion")]
        for rep, kind in cases:
            assert is_simple(rep) == (True, None)
            assert rep.simplicity.kind == kind
            assert check_simplicity(rep)

    def test_altered_evidence_fails_the_recheck(self):
        _, v = so_algebra_and_rep(4)
        is_simple(v)
        # a generator's matrix does not commute with the action
        v.simplicity = Simplicity("field", (v.mats[0],))
        assert not check_simplicity(v)
        h = quaternion_module()
        is_simple(h)
        i, _ = h.simplicity.mats
        h.simplicity = Simplicity("quaternion", (i, i))
        assert not check_simplicity(h)
        v.simplicity = None
        assert not check_simplicity(v)

    def test_nonisomorphic_planes_are_not_copies(self):
        alg = LieAlgebra(1, {}, labels=["J"])
        one = Rep(alg, [Mat([[0, -1], [1, 0]])])
        two = Rep(alg, [Mat([[0, -2], [2, 0]])])
        assert is_simple(one)[0]
        assert certify_copy(one, two) == []
        assert two.simplicity is None

    def test_source_without_evidence_is_refused(self):
        _, v = so_algebra_and_rep(4)
        copy = Rep(v.algebra, v.mats)
        with pytest.raises(ValueError):
            certify_copy(v, copy)
        assert v.simplicity is None and copy.simplicity is None

    def test_three_copies_are_certified_or_split_along_an_image(self, monkeypatch):
        # V + V + V for so(4)'s V in its own basis: is_simple splits off V,
        # whose complement V + V is split along the image of V, and each
        # further piece is an intertwiner copy of V.  Five solves: the
        # complement of the first V, its commutant, Hom(V, V + V) and one
        # Hom(V, piece) per further copy
        _, v = so_algebra_and_rep(4)
        solved = []
        original = repth.hom_space

        def counted(rep1, rep2):
            solved.append((rep1.dim, rep2.dim))
            return original(rep1, rep2)

        monkeypatch.setattr(repth, "hom_space", counted)
        parts = simple_decomposition(block_copies(v, 3))
        assert [q.dim for q in parts] == [4, 4, 4]
        assert solved == [(12, 4), (4, 4), (4, 8), (4, 4), (4, 4)]
        first, *rest = parts.modules
        assert first.simplicity.kind == "commutant"
        for m in rest:
            assert m.simplicity.kind == "intertwiner" and m.simplicity.source is first
            assert check_simplicity(m)

    def test_singular_intertwiner_from_forged_evidence_is_a_fault(self):
        # the zero action on a plane is not simple; claiming it is makes
        # Schur's lemma fail on the first intertwiner
        alg = LieAlgebra(1, {}, labels=["J"])
        forged = Rep(alg, [Mat.zeros(2, 2)])
        forged.simplicity = Simplicity("dimension-one")
        with pytest.raises(InternalFault):
            certify_copy(forged, Rep(alg, [Mat.zeros(2, 2)]))


def affine_line_module():
    """s = span(x, y) with [x, y] = y on Q^2 by x = diag(1, 0), y = E_12.

    s is solvable, so Weyl's theorem does not apply: End_s is the scalars,
    yet the line Q e_1 is invariant and has no invariant complement.
    """
    alg = LieAlgebra(2, {(0, 1): (0, 1)}, labels=["x", "y"])
    return Rep(alg, [Mat([[1, 0], [0, 0]]), Mat([[0, 1], [0, 0]])])


class TestWeylHypothesis:
    def test_scalar_commutant_without_semisimplicity_is_not_simple(
        self, monkeypatch
    ):
        m = affine_line_module()
        assert len(hom_space(m, m)) == 1
        assert not m.algebra.is_semisimple()
        assert is_simple(m) == (False, Subspace.span(2, [(1, 0)]))
        m.simplicity = Simplicity("commutant")
        assert not check_simplicity(m)
        with pytest.raises(DecompositionError):
            simple_decomposition(m)
        # the double splits into two copies of m; the first copy still
        # runs is_simple, which finds its invariant line, and that line
        # has no complement
        calls = count_calls(monkeypatch, "is_simple")
        with pytest.raises(DecompositionError):
            simple_decomposition(doubled(m))
        assert calls == [4, 2]

    def test_forged_commutant_on_a_double_fails(self):
        _, v = so_algebra_and_rep(4)
        p = doubled(v)
        assert p.algebra.is_semisimple()
        assert len(hom_space(p, p)) == 4
        p.simplicity = Simplicity("commutant")
        assert not check_simplicity(p)

    def test_abelian_double_runs_the_schedule_on_its_pieces(
        self, monkeypatch
    ):
        _, rot = so2_line()
        calls = count_calls(monkeypatch, "is_simple")
        parts = simple_decomposition(doubled(rot))
        assert calls == [4, 2]
        first, second = parts.modules
        assert first.simplicity.kind == "field"
        assert second.simplicity.source is first

    def test_unit_spins_that_fill_the_module_fall_back_to_the_solve(
        self, monkeypatch
    ):
        rng = random.Random(0)
        for d in (3, 4):
            p, _ = unimodular_conjugate(doubled(so_algebra_and_rep(d)[1]), rng)
            simple, w = is_simple(p)
            assert not simple
            for i in range(2 * d):
                if i not in w.pivots:
                    assert spin(p.mats, [int(j == i) for j in range(2 * d)]).is_full()
            calls = count_calls(monkeypatch, "invariant_complement")
            parts = simple_decomposition(p)
            assert calls == [2 * d]
            assert [q.dim for q in parts] == [d, d]
            assert all(check_simplicity(m) for m in parts.modules)
            monkeypatch.undo()


class TestSubmoduleIntersections:
    def test_seeded_submodule_meet_and_join(self):
        # spans of random vectors generate submodules; meets and joins of
        # invariant subspaces stay invariant
        rng = random.Random(2210)
        _, v = so_algebra_and_rep(3)
        p = doubled(v)
        for _ in range(50):
            a = spin(p.mats, tuple(rng.randint(-3, 3) for _ in range(6)))
            b = spin(p.mats, tuple(rng.randint(-3, 3) for _ in range(6)))
            meet = intersection(a, b)
            join = a.sum_with(b)
            for m in p.mats:
                for base in meet.basis:
                    assert meet.contains(m.apply(base))
                for base in join.basis:
                    assert join.contains(m.apply(base))
            assert meet.dim + join.dim == a.dim + b.dim
