import random

import pytest

from conftest import assert_greedy_generators, so_algebra_and_rep
from kinsila.errors import JacobiError, NonAbelianRadicalError
from kinsila.exactla import Mat, Subspace, inverse, unit_vec
from kinsila.liecore import LieAlgebra


def sl2():
    # basis h, e, f
    return LieAlgebra(
        3,
        {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)},
        labels=["h", "e", "f"],
    )


def heisenberg():
    return LieAlgebra(3, {(0, 1): (0, 0, 1)}, labels=["x", "y", "z"])


def sl2_on_plane():
    """sl2 acting on its standard two-dimensional module, basis h,e,f,x,y."""
    return LieAlgebra(
        5,
        {
            (0, 1): (0, 2, 0, 0, 0),
            (0, 2): (0, 0, -2, 0, 0),
            (1, 2): (1, 0, 0, 0, 0),
            (0, 3): (0, 0, 0, 1, 0),
            (0, 4): (0, 0, 0, 0, -1),
            (1, 4): (0, 0, 0, 1, 0),
            (2, 3): (0, 0, 0, 0, 1),
        },
    )


def change_basis(alg, new_basis_cols):
    """Structure constants of `alg` rewritten in the given new basis."""
    n = alg.dim
    m = Mat.from_cols(new_basis_cols)
    minv = inverse(m)
    pairs = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = minv.apply(alg.bracket(m.col(a), m.col(b)))
            if any(w):
                pairs[(a, b)] = w
    return LieAlgebra(n, pairs)


class TestConstruction:
    def test_jacobi_violation_reported_with_defect(self):
        with pytest.raises(JacobiError) as exc:
            LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0), (1, 2): (0, 1, 0)})
        assert exc.value.triple == (0, 1, 2)
        assert exc.value.defect == (0, 0, 2)

    def test_jacobi_defect_rescan_is_clean_on_live_instances(self):
        assert sl2().jacobi_defect() is None
        assert heisenberg().jacobi_defect() is None
        assert LieAlgebra(4, {}).jacobi_defect() is None

    def test_pair_indices_must_be_ordered(self):
        with pytest.raises(ValueError):
            LieAlgebra(2, {(1, 0): (0, 1)})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebra(2, {}, labels=["a", "a"])

    def test_zero_dimensional(self):
        z = LieAlgebra(0, {})
        assert z.dim == 0
        assert z.derived_subalgebra().is_zero()

    def test_bracket_antisymmetry(self):
        g = sl2()
        x, y = (1, 2, 3), (0, 1, 1)
        assert g.bracket(x, y) == tuple(-c for c in g.bracket(y, x))


class TestDerivedObjects:
    def test_killing_form_sl2(self):
        assert sl2().killing_form() == Mat([[8, 0, 0], [0, 0, 4], [0, 4, 0]])

    def test_killing_vanishes_on_nilpotent(self):
        assert heisenberg().killing_form().is_zero()

    def test_derived_subalgebra(self):
        assert heisenberg().derived_subalgebra() == Subspace.span(3, [(0, 0, 1)])
        assert sl2().derived_subalgebra().is_full()

    def test_radical_semisimple(self):
        assert sl2().solvable_radical().is_zero()

    def test_radical_solvable(self):
        assert heisenberg().solvable_radical().is_full()

    def test_radical_mixed(self):
        g = sl2_on_plane()
        assert g.solvable_radical() == Subspace.span(
            5, [unit_vec(5, 3), unit_vec(5, 4)]
        )

    def test_centralizer(self):
        h = heisenberg()
        assert h.centralizer(Subspace.full(3)) == Subspace.span(3, [(0, 0, 1)])
        g = sl2_on_plane()
        rad = g.solvable_radical()
        assert g.centralizer(rad, within=rad) == rad


class TestPredicates:
    def test_ideal_and_subalgebra(self):
        g = sl2_on_plane()
        rad = g.solvable_radical()
        levi = Subspace.span(5, [unit_vec(5, i) for i in range(3)])
        assert g.is_ideal(rad)
        assert not g.is_ideal(levi)
        assert g.is_subalgebra(levi)
        assert g.is_abelian_space(rad)
        assert not g.is_abelian_space(levi)

    def test_bracket_span_of_a_space_with_itself_seeded(self):
        # reference: every ordered pair of basis vectors bracketed
        g = sl2_on_plane()
        rng = random.Random(2210)
        for _ in range(20):
            a = Subspace.span(5, [[rng.randint(-2, 2) for _ in range(5)]
                                  for _ in range(rng.randint(1, 4))])
            every = [g.bracket(u, v) for u in a.basis for v in a.basis]
            assert g.bracket_span(a, a) == Subspace.span(5, every)

    def test_solvability(self):
        g = sl2_on_plane()
        assert g.is_solvable_space(g.solvable_radical())
        assert not g.is_solvable_space(Subspace.full(5))
        with pytest.raises(ValueError):
            # the plane spanned by h and x plus nothing closing it
            g.is_solvable_space(Subspace.span(5, [unit_vec(5, 1), unit_vec(5, 4)]))

    def test_automorphism(self):
        g = sl2()
        chevalley = Mat([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert g.is_automorphism(chevalley)
        assert g.is_involution(chevalley)
        assert not g.is_automorphism(Mat([[1, 0, 0], [0, 1, 0], [0, 1, 1]]))
        # singular maps are never automorphisms here
        assert not g.is_automorphism(Mat.zeros(3, 3))


class TestGenerators:
    def test_so_d_is_generated_by_d_minus_one_rotations(self):
        for d in range(2, 7):
            alg, _ = so_algebra_and_rep(d)
            assert len(assert_greedy_generators(alg)) == d - 1

    def test_abelian_algebra_needs_every_index(self):
        assert assert_greedy_generators(LieAlgebra(4, {})) == (0, 1, 2, 3)

    def test_zero_algebra_has_no_generators(self):
        assert assert_greedy_generators(LieAlgebra(0, {})) == ()

    def test_small_algebras(self):
        # sl2 from h, e, f in that order takes all three; the Heisenberg
        # algebra is generated by x, y
        assert assert_greedy_generators(sl2()) == (0, 1, 2)
        assert assert_greedy_generators(heisenberg()) == (0, 1)
        assert assert_greedy_generators(sl2_on_plane()) == (0, 1, 2, 3)


class TestQuotientRestrict:
    def test_restrict_levi(self):
        g = sl2_on_plane()
        levi = Subspace.span(5, [unit_vec(5, i) for i in range(3)])
        sub = g.restrict(levi)
        assert sub.killing_form() == Mat([[8, 0, 0], [0, 0, 4], [0, 4, 0]])

    def test_restrict_requires_closure(self):
        g = sl2_on_plane()
        with pytest.raises(ValueError):
            g.restrict(Subspace.span(5, [unit_vec(5, 1), unit_vec(5, 4)]))


class TestLeviComplement:
    def test_semisimple_is_its_own_complement(self):
        assert sl2().levi_complement() == Subspace.full(3)

    def test_abelian_algebra(self):
        assert LieAlgebra(2, {}).levi_complement() == Subspace.zero(2)

    def test_nonabelian_radical_refused(self):
        with pytest.raises(NonAbelianRadicalError):
            heisenberg().levi_complement()

    def test_natural_split(self):
        g = sl2_on_plane()
        assert g.levi_complement() == Subspace.span(
            5, [unit_vec(5, i) for i in range(3)]
        )

    def test_twisted_split_needs_correction(self):
        # replace h by h + x; the coordinate complement of the radical is
        # then not closed and the solver must subtract x back off
        g = sl2_on_plane()
        tw = change_basis(
            g,
            [(1, 0, 0, 1, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
             (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)],
        )
        levi = tw.levi_complement()
        assert levi == Subspace.span(
            5, [(1, 0, 0, -1, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]
        )

    def test_sigma_and_contain_constraints(self):
        g = sl2_on_plane()
        sigma = Mat([
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, -1, 0],
            [0, 0, 0, 0, -1],
        ])
        assert g.is_automorphism(sigma)
        levi = g.levi_complement(
            sigma=sigma, contain=Subspace.span(5, [unit_vec(5, 0)])
        )
        assert levi is not None and levi.dim == 3
        assert levi.contains(unit_vec(5, 0))

    def test_contain_meeting_radical_fails_cleanly(self):
        g = sl2_on_plane()
        bad = Subspace.span(5, [unit_vec(5, 0), unit_vec(5, 3)])
        assert g.levi_complement(contain=bad) is None

    def test_contain_must_be_subalgebra(self):
        g = sl2_on_plane()
        with pytest.raises(ValueError):
            g.levi_complement(
                contain=Subspace.span(5, [unit_vec(5, 1), unit_vec(5, 2)])
            )
