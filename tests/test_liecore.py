import json
import random
from fractions import Fraction as F

import pytest

from conftest import (
    ad_matrix,
    assert_greedy_generators,
    derived_subalgebra,
    restricted,
    so_algebra_and_rep,
    unit_triangular,
)
from kinsila import catalog
from kinsila.cli import main
from kinsila.errors import JacobiError, NonAbelianRadicalError
from kinsila.exactla import Mat, Subspace, inverse, rank, unit_vec
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
    m = Mat(list(zip(*new_basis_cols)))
    cols = list(zip(*m.entries))
    minv = inverse(m)
    pairs = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = minv.apply(alg.bracket(cols[a], cols[b]))
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
        assert derived_subalgebra(z).is_zero()

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
        assert derived_subalgebra(heisenberg()) == Subspace.span(3, [(0, 0, 1)])
        assert derived_subalgebra(sl2()).is_full()

    def test_radical_semisimple(self):
        assert sl2().solvable_radical().is_zero()

    def test_radical_solvable(self):
        assert heisenberg().solvable_radical().is_full()

    def test_radical_mixed(self):
        g = sl2_on_plane()
        assert g.solvable_radical() == Subspace.span(
            5, [unit_vec(5, 3), unit_vec(5, 4)]
        )

    def test_killing_form_is_the_trace_of_ad_products(self):
        algebras = [sl2(), heisenberg(), sl2_on_plane()]
        algebras += [catalog.make(f, d).algebra for f in catalog.FAMILIES for d in (1, 2, 3)]
        rng = random.Random(5)
        algebras.append(change_basis(sl2_on_plane(), unit_triangular(rng, 5, True).entries))
        for g in algebras:
            ads = [ad_matrix(g, unit_vec(g.dim, i)) for i in range(g.dim)]
            assert g.killing_form() == Mat(
                [[(x @ y).trace() for y in ads] for x in ads], cols=g.dim)

    def test_radical_by_blocks_of_a_grading(self):
        # sl2 on the plane is graded by -1 on the plane: the radical is
        # computed on h, e, f and on x, y apart
        g = sl2_on_plane()
        assert g.solvable_radical([1, 1, 1, -1, -1]) == Subspace.span(
            5, [unit_vec(5, 3), unit_vec(5, 4)])
        for sign in ([1, 1, -1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 2, 2]):
            with pytest.raises(ValueError):
                g.solvable_radical(sign)

    def test_ideal_guard_on_generators(self):
        # e, f and x generate sl2 on the plane; span(y) is preserved by e
        # alone, and the guard on the generators refuses it as on the basis
        g = sl2_on_plane()
        gens = [unit_vec(5, i) for i in (1, 2, 3)]
        rad = g.solvable_radical()
        assert g.is_ideal(rad, gens) and g.is_ideal(rad)
        line = Subspace.span(5, [unit_vec(5, 4)])
        assert not g.is_ideal(line, gens) and not g.is_ideal(line)


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

    def test_bracket_span_stops_once_full(self, monkeypatch):
        # poincare is perfect: [g, g] is all of g long before the last pair
        g = catalog.make("poincare", 6).algebra
        calls = []
        bracket = LieAlgebra._integer_bracket

        def counted(self, xs, ys):
            calls.append(None)
            return bracket(self, xs, ys)

        monkeypatch.setattr(LieAlgebra, "_integer_bracket", counted)
        full = Subspace.full(g.dim)
        assert g.bracket_span(full, full) == derived_subalgebra(g)
        assert derived_subalgebra(g).is_full()
        assert 0 < len(calls) < g.dim * (g.dim - 1) // 2

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
        assert chevalley @ chevalley == Mat.identity(3)
        assert not g.is_automorphism(Mat([[1, 0, 0], [0, 1, 0], [0, 1, 1]]))
        # singular maps are never automorphisms here
        assert not g.is_automorphism(Mat.zeros(3, 3))


def all_pairs_automorphism(alg, t):
    """t invertible with t[e_i, e_j] = [t e_i, t e_j] on every basis pair,
    in Fractions."""
    n = alg.dim
    if rank(t) != n:
        return False
    img = list(zip(*t.entries))
    return all(
        alg.bracket(img[i], img[j]) == t.apply(alg.structure_constant(i, j))
        for i in range(n) for j in range(i + 1, n)
    )


def grading(entry):
    """The basis indices of Z, s and P in a catalog entry."""
    labels = entry.algebra.labels
    return (
        [labels.index(entry.z_label)],
        [labels.index(x) for x in entry.s_labels],
        [labels.index(x) for x in entry.p_labels],
    )


def graded_rebase(alg, roles, rng):
    """`alg` in a new basis that mixes the vectors of each role among
    themselves only (triangular blocks, diagonal in {1, 2})."""
    n = alg.dim
    cols = [[0] * n for _ in range(n)]
    for idx in roles:
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                cols[ia][ib] = rng.choice((1, 2)) if a == b else (
                    rng.randint(-1, 1) if b < a else 0)
    return change_basis(alg, cols)


def grading_involution(n, p_indices):
    return Mat([[(-1 if i in p_indices else 1) if i == j else 0 for j in range(n)]
                for i in range(n)])


class TestAutomorphismOnGenerators:
    """`is_automorphism` compares every basis pair i < j in integers; its
    verdict must be the one the reference over every pair gives.  The
    cases date from when only generators() were bracketed with every
    basis vector, so several maps break a bracket off the generators."""

    def test_grading_involutions_of_the_catalog_are_accepted(self):
        rng = random.Random(7301)
        for family in catalog.FAMILIES:
            entry = catalog.make(family, 4)
            roles = grading(entry)
            sigma = grading_involution(entry.algebra.dim, roles[2])
            for alg in (entry.algebra, graded_rebase(entry.algebra, roles, rng)):
                assert len(alg.generators()) < alg.dim
                assert alg.is_automorphism(sigma)
                assert all_pairs_automorphism(alg, sigma)

    def test_verdicts_equal_the_all_pairs_reference_seeded(self):
        rng = random.Random(7302)
        rejected = 0
        for family in catalog.FAMILIES:
            entry = catalog.make(family, 4)
            roles = grading(entry)
            for alg in (entry.algebra, graded_rebase(entry.algebra, roles, rng)):
                n = alg.dim
                sigma = grading_involution(n, roles[2])
                # a random unimodular map, and the involution with the image
                # of one basis vector outside the generators moved
                k = rng.choice([i for i in range(n) if i not in alg.generators()])
                moved = [list(r) for r in sigma.entries]
                moved[rng.randrange(n)][k] += rng.choice((1, -1))
                mixed = unit_triangular(rng, n, False) @ unit_triangular(rng, n, True)
                for t in (mixed, Mat(moved)):
                    want = all_pairs_automorphism(alg, t)
                    assert alg.is_automorphism(t) == want
                    rejected += not want
        assert rejected >= 30

    def test_rational_maps_seeded(self):
        # exp(ad x) for x = e/3 (ad x nilpotent) and the plane scaled by
        # 1/2 are automorphisms with denominators; random triangular maps
        # with rational entries are not
        g = sl2_on_plane()
        x = (0, F(1, 3), 0, 0, 0)
        ad = Mat(list(zip(*[g.bracket(x, unit_vec(5, i)) for i in range(5)])))
        ad2 = ad @ ad
        exp_ad = Mat.identity(5) + ad + ad2.scale(F(1, 2)) + (ad2 @ ad).scale(F(1, 6))
        half = Mat([[F(1, 2) if i == j and i >= 3 else int(i == j) for j in range(5)]
                    for i in range(5)])
        maps = [exp_ad, half, exp_ad @ half]
        rng = random.Random(7303)
        for _ in range(12):
            maps.append(Mat([[rng.choice((1, 2, F(1, 2))) if i == j else
                              F(rng.randint(-2, 2), rng.randint(1, 3)) if i < j else 0
                              for j in range(5)] for i in range(5)]))
        verdicts = [g.is_automorphism(t) for t in maps]
        assert verdicts == [all_pairs_automorphism(g, t) for t in maps]
        assert verdicts[:3] == [True] * 3 and verdicts.count(False) >= 8

    def test_generators_are_bracketed_with_every_basis_vector(self):
        # free nilpotent of class 3 on a, b: c = [a, b], d = [a, c] and
        # e = [b, c], generated by a and b.  Doubling e alone keeps every
        # bracket of a and every bracket of two generators, but breaks
        # [b, c] = e; weights 1, 2, 2, 2, 4 give an automorphism
        g = LieAlgebra(5, {(0, 1): (0, 0, 1, 0, 0), (0, 2): (0, 0, 0, 1, 0),
                           (1, 2): (0, 0, 0, 0, 1)})
        assert g.generators() == (0, 1)

        def diag(*w):
            return Mat([[w[i] if i == j else 0 for j in range(5)] for i in range(5)])

        assert not g.is_automorphism(diag(1, 1, 1, 1, 2))
        assert g.is_automorphism(diag(1, 2, 2, 2, 4))

    def test_singular_homomorphism_is_rejected(self):
        # the projection of sl2 + plane onto sl2 along the plane brackets
        # like an automorphism but is not invertible
        g = sl2_on_plane()
        proj = Mat([[int(i == j and i < 3) for j in range(5)] for i in range(5)])
        img = list(zip(*proj.entries))
        assert all(g.bracket(img[i], img[j]) == proj.apply(g.structure_constant(i, j))
                   for i in range(5) for j in range(5))
        assert not g.is_automorphism(proj)
        assert not g.is_automorphism(Mat.zeros(5, 5))

    def test_grading_breaking_document_exits_1(self, tmp_path, capsys):
        # [B, P] = B puts a bracket of momenta back among the momenta
        doc = {
            "basis": ["H", "B", "P"],
            "brackets": [{"x": "B", "y": "P", "result": [{"basis": "B", "coeff": 1}]}],
            "roles": {"Z": ["H"], "s": [], "P": ["B", "P"]},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["classify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "SIGMA_NOT_AUTOMORPHISM" in err
        assert "Traceback" not in err


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
        sub = restricted(g, levi)
        assert sub.killing_form() == Mat([[8, 0, 0], [0, 0, 4], [0, 4, 0]])

    def test_restrict_requires_closure(self):
        g = sl2_on_plane()
        with pytest.raises(ValueError):
            restricted(g, Subspace.span(5, [unit_vec(5, 1), unit_vec(5, 4)]))


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
