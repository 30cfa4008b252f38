"""Acceptance criteria, one test per criterion, zero numerical tolerance.

Every comparison below is exact equality of rational numbers; no
tolerance parameters exist anywhere in the package.  Randomized criteria
use fixed, documented seeds.  Run with -s to see one line per criterion.
"""

import functools
import json
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

from conftest import doubled, intersection, so_algebra_and_rep

from kinsila import catalog
from kinsila.cli import main
from kinsila.documents import entry_to_document, parse_text
from kinsila.errors import ValidationError
from kinsila.exactla import (
    Mat,
    Subspace,
    is_nilpotent,
    is_semisimple,
    is_squarefree,
    min_poly,
    polynomial_in,
    rank,
    sn_decomposition,
    unit_vec,
    zero_vec,
)
from kinsila.kinematics import (
    canonical_involution,
    classify,
    validate,
    z_action_split,
)
from kinsila.repth import hom_space, match_decompositions, simple_decomposition, wedge_square

ALL_16 = [(fam, d) for fam in catalog.FAMILIES for d in (4, 5)]

JC_SEED = 3571          # criterion 8
COMMUTANT_SEED = 9041   # criterion 9


def roles(entry):
    lab = entry.algebra.labels
    return (
        [lab.index(entry.z_label)],
        [lab.index(x) for x in entry.s_labels],
        [lab.index(x) for x in entry.p_labels],
    )


@lru_cache(maxsize=None)
def classified(family, d):
    e = catalog.make(family, d)
    z, s, p = roles(e)
    return classify(e.algebra, z, s, p)


def report(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {desc}")
                raise
            print(f"[criterion {num:02d}] PASS  {desc}")
        return wrapped
    return decorate


@report(1, "Jacobi identity vanishes exactly on all catalog algebras")
def test_criterion_01_jacobi():
    for fam, d in ALL_16:
        alg = catalog.make(fam, d).algebra
        assert alg.jacobi_defect() is None, (fam, d)
        n = alg.dim
        basis = [unit_vec(n, i) for i in range(n)]
        zero = zero_vec(n)
        for i in range(n):
            for j in range(i + 1, n):
                bij = alg.bracket(basis[i], basis[j])
                for k in range(j + 1, n):
                    s1 = alg.bracket(bij, basis[k])
                    s2 = alg.bracket(alg.bracket(basis[j], basis[k]), basis[i])
                    s3 = alg.bracket(alg.bracket(basis[k], basis[i]), basis[j])
                    total = tuple(a + b + c for a, b, c in zip(s1, s2, s3))
                    assert total == zero, (fam, d, i, j, k, total)


@report(2, "the grading involution is an involutive automorphism on all "
           "catalog algebras")
def test_criterion_02_involution():
    for fam, d in ALL_16:
        e = catalog.make(fam, d)
        z, s, p = roles(e)
        alg = e.algebra
        n = alg.dim
        sigma = canonical_involution(alg, p)
        assert (sigma @ sigma) == Mat.identity(n), (fam, d)
        basis = [unit_vec(n, i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lhs = sigma.apply(alg.bracket(basis[i], basis[j]))
                rhs = alg.bracket(sigma.apply(basis[i]), sigma.apply(basis[j]))
                assert lhs == rhs, (fam, d, i, j)
        for i in z + s:
            assert sigma[i, i] == 1
        for i in p:
            assert sigma[i, i] == -1


@report(3, "every catalog algebra classifies to its expected label")
def test_criterion_03_labels():
    for fam, d in ALL_16:
        r = classified(fam, d)
        assert r.label == catalog.EXPECTED_LABEL[fam], (fam, d, r.label)


@report(4, "the central action is never properly mixed, and the "
           "translational family acts nilpotently with square zero")
def test_criterion_04_jordan_chevalley_dichotomy():
    for fam, d in ALL_16:
        e = catalog.make(fam, d)
        st = validate(e.algebra, *roles(e))
        zd = z_action_split(st)
        assert zd.s_part.is_zero() or zd.n_part.is_zero(), (fam, d)
        assert zd.a_matrix == zd.s_part + zd.n_part
    for d in (4, 5):
        e = catalog.make("poincare", d)
        st = validate(e.algebra, *roles(e))
        zd = z_action_split(st)
        assert zd.kind == "nilpotent"
        assert not zd.a_matrix.is_zero()
        assert (zd.a_matrix @ zd.a_matrix).is_zero()


@report(5, "the expanding family splits into certified eigenspace pairs and "
           "the contracting family carries a square root of minus one")
def test_criterion_05_eigenspace_certificates():
    r = classified("de_sitter", 4)
    assert r.label == "three-graded-para-kahler"
    assert r.mu == F(1)
    c = r.certificates
    assert c["eigenvalue"] == F(1)
    assert set(c["checks"]) == {
        "half-dimensions", "stable-under-fixed-part", "eigenspaces-abelian",
        "eigenspaces-lagrangian", "duality-pairing-full-rank",
    }
    assert all(c["checks"].values())
    lpos = Subspace.span(8, [tuple(int(j == i) - int(j == 4 + i) for j in range(8))
                             for i in range(4)])
    lneg = Subspace.span(8, [tuple(int(j == i) + int(j == 4 + i) for j in range(8))
                             for i in range(4)])
    assert c["l_basis"] == lpos
    assert c["l_bar_basis"] == lneg

    # independent recomputation of the eigenvector property from brackets
    e = catalog.make("de_sitter", 4)
    alg = e.algebra
    lab = alg.labels
    n = alg.dim
    h = unit_vec(n, lab.index("H"))
    for i in range(1, 5):
        b = unit_vec(n, lab.index(f"B{i}"))
        p = unit_vec(n, lab.index(f"P{i}"))
        v = tuple(x - y for x, y in zip(b, p))
        assert alg.bracket(h, v) == v
        w = tuple(x + y for x, y in zip(b, p))
        assert alg.bracket(h, w) == tuple(-x for x in w)

    r = classified("anti_de_sitter", 4)
    assert r.label == "pseudo-kahler"
    assert r.mu == F(-1)
    j = r.certificates["complex_like_structure"]
    assert (j @ j) == Mat.identity(8).scale(F(-1))
    # and from brackets: applying the central action twice negates momenta
    e = catalog.make("anti_de_sitter", 4)
    alg = e.algebra
    lab = alg.labels
    n = alg.dim
    h = unit_vec(n, lab.index("H"))
    for x in e.p_labels:
        v = unit_vec(n, lab.index(x))
        assert alg.bracket(h, alg.bracket(h, v)) == tuple(-c for c in v)


@report(6, "the translational family carries the full itemized certificate")
def test_criterion_06_poincare_certificate():
    r = classified("poincare", 4)
    assert r.label == "poincare-type"
    assert all(ok for _, ok, _ in r.poincare_items)

    # recompute the five structural facts from primitives
    e = catalog.make("poincare", 4)
    alg = e.algebra
    lab = alg.labels
    n = alg.dim
    z, s, p = roles(e)
    st = validate(alg, z, s, p)

    rad = alg.solvable_radical()
    assert rad.dim == 5
    assert alg.is_abelian_space(rad)

    levi = alg.levi_complement(sigma=st.sigma, contain=st.s_space)
    assert levi is not None
    assert alg.is_subalgebra(levi)
    assert levi.contains_space(st.s_space)
    for b in levi.basis:
        assert levi.contains(st.sigma.apply(b))

    p_rad = intersection(st.p_space, rad)
    p_levi = intersection(st.p_space, levi)
    assert p_rad.dim == 4 and p_levi.dim == 4
    expected_p_rad = Subspace.span(
        n, [unit_vec(n, lab.index(f"P{i}")) for i in range(1, 5)]
    )
    assert p_rad == expected_p_rad
    zi = lab.index("H")
    for space in (p_rad, p_levi):
        for x in space.basis:
            for y in space.basis:
                assert alg.bracket(x, y)[zi] == 0
    pairing = Mat([[alg.bracket(x, y)[zi] for y in p_levi.basis]
                   for x in p_rad.basis])
    assert rank(pairing) == 4

    assert alg.bracket_span(p_rad, p_levi) == st.z_space

    h = unit_vec(n, zi)
    images = [alg.bracket(h, x) for x in p_levi.basis]
    assert all(p_rad.contains(w) for w in images)
    assert Subspace.span(n, images) == p_rad

    assert not alg.is_solvable_space(
        alg.bracket_span(st.p_space, st.p_space).sum_with(st.p_space)
    )
    assert r.holonomy_dim == 7


@report(7, "three space dimensions are rejected by the exterior-square "
           "condition, with the predicted intertwiner counts")
def test_criterion_07_wedge_rejection():
    for fam in catalog.FAMILIES:
        e = catalog.make(fam, 3)
        with pytest.raises(ValidationError) as ei:
            validate(e.algebra, *roles(e))
        assert ei.value.code == "WEDGE_CONDITION_FAILS", fam
    _, v3 = so_algebra_and_rep(3)
    assert len(hom_space(v3, wedge_square(v3))) == 1
    _, v4 = so_algebra_and_rep(4)
    assert len(hom_space(v4, wedge_square(v4))) == 0


@report(8, "200 seeded rational matrices split exactly into commuting "
           "semisimple plus nilpotent parts, each polynomial in the input")
def test_criterion_08_random_jordan_chevalley():
    rng = random.Random(JC_SEED)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = Mat([[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
        s, nil = sn_decomposition(m)
        assert s + nil == m
        assert (s @ nil) == (nil @ s)
        assert is_semisimple(s) and is_squarefree(min_poly(s))
        assert is_nilpotent(nil) and nil.power(n).is_zero()
        assert polynomial_in(m, s) is not None
        assert polynomial_in(m, nil) is not None


@report(9, "randomized two-copy modules split into two summands with a "
           "verified matching intertwiner")
def test_criterion_09_isotypic_matching():
    rng = random.Random(COMMUTANT_SEED)
    for trial in range(20):
        d = 2 + trial % 3
        _, v = so_algebra_and_rep(d)
        rep = doubled(v)
        parts = simple_decomposition(rep)
        assert len(parts) == 2
        assert all(q.dim == d for q in parts)

        while True:
            a, b, c, e = (F(rng.randint(-3, 3)) for _ in range(4))
            if a * e - b * c != 0:
                break
        t_rows = [[F(0)] * (2 * d) for _ in range(2 * d)]
        for i in range(d):
            t_rows[i][i] = a
            t_rows[i][d + i] = b
            t_rows[d + i][i] = c
            t_rows[d + i][d + i] = e
        t = Mat(t_rows)
        for m in rep.mats:
            assert (t @ m) == (m @ t)

        moved = [Subspace.span(2 * d, [t.apply(x) for x in q.basis])
                 for q in parts]
        assert all(q.dim == d for q in moved)
        perm, isos = match_decompositions(rep, parts, rep, moved)
        assert sorted(perm) == [0, 1]
        for iso in isos:
            assert iso.rows == d and iso.cols == d


@report(10, "catalog export, reparse, and reclassification agree bit for "
            "bit, and repeated runs are identical")
def test_criterion_10_round_trip(tmp_path, capsys):
    for fam, d in ALL_16:
        e = catalog.make(fam, d)
        doc = entry_to_document(e)
        parsed = parse_text(json.dumps(doc))
        r_mem = classified(fam, d)
        r_reparsed = classify(
            parsed.algebra, parsed.z_indices,
            parsed.s_indices, parsed.p_indices,
        )
        assert (json.dumps(r_reparsed.to_dict(), sort_keys=True)
                == json.dumps(r_mem.to_dict(), sort_keys=True)), (fam, d)

    path = tmp_path / "poincare_d4.json"
    path.write_text(json.dumps(entry_to_document(catalog.make("poincare", 4))))
    assert main(["classify", str(path), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["classify", str(path), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["label"] == "poincare-type"
