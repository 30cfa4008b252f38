import hashlib
import json
import time
from fractions import Fraction as F

import pytest

from conftest import count_calls, euclidean_twin, heisenberg_document, heisenberg_like
from kinsila import catalog, kinematics, repth
from kinsila.documents import parse_document
from kinsila.errors import InternalFault, ValidationError
from kinsila.exactla import Mat, Subspace, solve, unit_vec
from kinsila.kinematics import (
    LABELS,
    canonical_involution,
    classify,
    omega_and_radical,
    transvection_and_holonomy,
    validate,
    z_action_split,
)
from kinsila.liecore import LieAlgebra


def entry_roles(entry):
    lab = entry.algebra.labels
    return (
        [lab.index(entry.z_label)],
        [lab.index(x) for x in entry.s_labels],
        [lab.index(x) for x in entry.p_labels],
    )


def classify_entry(family, d):
    e = catalog.make(family, d)
    z, s, p = entry_roles(e)
    return classify(e.algebra, z, s, p), e


def alg(n, pairs, labels=None):
    return LieAlgebra(
        n, {k: tuple(F(x) for x in v) for k, v in pairs.items()}, labels=labels
    )


# ---------------------------------------------------------------------------
# validation: the pass path

def test_validate_items_order_on_good_input():
    e = catalog.make("poincare", 4)
    z, s, p = entry_roles(e)
    st = validate(e.algebra, z, s, p)
    assert st.items == (
        ("partition", True),
        ("z-line", True),
        ("s-subalgebra", True),
        ("z-centralizes-s", True),
        ("p-module", True),
        ("p-two-simple-copies", True),
        ("v-simple", True),
        ("v-faithful", True),
        ("wedge-condition", True),
        ("invariant-form", True),
        ("sigma-involution", True),
    )
    assert st.v_rep.dim == 4
    assert [q.dim for q in st.parts] == [4, 4]
    assert st.invariant_form is not None


def test_validate_zero_rotation_algebra():
    # a valid input with no rotations at all: V is a line
    a = alg(3, {(1, 2): (1, 0, 0)}, labels=["H", "B1", "P1"])
    st = validate(a, [0], [], [1, 2])
    assert st.s_algebra.dim == 0
    assert st.v_rep.dim == 1


# ---------------------------------------------------------------------------
# validation: one test per failure code

def expect_code(code, a, z, s, p):
    with pytest.raises(ValidationError) as ei:
        validate(a, z, s, p)
    assert ei.value.code == code
    assert ei.value.items[-1][1] is False
    return ei.value


def test_not_a_partition():
    a = alg(4, {})
    err = expect_code("NOT_A_PARTITION", a, [0], [1], [1, 2, 3])
    assert err.items == (("partition", False),)
    expect_code("NOT_A_PARTITION", a, [0], [], [2, 3])
    expect_code("NOT_A_PARTITION", a, [], [0, 1], [2, 3])


def test_z_not_line():
    a = alg(4, {})
    expect_code("Z_NOT_LINE", a, [0, 1], [], [2, 3])


def test_s_not_subalgebra():
    e = catalog.make("poincare", 4)
    lab = e.algebra.labels
    z = [lab.index("H")]
    s = [lab.index(x) for x in e.s_labels if x != "J3_4"]
    p = [lab.index(x) for x in e.p_labels] + [lab.index("J3_4")]
    expect_code("S_NOT_SUBALGEBRA", e.algebra, z, s, p)


def test_z_not_centralizing():
    a = alg(4, {(0, 1): (0, 0, 1, 0)})
    err = expect_code("Z_NOT_CENTRALIZING", a, [0], [1], [2, 3])
    assert err.items[:3] == (
        ("partition", True), ("z-line", True), ("s-subalgebra", True),
    )


def test_p_not_module():
    a = alg(4, {(1, 2): (1, 0, 0, 0)})
    expect_code("P_NOT_MODULE", a, [0], [1], [2, 3])


def test_p_single_simple_piece():
    a = alg(4, {(1, 2): (0, 0, 0, 1), (1, 3): (0, 0, -1, 0)})
    expect_code("P_NOT_TWO_COPIES", a, [0], [1], [2, 3])


def test_p_two_nonisomorphic_pieces():
    a = alg(6, {
        (1, 2): (0, 0, 0, 1, 0, 0),
        (1, 3): (0, 0, -1, 0, 0, 0),
        (1, 4): (0, 0, 0, 0, 0, 2),
        (1, 5): (0, 0, 0, 0, -2, 0),
    })
    expect_code("P_NOT_TWO_COPIES", a, [0], [1], [2, 3, 4, 5])


def test_p_does_not_split():
    # a Jordan block action has an invariant line with no invariant
    # complement
    a = alg(4, {(1, 2): (0, 0, 0, 1)})
    err = expect_code("P_NOT_TWO_COPIES", a, [0], [1], [2, 3])
    assert "does not split" in str(err)


@pytest.mark.parametrize("m", [18, 30])
def test_large_heisenberg_momenta_rejected_quickly(m):
    # P splits into m lines; each split is at most m unit-vector spins and
    # one linear solve (s = 0 is not semisimple, so no piece is certified
    # by its commutant), so the rejection time grows polynomially in m
    parsed = parse_document(heisenberg_document(m))
    start = time.perf_counter()
    expect_code(
        "P_NOT_TWO_COPIES", parsed.algebra,
        parsed.z_indices, parsed.s_indices, parsed.p_indices,
    )
    assert time.perf_counter() - start < 1.0


def test_v_not_faithful():
    a = alg(7, {
        (1, 3): (0, 0, 0, 0, 1, 0, 0),
        (1, 4): (0, 0, 0, -1, 0, 0, 0),
        (1, 5): (0, 0, 0, 0, 0, 0, 1),
        (1, 6): (0, 0, 0, 0, 0, -1, 0),
    })
    expect_code("V_NOT_FAITHFUL", a, [0], [1, 2], [3, 4, 5, 6])


def test_wedge_condition_fails_for_small_rotation_groups():
    for fam in catalog.FAMILIES:
        e = catalog.make(fam, 3)
        z, s, p = entry_roles(e)
        expect_code("WEDGE_CONDITION_FAILS", e.algebra, z, s, p)


def test_no_invariant_form():
    # rotation plus dilation: simple over the rationals but incompatible
    # with every symmetric form
    a = alg(6, {
        (1, 2): (0, 0, 1, -1, 0, 0),
        (1, 3): (0, 0, 1, 1, 0, 0),
        (1, 4): (0, 0, 0, 0, 1, -1),
        (1, 5): (0, 0, 0, 0, 1, 1),
    })
    expect_code("NO_INVARIANT_FORM", a, [0], [1], [2, 3, 4, 5])


def test_sigma_not_automorphism():
    # with no rotations every earlier check passes, but a bracket of two
    # momenta landing back among the momenta breaks the grading
    a = alg(3, {(1, 2): (0, 1, 0)})
    expect_code("SIGMA_NOT_AUTOMORPHISM", a, [0], [], [1, 2])


def test_canonical_involution_function():
    e = catalog.make("poincare", 4)
    _, _, p = entry_roles(e)
    sigma = canonical_involution(e.algebra, p)
    n = e.algebra.dim
    for i in range(n):
        expected = -1 if i in p else 1
        assert sigma[i, i] == expected
    with pytest.raises(ValidationError):
        canonical_involution(alg(3, {(1, 2): (0, 1, 0)}), [1, 2])


# ---------------------------------------------------------------------------
# the two-form, the transvection algebra, the central action

def test_omega_matrix_poincare():
    e = catalog.make("poincare", 4)
    z, s, p = entry_roles(e)
    st = validate(e.algebra, z, s, p)
    sym = omega_and_radical(st)
    rows = [[F(0)] * 8 for _ in range(8)]
    for i in range(4):
        rows[i][4 + i] = F(1)
        rows[4 + i][i] = F(-1)
    assert sym.omega == Mat(rows)
    assert sym.radical_case == "zero"
    assert sym.radical.dim == 0


def test_omega_radical_cases():
    for fam, case, rdim in [
        ("static", "all", 8),
        ("galilei", "all", 8),
        ("carroll", "zero", 0),
        ("de_sitter", "zero", 0),
    ]:
        e = catalog.make(fam, 4)
        z, s, p = entry_roles(e)
        st = validate(e.algebra, z, s, p)
        sym = omega_and_radical(st)
        assert (sym.radical_case, sym.radical.dim) == (case, rdim)


def test_omega_module_radical():
    a = heisenberg_like()
    st = validate(a, [0], [1], [2, 3, 4, 5])
    sym = omega_and_radical(st)
    assert sym.radical_case == "module"
    assert sym.radical == Subspace.span(4, [unit_vec(4, 2), unit_vec(4, 3)])


def test_transvection_poincare():
    e = catalog.make("poincare", 4)
    z, s, p = entry_roles(e)
    st = validate(e.algebra, z, s, p)
    tr = transvection_and_holonomy(st)
    assert tr.pp.dim == 7
    assert tr.transvection.dim == 15
    assert tr.centralizer.dim == 0
    assert tr.holonomy_dim == 7
    assert not tr.flat


def test_classify_never_brackets_the_transvection_algebra(monkeypatch):
    # [T, T] is read off the action of [P, P] on P, and it is the first
    # derived step of the transvection-not-solvable item
    e = catalog.make("poincare", 5)
    z, s, p = entry_roles(e)
    t = transvection_and_holonomy(validate(e.algebra, z, s, p)).transvection
    calls = []
    original = LieAlgebra.bracket_span

    def counted(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(LieAlgebra, "bracket_span", counted)
    result = classify(e.algebra, z, s, p)
    assert result.label == "poincare-type"
    assert ("transvection-not-solvable", True) in [
        (name, ok) for name, ok, _ in result.poincare_items
    ]
    assert not any(a == t and b == t for a, b in calls)


def test_kahler_split_brackets_only_the_eigenspaces(monkeypatch):
    # [g+, g+] and [g-, g-] are the eigenspaces-abelian check; the other
    # degrees of the grading are facts validate and the split check
    # already, so no other pair is bracketed
    e = catalog.make("de_sitter", 4)
    z, s, p = entry_roles(e)
    st = validate(e.algebra, z, s, p)
    zdata = z_action_split(st)
    sym = omega_and_radical(st)
    calls = []
    original = LieAlgebra.bracket_span

    def counted(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(LieAlgebra, "bracket_span", counted)
    split = kinematics.kahler_split(st, zdata, sym)
    assert split.certificates["checks"]["eigenspaces-abelian"]
    assert len(calls) == len(set(calls)) == 2
    assert all(a == b for a, b in calls)


def test_poincare_pieces_are_certified_once(monkeypatch):
    # the Levi factor's search solves Hom_s(V, pr) once, through
    # certify_copy, which certifies the radical piece pr by its first
    # element; the central action maps the complement piece onto pr as
    # s-modules, so no piece is compared with V again
    copies, solved = [], []
    original_copy, original_hom = kinematics.certify_copy, repth.hom_space

    def counted_copy(simple, module):
        copies.append((simple, module, len(solved)))
        return original_copy(simple, module)

    def counted_hom(rep1, rep2):
        solved.append((rep1, rep2))
        return original_hom(rep1, rep2)

    monkeypatch.setattr(kinematics, "certify_copy", counted_copy)
    monkeypatch.setattr(kinematics, "hom_space", counted_hom)
    monkeypatch.setattr(repth, "hom_space", counted_hom)
    result, _ = classify_entry("poincare", 5)
    items = {name: ok for name, ok, _ in result.poincare_items}
    assert items["pieces-isomorphic-to-v"]
    assert items["z-action-maps-one-piece-onto-the-other"]
    assert [module.dim for _, module, _ in copies] == [5]
    v, pr, before = copies[0]
    # from the certificate on, exactly one solve into a piece: Hom_s(V, pr)
    assert solved[before:] == [(v, pr)]
    assert pr.simplicity.kind == "intertwiner" and pr.simplicity.source is v


def test_transvection_carroll_is_flat_with_nonzero_brackets():
    e = catalog.make("carroll", 4)
    z, s, p = entry_roles(e)
    st = validate(e.algebra, z, s, p)
    tr = transvection_and_holonomy(st)
    assert tr.pp.dim == 1
    assert tr.centralizer.dim == 1
    assert tr.flat


def test_z_action_kinds():
    expected = {
        "static": "zero",
        "galilei": "nilpotent",
        "newton_hooke_plus": "semisimple",
        "newton_hooke_minus": "semisimple",
        "carroll": "zero",
        "poincare": "nilpotent",
        "de_sitter": "semisimple",
        "anti_de_sitter": "semisimple",
    }
    for fam, kind in expected.items():
        e = catalog.make(fam, 4)
        z, s, p = entry_roles(e)
        st = validate(e.algebra, z, s, p)
        zd = z_action_split(st)
        assert zd.kind == kind, fam
        assert zd.a_matrix == zd.s_part + zd.n_part
        if kind == "nilpotent":
            assert (zd.a_matrix @ zd.a_matrix).is_zero()


# ---------------------------------------------------------------------------
# classification labels and certificates

def test_label_set_is_closed():
    assert LABELS == {
        "flat-rad-equals-P", "flat-heisenberg", "flat-other",
        "three-graded-para-kahler", "pseudo-kahler", "poincare-type",
        "unclassified",
    }
    for fam in catalog.FAMILIES:
        r, e = classify_entry(fam, 4)
        assert r.label in LABELS
        assert r.label == e.expected_label


def test_flat_rad_equals_p_certificates():
    r, _ = classify_entry("galilei", 4)
    assert r.label == "flat-rad-equals-P"
    assert r.certificates == {"pp_dim": 0, "p_plus_z_ideal": True}
    assert r.flat
    assert r.indecomposable is None
    assert r.to_dict()["indecomposable"] == "not determined"


def test_flat_heisenberg_classification():
    a = heisenberg_like()
    r = classify(a, [0], [1], [2, 3, 4, 5])
    assert r.label == "flat-heisenberg"
    assert r.radical_case == "module"
    assert r.radical_dim == 2
    c = r.certificates
    assert c["complement_brackets_span_center"]
    assert c["center_acts_trivially"]
    assert c["radical_commutes_with_complement"]
    assert c["radical_abelian"]
    assert c["radical_basis"] == Subspace.span(4, [unit_vec(4, 2), unit_vec(4, 3)])
    assert c["complement_basis"] == Subspace.span(4, [unit_vec(4, 0), unit_vec(4, 1)])


def test_de_sitter_split():
    r, _ = classify_entry("de_sitter", 4)
    assert r.label == "three-graded-para-kahler"
    assert r.mu == 1
    c = r.certificates
    assert c["eigenvalue"] == 1
    assert all(c["checks"].values())
    lpos = Subspace.span(8, [tuple(int(j == i) - int(j == 4 + i) for j in range(8))
                             for i in range(4)])
    lneg = Subspace.span(8, [tuple(int(j == i) + int(j == 4 + i) for j in range(8))
                             for i in range(4)])
    assert c["l_basis"] == lpos
    assert c["l_bar_basis"] == lneg
    grading = c["grading"]
    assert set(grading) == {"-1", "0", "1"}
    assert grading["1"].dim == 4 and grading["-1"].dim == 4
    assert grading["0"].dim == 7
    assert any("sign" in note for note in r.notes)


def test_anti_de_sitter_split():
    r, _ = classify_entry("anti_de_sitter", 4)
    assert r.label == "pseudo-kahler"
    assert r.mu == -1
    j = r.certificates["complex_like_structure"]
    assert (j @ j) == Mat.identity(8).scale(F(-1))


def so_q_de_sitter_like(h_scale=1):
    """so(Q) for Q = diag(-1, 1, 1, 1, 1, 2), a d = 4 de Sitter-like
    algebra whose central action squares to an irrational scale.

    Realized by matrices, as the catalog realizes its families: the
    rotations J_ab = E_ab - E_ba, B_i = E_0i + E_i0, P_i = E_i5 - E_5i / 2
    and H = h_scale (E_05 + E_50 / 2); each commutator's coordinates are
    solved for in the span of the generators.  Returns the algebra and
    its (z, s, p) roles.
    """

    def unit(i, j, c=1):
        rows = [[0] * 6 for _ in range(6)]
        rows[i][j] = c
        return Mat(rows)

    mats, labels = [], []
    for a in range(1, 5):
        for b in range(a + 1, 5):
            mats.append(unit(a, b) - unit(b, a))
            labels.append(f"J{a}_{b}")
    for i in range(1, 5):
        mats.append(unit(0, i) + unit(i, 0))
        labels.append(f"B{i}")
    for i in range(1, 5):
        mats.append(unit(i, 5) - unit(5, i, F(1, 2)))
        labels.append(f"P{i}")
    mats.append((unit(0, 5) + unit(5, 0, F(1, 2))).scale(h_scale))
    labels.append("H")

    def flat(m):
        return [x for row in m.entries for x in row]

    span = Mat(list(zip(*[flat(m) for m in mats])))
    pairs = {}
    for i, x in enumerate(mats):
        for j in range(i + 1, len(mats)):
            comm = x @ mats[j] - mats[j] @ x
            if not comm.is_zero():
                pairs[(i, j)] = solve(span, flat(comm)).particular
    n = len(mats)
    return LieAlgebra(n, pairs, labels), ([n - 1], list(range(6)), list(range(6, n - 1)))


def test_positive_irrational_square_is_certified_by_the_scalar():
    algebra, roles = so_q_de_sitter_like()
    report = classify(algebra, *roles).to_dict()
    assert report["label"] == "three-graded-para-kahler"
    assert report["z_action"] == "semisimple"
    assert report["mu"] == "1/2" and report["mu_sign"] == 1
    # no eigenspace certificate: sqrt(1/2) is not rational
    assert report["certificates"] == {"a_squared_scalar": "1/2"}
    assert report["notes"][1] == (
        "the action squares to 1/2 > 0 with irrational root; the eigenspace "
        "split exists over the extension field and is certified here only "
        "by the scalar square"
    )
    # rescaling Z by lambda = 2 multiplies mu by lambda^2
    algebra, roles = so_q_de_sitter_like(h_scale=2)
    r2 = classify(algebra, *roles)
    assert r2.label == "three-graded-para-kahler"
    assert r2.mu == 2
    assert r2.certificates == {"a_squared_scalar": 2}


def test_poincare_certificate_items():
    r, e = classify_entry("poincare", 4)
    assert r.label == "poincare-type"
    names = [name for name, ok, _ in r.poincare_items]
    assert names == [
        "radical-abelian",
        "sigma-stable-levi-containing-s",
        "p-splits-lagrangian-dual",
        "pieces-isomorphic-to-v",
        "bracket-of-pieces-is-z",
        "z-action-maps-one-piece-onto-the-other",
        "transvection-not-solvable",
        "holonomy-nonzero",
    ]
    assert all(ok for _, ok, _ in r.poincare_items)
    assert r.holonomy_dim == 7
    assert r.indecomposable is True
    assert any("cotangent" in note for note in r.notes)

    # the solvable radical is the translation ideal
    lab = e.algebra.labels
    n = e.algebra.dim
    rad = e.algebra.solvable_radical()
    expected = Subspace.span(n, [
        unit_vec(n, lab.index(x)) for x in ("P1", "P2", "P3", "P4", "H")
    ])
    assert rad == expected
    assert e.algebra.is_abelian_space(rad)


@pytest.mark.parametrize("d", (2, 4))
def test_the_euclidean_twin_is_poincare_type(d):
    # negating [B_i, B_j] and [B_i, H] keeps a Lie algebra whose every
    # Poincare item holds; the report does not yet tell it from poincare,
    # whose Killing form on the Levi factor's momenta has another inertia
    algebra, roles = euclidean_twin(d)
    r = classify(algebra, *roles)
    assert r.label == "poincare-type"
    assert [ok for _, ok, _ in r.poincare_items] == [True] * 8


def test_tiny_poincare_is_honestly_unclassified():
    r, _ = classify_entry("poincare", 1)
    assert r.label == "unclassified"
    by_name = {name: ok for name, ok, _ in r.poincare_items}
    assert by_name["radical-abelian"] is False
    assert by_name["holonomy-nonzero"] is True


def test_dict_reports_are_deterministic_json():
    r1, _ = classify_entry("de_sitter", 4)
    r2, _ = classify_entry("de_sitter", 4)
    s1 = json.dumps(r1.to_dict(), sort_keys=True)
    s2 = json.dumps(r2.to_dict(), sort_keys=True)
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["label"] == "three-graded-para-kahler"
    assert parsed["mu"] == "1"
    assert parsed["mu_sign"] == 1
    assert parsed["sigma_check"] == {"automorphism": True, "involutive": True}
    assert len(parsed["omega"]) == 8 and len(parsed["omega"][0]) == 8
    assert parsed["validation"][0] == ["partition", True]


# sha256 of json.dumps(to_dict(), sort_keys=True, indent=2), recorded when
# every copy of the simple summand still ran the full simplicity search
REPORTS_BEFORE_TRANSPORT = {
    "poincare": (
        "poincare-type",
        "627a61227eafc9fbf1d1bfbb6aea50c8d5391a4f910788639bee0d0ce22cf66d",
    ),
    "de_sitter": (
        "three-graded-para-kahler",
        "85db70c42193dbee3c85fad83c4e44c0ce762250d32e4813a211be13f3567bcb",
    ),
}


@pytest.mark.parametrize("family", sorted(REPORTS_BEFORE_TRANSPORT))
def test_one_enveloping_algebra_per_classify(monkeypatch, family):
    calls = count_calls(monkeypatch, "enveloping_basis")
    r, _ = classify_entry(family, 4)
    # the summand is certified by its commutant, with no enveloping algebra
    assert calls == []
    label, digest = REPORTS_BEFORE_TRANSPORT[family]
    assert r.label == label
    text = json.dumps(r.to_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_catalog_summands_need_no_envelope_and_no_solve(monkeypatch):
    # P runs is_simple once, whose first kernel spin splits it; the first
    # summand is simple by its commutant, the other is a copy of it, and a
    # unit-vector spin is the complement
    calls = {
        name: count_calls(monkeypatch, name)
        for name in ("is_simple", "enveloping_basis", "invariant_complement")
    }
    for d in (3, 4, 5, 6):
        for family in catalog.FAMILIES:
            for seen in calls.values():
                seen.clear()
            e = catalog.make(family, d)
            z, s, p = entry_roles(e)
            try:
                classify(e.algebra, z, s, p)
            except ValidationError as exc:
                assert (d, exc.code) == (3, "WEDGE_CONDITION_FAILS")
            assert calls == {
                "is_simple": [2 * d], "enveloping_basis": [], "invariant_complement": []
            }, (family, d)
