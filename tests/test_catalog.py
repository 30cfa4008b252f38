from fractions import Fraction as F

import pytest

from kinsila import catalog
from kinsila.exactla import unit_vec


def bkf(entry, l1, l2):
    """Bracket of two labeled generators as a {label: coeff} dict."""
    alg = entry.algebra
    i = alg.labels.index(l1)
    j = alg.labels.index(l2)
    w = alg.bracket(unit_vec(alg.dim, i), unit_vec(alg.dim, j))
    return {alg.labels[k]: c for k, c in enumerate(w) if c}


def test_dim_formula():
    for d in (1, 2, 3, 4, 5):
        assert catalog.dim_formula(d) == d * (d - 1) // 2 + 2 * d + 1
    for fam in catalog.FAMILIES:
        for d in (3, 4, 5):
            e = catalog.make(fam, d)
            assert e.algebra.dim == catalog.dim_formula(d)


def test_label_layout():
    e = catalog.make("poincare", 4)
    assert e.algebra.labels == [
        "J1_2", "J1_3", "J1_4", "J2_3", "J2_4", "J3_4",
        "B1", "B2", "B3", "B4", "P1", "P2", "P3", "P4", "H",
    ]
    assert e.z_label == "H"
    assert tuple(e.s_labels) == ("J1_2", "J1_3", "J1_4", "J2_3", "J2_4", "J3_4")
    assert tuple(e.p_labels) == ("B1", "B2", "B3", "B4", "P1", "P2", "P3", "P4")


def test_rotation_action_shared_by_all_families():
    for fam in catalog.FAMILIES:
        e = catalog.make(fam, 4)
        assert bkf(e, "J1_2", "B2") == {"B1": 1}
        assert bkf(e, "J1_2", "B1") == {"B2": -1}
        assert bkf(e, "J1_2", "P2") == {"P1": 1}
        assert bkf(e, "J1_2", "B3") == {}
        assert bkf(e, "J1_2", "H") == {}
        assert bkf(e, "J1_2", "J3_4") == {}
        assert bkf(e, "J1_2", "J2_3") == {"J1_3": 1}


FAMILY_TABLES = {
    # (B1,P1), (H,B1), (H,P1), (B1,B2), (P1,P2)
    "static": ({}, {}, {}, {}, {}),
    "galilei": ({}, {"P1": -1}, {}, {}, {}),
    "newton_hooke_plus": ({}, {"P1": -1}, {"B1": -1}, {}, {}),
    "newton_hooke_minus": ({}, {"P1": -1}, {"B1": 1}, {}, {}),
    "carroll": ({"H": 1}, {}, {}, {}, {}),
    "poincare": ({"H": 1}, {"P1": -1}, {}, {"J1_2": 1}, {}),
    "de_sitter": ({"H": 1}, {"P1": -1}, {"B1": -1}, {"J1_2": 1}, {"J1_2": -1}),
    "anti_de_sitter": ({"H": 1}, {"P1": -1}, {"B1": 1}, {"J1_2": 1}, {"J1_2": 1}),
}


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_family_bracket_tables(family):
    e = catalog.make(family, 4)
    bp, hb, hp, bb, pp = FAMILY_TABLES[family]
    assert bkf(e, "B1", "P1") == bp
    assert bkf(e, "H", "B1") == hb
    assert bkf(e, "H", "P1") == hp
    assert bkf(e, "B1", "B2") == bb
    assert bkf(e, "P1", "P2") == pp


def test_expected_labels():
    assert catalog.EXPECTED_LABEL == {
        "static": "flat-rad-equals-P",
        "galilei": "flat-rad-equals-P",
        "newton_hooke_plus": "flat-rad-equals-P",
        "newton_hooke_minus": "flat-rad-equals-P",
        "carroll": "flat-other",
        "poincare": "poincare-type",
        "de_sitter": "three-graded-para-kahler",
        "anti_de_sitter": "pseudo-kahler",
    }
    for fam in catalog.FAMILIES:
        assert catalog.make(fam, 5).expected_label == catalog.EXPECTED_LABEL[fam]


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_roles_index_the_role_labels(family):
    e = catalog.make(family, 3)
    z, s, p = e.roles()
    labels = e.algebra.labels
    assert [labels[i] for i in z] == [e.z_label]
    assert tuple(labels[i] for i in s) == e.s_labels
    assert tuple(labels[i] for i in p) == e.p_labels
    assert sorted(z + s + p) == list(range(e.algebra.dim))


def test_cache_identity():
    assert catalog.make("poincare", 4) is catalog.make("poincare", 4)


def test_bad_arguments():
    with pytest.raises(ValueError):
        catalog.make("euclidean", 4)
    with pytest.raises(ValueError):
        catalog.make("poincare", 0)


def test_brackets_are_exact_fractions():
    e = catalog.make("de_sitter", 3)
    w = bkf(e, "P1", "P2")
    assert w == {"J1_2": -1}
    assert all(isinstance(c, F) for c in w.values())
