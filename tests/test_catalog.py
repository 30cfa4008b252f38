import hashlib
import json
from fractions import Fraction as F

import pytest

from kinsila import catalog
from kinsila.documents import entry_to_document
from kinsila.errors import InternalFault
from kinsila.exactla import Mat, unit_vec


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


# per family, the sha256 of ``json.dumps(entry_to_document(entry),
# sort_keys=True, indent=2)`` for d = 1, ..., 6: the structure constants
# as they were before the catalog was built in integers
DOCUMENTS = {
    "anti_de_sitter": (
        "d7863e6617273af11fc5f95c21c6ae9251b9f4102cf94167a6712defc7ae6189",
        "285bb85e3625faab68a2dc2565e5ec51491cbc03806deabccd8b52b3c1fad3bf",
        "27ccea7c20010aba259fb1988e5d158b5919da30c413139523d44f8ab16fa406",
        "7acdb6aff71bdfba684a926ad25fa069d929acd623bc9446d39681af947420f2",
        "fac26218e2e637ee1f6562f341e78b8faf426918eff414ed7f7e3a421e09fca8",
        "a1a39bd1e47b73bc2476d2195c618c2eb2e5fbf40ea6fc387abc0eddc95ae111",
    ),
    "carroll": (
        "a8b3c9ee368464b45b6375ea5972b3f4937b91676cb5494e0796d6a2d40b2924",
        "21f9f931e50b260fb68a550f487e863db1b3b8996b5ad2a63975a6eb8f4febf1",
        "5790248609b9a1c1e378ac26043856dbb56833da1608be66bd6a3e8c808967b2",
        "647c98c39e7a612de07940f8b4f9935e81d5b171a3dc8bc915a694a9cae62e9b",
        "ce00ee5b851c08d5cfa3f5bf57c5ad9f284775ffac9b02c860334f38850da33d",
        "d48d933f9ade5ac3b5c9dc464559f5d0163e500bce12e1feade0ae42b068a644",
    ),
    "de_sitter": (
        "b69f0648dd5192e6ddee777dc234a0059d4f5709627ce104396af9037a90907f",
        "83e10d261dd658c5323830539e4338f3760328a04444f7a18b87105a33c4e7b8",
        "bddea41afdc16f8bed644926a24f7b35d4f2b508c0841ddd0d84955b24c38393",
        "f62d525dba9ed75b4e210fbd70754006f6f21ce1c818a9548884b8a3d19b24e6",
        "c7eaac55f7d8947ac714f3033517228a2ea581bd4a36d161f95dfc23efe87a4d",
        "0c54caabda769423c276608410fc9d3d66ff539f14e52fe8b67473ae4be2ec12",
    ),
    "galilei": (
        "95642939f916471fdb814f54c2f10d0b2633b5c2719376e5b42f4ab9279f0223",
        "041d007147d6b5d80e585919191109149d47866c34d05f3c32582c5589a13549",
        "b44b1e64aba6719e4a8fb4c7dc2b6eb00783c523b459f6f5ce8f5c2971e48315",
        "8f5790db3fd52408d511e8532a01be83d52bb152616140bec1b845e3f3a4a4e8",
        "5f27d1e52fd5214e92cd33d2cb9cd9c008cadf2003ff2e7edb44951ea158c309",
        "52feecc9609e4f135c2b011b23b1691881bd7a86442519e14672bcb33caf908b",
    ),
    "newton_hooke_minus": (
        "7d32adaece7ce77731eeb40588f42bc325ff5d840b4ad4d171d9ba60f0bbd09f",
        "1f2ef7e81d2b531901d4bbb634097bf030ece23131f0ae4f8f41cfbb97740a41",
        "89491dff4d01cd98e4f9584da2f3a2cfe092e6e2fc060573572113d3b9505405",
        "30fdfdbbb8d4358c684be3165dfba277fd676c51d34beffd40221ca98b58e5c2",
        "a9cd64a3215ced75fadee6ae37f0214e71925d37fc2b12db26201ce38bb8909f",
        "360109bbbf103de67104d8f40a78c6019e88ff25c8331c6c28d627a72f6cae33",
    ),
    "newton_hooke_plus": (
        "1a224fe84d8823bd83cf2edf774651e41b86019c35ec2a4ba27690d487c858f1",
        "8713175374055a6fd9517cec8beedaed5fb6283cdbb243d2321a886a3574041b",
        "bc9ac3de2d59e1dd0fe281fef0e32ec48b4983d62de95683c5df235154f5876c",
        "e58d5e1c8fbcdf18859374f8460ea27d241d242c31e5b3ec50d9e238ac73bc10",
        "1b60f57d1fa5384c7150b1d0b9ddaccf749e5c872ad9af4c80bf19f42c56c703",
        "f722203447ca2260414a99b65177d5703ca77021b7eb9c4b324e26de43698822",
    ),
    "poincare": (
        "53e5c234231f3bd46bad3f47b32c08f7c52c1742eec8199c0a1637c1c202c597",
        "d1e08b21a55560dfb59d7070273ceee4ba7f6956f0c4f5d32ae08b18213b468f",
        "63fff53121172412958c7ef0d43a54321ea6c2a159ac40fdfe7ecfac0ae7234f",
        "bc3c9ca581dd87f55e623009e10f138cce7ef7d471ef4373d1169db66aaa9fe3",
        "5460d2416ec3e04b34c27dff334be042a8b4e66120c5810775271f686e24f6df",
        "7ec105b442c59950db080036c4846cdccfbc1ed1f25509bb4abbb749d5542c1b",
    ),
    "static": (
        "069274ad0068b4cc685e1aaf4b2cf18530dbeef4f6773af2857f5c99cf7674d4",
        "5d81df8dbb72f9aad89270668d76353e90de57e0cf3cdbe20b194927b4056888",
        "1c6c45f9f4e1dd911869637b0beeabc25b6bd327c8b984e761241517ac1448a1",
        "ff6a1fbabaaa1a54e7ce5aba809a535a5c76ec5e9668cd96f0fed7cbc864abd3",
        "78959d7139c6c36928fbb97bc10ca0a5f654f75af851fe222c179f5523a80e23",
        "6137fa403923b77949594300eca2313437d828ca3b0d4a1f363f03f78faf88fb",
    ),
}


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_structure_constants_are_pinned(family):
    got = tuple(
        hashlib.sha256(json.dumps(
            entry_to_document(catalog.make(family, d)), sort_keys=True, indent=2
        ).encode()).hexdigest()
        for d in range(1, 7)
    )
    assert got == DOCUMENTS[family]


def test_catalog_builds_without_matrix_products(monkeypatch):
    # commutators are sparse integer products of the realization's rows:
    # no Mat product or difference is taken on the way to the algebra
    def refuse(*_args):
        raise AssertionError("catalog.make took a Mat product or difference")

    monkeypatch.setattr(Mat, "__matmul__", refuse)
    monkeypatch.setattr(Mat, "__sub__", refuse)
    catalog.make.cache_clear()
    try:
        for family in catalog.FAMILIES:
            for d in range(1, 7):
                assert catalog.make(family, d).algebra.dim == catalog.dim_formula(d)
    finally:
        catalog.make.cache_clear()


@pytest.fixture
def realization(monkeypatch):
    """Replace the realization's generator matrices through an edit
    function; the cache is cleared around the case so that `make` builds
    anew and keeps no entry of the edited realization."""
    original = catalog._realization

    def install(edit):
        def edited(family, d):
            mats, n = original(family, d)
            return edit(list(mats), n), n
        monkeypatch.setattr(catalog, "_realization", edited)

    catalog.make.cache_clear()
    yield install
    catalog.make.cache_clear()


def test_dependent_generators_are_an_internal_fault(realization):
    def duplicate(mats, n):
        mats[-1] = mats[0]
        return mats

    realization(duplicate)
    with pytest.raises(InternalFault) as info:
        catalog.make("poincare", 4)
    assert info.value.args[0] == "realization generators are linearly dependent"
    assert info.value.certificate == {"family": "poincare", "d": 4}


def test_commutator_outside_the_span_is_an_internal_fault(realization):
    def corner_for_h(mats, n):
        # H becomes E_00; [B1, P1] = E_05 then leaves the generator span
        mats[-1] = Mat([[int(i == j == 0) for j in range(n)] for i in range(n)])
        return mats

    realization(corner_for_h)
    with pytest.raises(InternalFault) as info:
        catalog.make("poincare", 4)
    assert info.value.args[0] == "commutator is not in the generator span"
    assert info.value.certificate == {"family": "poincare", "d": 4, "pair": (6, 10)}
