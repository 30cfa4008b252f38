"""Pinned classify reports for every catalog entry at d = 1..6, and for
the rebased d = 4 draws of seeds 5, 11 and 23.

For each entry the test pins either the sha256 of
``json.dumps(to_dict(), sort_keys=True, indent=2)`` or, for an entry
that validation rejects, the ``ValidationError`` code.  The catalog
values were recorded before `Mat` stored only its integer view, and the
rebased ones before `Subspace` stored only its integer rows, so a change
in the exact arithmetic that alters a single report byte fails here.
"""

import hashlib
import json
import random

import pytest

from conftest import bench_workloads, structure_pairs
from kinsila import catalog
from kinsila.errors import ValidationError
from kinsila.kinematics import classify
from kinsila.liecore import LieAlgebra

# per family, the pins for d = 1, ..., 6; "error:CODE" for a rejection
REPORTS = {
    "anti_de_sitter": (
        "ec8ce44270a1538762034d8d9d22ca50c3f84bd837ec8828b7a9b9218c6cbccb",
        "cba80b848e674e0ca41ff723c8d413fac31a969c245f8008d4a0e37e95af9c33",
        "error:WEDGE_CONDITION_FAILS",
        "f7f65328a81a519334e37517096920229c8c2dc7161680702695ab91da858a96",
        "b5e0fd3747f3a6b05ac83582ff5f96092fbcf90ec63d70d9fb476062524cc307",
        "4fe6f68bc1a4f733cc04e969ef27ca1be976c400abf50f1299bd795513b63ecd",
    ),
    "carroll": (
        "4414bcd72c048b1c355e32447a1869f58348cc96eccae2563f79662a2712cde2",
        "462e525846ea504ed351559ddec8539c4b1b9b2f1849ee43100a952ac328e998",
        "error:WEDGE_CONDITION_FAILS",
        "741eda32c4105df2fcb7250caec1b48a4f27be796d32aa1a5f568bf7f927b062",
        "3a4c66ce0f96d260f266845b87e54b8b171375ca05af9070115e9ec87cdf08b0",
        "0f064bdd3b5906e4d5b5a3a2d2811215275a9132e8bfc14e1473bda9bf3bf0da",
    ),
    "de_sitter": (
        "203fbb563b845e0ccb4650ca1c9f8fa1f9ccb8fd28c77ee9b4c5a1e2326c65a1",
        "1ad9084f591bd4ecb134bece8906443f51ba4b43e1b9584b61d6ad5d2ea5a6ae",
        "error:WEDGE_CONDITION_FAILS",
        "85db70c42193dbee3c85fad83c4e44c0ce762250d32e4813a211be13f3567bcb",
        "06572517abcb3ea0e7fa6a5662d2073ddd2fbf34ac4afd952bb9237219f9f271",
        "4b7ebfb93237533b2e1489fd8f4da68337747184a6d3da0801187b73d599fbab",
    ),
    "galilei": (
        "7a0467ef2d2e82577e06c86066b15d240e90bb8cacaa28c089988556dca95ce3",
        "106f29bfa972cb92b321f5e99980be58c1b4ffdd84614a85f6d1790523b00d92",
        "error:WEDGE_CONDITION_FAILS",
        "55466f13417e6ae69b6e6a5844bb53593eb72ccd297edaa48f3299a46aeff31f",
        "e6bd9b217c4ec9b5a2a028b8aabc3879c7b80a56e22d7a52c4113c2b0ee85449",
        "78177da867f19f9f6764c3ff8e84ef468832e89e8c1ae4d44d5742c97557ab95",
    ),
    "newton_hooke_minus": (
        "81b0f998159b32e361cc5a758059efb6e8a6964d0ddd9401bf31943344d3576d",
        "aecf124e67540e26469c4ab2b67781dfcacb2e7e2d66343ed02fad724c814c88",
        "error:WEDGE_CONDITION_FAILS",
        "61cce3f119c3b11b5204ba78a7169672fa49c0e37cd67da5b59c52223fe74cc2",
        "e85f964ee355f1b781b297fd1c0acf50598d359abe11af865d043e71a3181dbb",
        "92e834482db029b24b17e72fc3a8df33e87c26916a29a55566afa65ce11b5c2b",
    ),
    "newton_hooke_plus": (
        "81b0f998159b32e361cc5a758059efb6e8a6964d0ddd9401bf31943344d3576d",
        "aecf124e67540e26469c4ab2b67781dfcacb2e7e2d66343ed02fad724c814c88",
        "error:WEDGE_CONDITION_FAILS",
        "61cce3f119c3b11b5204ba78a7169672fa49c0e37cd67da5b59c52223fe74cc2",
        "e85f964ee355f1b781b297fd1c0acf50598d359abe11af865d043e71a3181dbb",
        "92e834482db029b24b17e72fc3a8df33e87c26916a29a55566afa65ce11b5c2b",
    ),
    "poincare": (
        "27110e424f2eba2293ddde1b910acc8bc96958bf90ab34c2e508903b2cd40f36",
        "51e42567b7d75c62bede86f0158fdeb45609f8348c10cf87c404839f8685c136",
        "error:WEDGE_CONDITION_FAILS",
        "627a61227eafc9fbf1d1bfbb6aea50c8d5391a4f910788639bee0d0ce22cf66d",
        "8ded3edf5df602b4c73a54e99b40fb27e3105332a2c15d9a172c10b282df37e6",
        "1955e8884cb76e97723734b99fb6bf4e6e62a73f5ff0115730220a9e52b97ac6",
    ),
    "static": (
        "867474df05469ae59d323c3c16ce59c944b902d6c15943e962ae4077d462851b",
        "6f1ab1a76a9f8b92b572f3a5b84a9111c8e53f44bd3117831b2b880b4b18e5d8",
        "error:WEDGE_CONDITION_FAILS",
        "6bc8dae029f6c416f549a6e7eca50597be4bc416fc819dd0aa6f4ce9a66d4c1e",
        "45bf35e1a755d902c9350462f22fd3575caabab9868f2a0a86a50a01db1f5e35",
        "81aba480343cd072bfe3a59203b53e88b420aa3984966409626522780569416c",
    ),
}

# per family, the pins of draw 0 of the `rebased` benchmark workload at
# seeds 5, 11 and 23 (a role-preserving change of basis of the d = 4 entry)
REBASED_SEEDS = (5, 11, 23)
REBASED = {
    "anti_de_sitter": (
        "a5c6e9766be5942497c10ff2954537cd7782f427be8d7d3d68e80a15cd018e64",
        "0716243f8a4155fed432f9335e042253110640cfa26a6f4db0e9fe69f0329fc2",
        "7892cd8ba80f30d9bb4c931dd754f75eab4f67e7fe9af9607eefda0c154de526",
    ),
    "carroll": (
        "ccf3afed5f9309f75e10eef92f407dd714ba89af4a4bf70ef64c04cc16b1323d",
        "08be3b3cd1610a23383d17da6d6a7761c7de9cf5b2053e46d7dd3932138b6474",
        "f7414f07e2a5c8e9fa3886c4a960cf1bb6621c205cf36480d04227e3c9aec59c",
    ),
    "de_sitter": (
        "6aa8fc8f942f2ec6e206d2c5c1de8883e4b07d39affd3c3f6ad36f363056c675",
        "34f35cf2863cec8bc023584bfb5187d763c0d064ec1ea4a980d73adeb5f83194",
        "c889ff5a936757bae9cc030a46156913eadaf6c903745c5463fc5446a66024b6",
    ),
    "galilei": (
        "55466f13417e6ae69b6e6a5844bb53593eb72ccd297edaa48f3299a46aeff31f",
        "55466f13417e6ae69b6e6a5844bb53593eb72ccd297edaa48f3299a46aeff31f",
        "55466f13417e6ae69b6e6a5844bb53593eb72ccd297edaa48f3299a46aeff31f",
    ),
    "newton_hooke_minus": (
        "61cce3f119c3b11b5204ba78a7169672fa49c0e37cd67da5b59c52223fe74cc2",
        "61cce3f119c3b11b5204ba78a7169672fa49c0e37cd67da5b59c52223fe74cc2",
        "61cce3f119c3b11b5204ba78a7169672fa49c0e37cd67da5b59c52223fe74cc2",
    ),
    "newton_hooke_plus": (
        "61cce3f119c3b11b5204ba78a7169672fa49c0e37cd67da5b59c52223fe74cc2",
        "61cce3f119c3b11b5204ba78a7169672fa49c0e37cd67da5b59c52223fe74cc2",
        "61cce3f119c3b11b5204ba78a7169672fa49c0e37cd67da5b59c52223fe74cc2",
    ),
    "poincare": (
        "4a9b80ffed347b9089e63028a0590de307811ab6582e71959e053ed146811bc4",
        "c6c0836c32916998c043635dc98fe524cab45e3e710d92cd5986783ab4d1c513",
        "0944ebe42b9a7949c93d592572f9c70be80bdb9c6426d44cbbd5db74397d28f6",
    ),
    "static": (
        "6bc8dae029f6c416f549a6e7eca50597be4bc416fc819dd0aa6f4ce9a66d4c1e",
        "6bc8dae029f6c416f549a6e7eca50597be4bc416fc819dd0aa6f4ce9a66d4c1e",
        "6bc8dae029f6c416f549a6e7eca50597be4bc416fc819dd0aa6f4ce9a66d4c1e",
    ),
}


def digest(result):
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_pin(family, d):
    entry = catalog.make(family, d)
    labels = entry.algebra.labels
    z = [labels.index(entry.z_label)]
    s = [labels.index(x) for x in entry.s_labels]
    p = [labels.index(x) for x in entry.p_labels]
    try:
        result = classify(entry.algebra, z, s, p)
    except ValidationError as exc:
        return "error:" + exc.code
    return digest(result)


def rebased_pin(family, seed):
    """The pin of the draw that the `rebased` workload names
    f"{family}_d4#0" at this seed."""
    workloads = bench_workloads()
    entry = catalog.make(family, 4)
    alg = entry.algebra
    roles = workloads.entry_roles(entry)
    rng = random.Random(f"{seed}:{family}:0")
    pairs, _ = workloads.rebase(alg.dim, structure_pairs(alg), roles, rng)
    return digest(classify(LieAlgebra(alg.dim, pairs, list(alg.labels)), *roles))


def test_every_family_is_pinned():
    assert sorted(REPORTS) == sorted(catalog.FAMILIES)


@pytest.mark.parametrize("family", sorted(REPORTS))
@pytest.mark.parametrize("d", range(1, 7))
def test_report_matches_pin(family, d):
    assert report_pin(family, d) == REPORTS[family][d - 1]


def test_every_family_is_pinned_rebased():
    assert sorted(REBASED) == sorted(catalog.FAMILIES)


@pytest.mark.parametrize("family", sorted(REBASED))
@pytest.mark.parametrize("seed", REBASED_SEEDS)
def test_rebased_report_matches_pin(family, seed):
    assert rebased_pin(family, seed) == REBASED[family][REBASED_SEEDS.index(seed)]
