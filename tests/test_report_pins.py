"""Pinned classify reports for every catalog entry at d = 1..6.

For each entry the test pins either the sha256 of
``json.dumps(to_dict(), sort_keys=True, indent=2)`` or, for an entry
that validation rejects, the ``ValidationError`` code.  The values were
recorded before `Mat` stored only its integer view, so a change in the
exact arithmetic that alters a single report byte fails here.
"""

import hashlib
import json

import pytest

from kinsila import catalog
from kinsila.errors import ValidationError
from kinsila.kinematics import classify

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
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_family_is_pinned():
    assert sorted(REPORTS) == sorted(catalog.FAMILIES)


@pytest.mark.parametrize("family", sorted(REPORTS))
@pytest.mark.parametrize("d", range(1, 7))
def test_report_matches_pin(family, d):
    assert report_pin(family, d) == REPORTS[family][d - 1]
