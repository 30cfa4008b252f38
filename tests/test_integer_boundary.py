"""`classify` works in integers inside the package.

`LieAlgebra.bracket` and `Mat.entries` are the Fraction boundary for
callers and reports.  Here `bracket` raises and `entries` reads are
counted while catalog entries at d = 4, 5, 6 and one rebased draw per
family are validated and classified: each still gets its label, no
bracket is taken, and `validate` reads no Fraction entries.
"""

import random

import pytest

from conftest import bench_workloads, structure_pairs
from kinsila import catalog
from kinsila.exactla import Mat
from kinsila.kinematics import classify, validate
from kinsila.liecore import LieAlgebra

REBASED_SEED = 11


def algebra_and_roles(family, d, rebased):
    """A new LieAlgebra, so that no lazily cached member of the catalog's
    shared instance hides a path."""
    workloads = bench_workloads()
    entry = catalog.make(family, d)
    alg = entry.algebra
    roles = workloads.entry_roles(entry)
    pairs = structure_pairs(alg)
    if rebased:
        rng = random.Random(f"{REBASED_SEED}:{family}:0")
        pairs, _ = workloads.rebase(alg.dim, pairs, roles, rng)
    return LieAlgebra(alg.dim, pairs, list(alg.labels)), roles


@pytest.fixture
def entries_reads(monkeypatch):
    """Make `LieAlgebra.bracket` raise; count reads of `Mat.entries`."""
    reads = [0]
    entries = Mat.entries

    def counted(m):
        reads[0] += 1
        return entries.fget(m)

    def bracket(alg, x, y):
        raise AssertionError("LieAlgebra.bracket called inside the package")

    monkeypatch.setattr(Mat, "entries", property(counted))
    monkeypatch.setattr(LieAlgebra, "bracket", bracket)
    return reads


CASES = [(f, d, False) for d in (4, 5, 6) for f in catalog.FAMILIES]
CASES += [(f, 4, True) for f in catalog.FAMILIES]


@pytest.mark.parametrize("family,d,rebased", CASES)
def test_classify_takes_no_bracket_and_validate_reads_no_entries(
    family, d, rebased, entries_reads
):
    label = bench_workloads().load_oracle()["labels"][family]
    # building a catalog entry reads entries; validating must not
    algebra, roles = algebra_and_roles(family, d, rebased)
    before = entries_reads[0]
    validate(algebra, *roles)
    assert entries_reads[0] == before
    assert classify(algebra, *roles).label == label


def test_the_boundary_is_watched(entries_reads):
    alg = LieAlgebra(2, {(0, 1): (0, 1)})
    with pytest.raises(AssertionError):
        alg.bracket((1, 0), (0, 1))
    Mat([[1]]).entries
    assert entries_reads[0] == 1
