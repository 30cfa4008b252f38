"""`classify` works in integers inside the package.

`LieAlgebra.bracket` and `Mat.entries` are the Fraction boundary for
callers and reports.  Here `bracket` raises and `entries` reads are
counted while catalog entries at d = 4, 5, 6 and one rebased draw per
family are validated and classified: each still gets its label, no
bracket is taken, and `validate` reads no Fraction entries.

Building the catalog entries reads no `entries`, spans no Fraction
vectors, and makes one Fraction `Mat` per algebra: the one
`LieAlgebra.__init__` builds from its structure constants.

The same entries are classified with the Jordan-Chevalley machinery made
to raise: their central actions square to 0 or to a scalar, so their
kind is read off the square and no split is computed.
"""

import random

import pytest

from conftest import bench_workloads, structure_pairs
from kinsila import catalog, exactla, kinematics
from kinsila.exactla import Mat, Subspace, is_nilpotent
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


def test_the_catalog_is_built_in_integers(monkeypatch):
    counts = {"entries": 0, "span": 0, "init": 0}
    entries, span, init = Mat.entries, Subspace.span, Mat.__init__

    def counted_entries(m):
        counts["entries"] += 1
        return entries.fget(m)

    def counted_span(*args):
        counts["span"] += 1
        return span(*args)

    def counted_init(m, *args, **kwargs):
        counts["init"] += 1
        init(m, *args, **kwargs)

    monkeypatch.setattr(Mat, "entries", property(counted_entries))
    monkeypatch.setattr(Subspace, "span", staticmethod(counted_span))
    monkeypatch.setattr(Mat, "__init__", counted_init)
    catalog.make.cache_clear()
    try:
        for d in (4, 5, 6):
            for family in catalog.FAMILIES:
                catalog.make(family, d)
    finally:
        catalog.make.cache_clear()
    # the table goes to LieAlgebra as integers: no Fraction Mat is built
    assert counts == {"entries": 0, "span": 0, "init": 0}


@pytest.fixture
def no_split(monkeypatch):
    """Make `sn_decomposition`, `char_poly` and `min_poly` raise where the
    central action could reach them: in `exactla`, whose `is_semisimple`
    and `is_nilpotent` look `min_poly` up there, and `kinematics`'s own
    reference to `sn_decomposition`.  `repth` keeps its `min_poly`, which
    the simplicity certificates need."""

    def raiser(name):
        def fail(*args):
            raise AssertionError(f"{name} called by classify")
        return fail

    for name in ("sn_decomposition", "char_poly", "min_poly"):
        monkeypatch.setattr(exactla, name, raiser(name))
    monkeypatch.setattr(kinematics, "sn_decomposition", raiser("sn_decomposition"))


@pytest.mark.parametrize("family,d,rebased", CASES)
def test_classify_computes_no_jordan_chevalley_split(family, d, rebased, no_split):
    label = bench_workloads().load_oracle()["labels"][family]
    algebra, roles = algebra_and_roles(family, d, rebased)
    assert classify(algebra, *roles).label == label


def test_the_split_is_watched(no_split):
    with pytest.raises(AssertionError):
        is_nilpotent(Mat([[0, 1], [0, 0]]))
