"""Modules derived from another module (a restriction, the exterior
square, the dual) keep the Lie generators' matrices at once and build
every other basis element's matrix on its first read (`repth._Matrices`).

A subspace invariant under rho(x) and rho(y) is invariant under
rho([x, y]), so the generators decide invariance; a lazily built matrix
that fails it is a failed theorem.  The matrices built this way are
checked here against the Fraction coordinates of the source's matrices,
for every derived module that `classify` builds.  The same sweep checks
that V is proved simple once: the certificates of both summands of P
hold (`conftest.check_simplicity`), and no Hom is solved twice."""

import pytest

from conftest import (
    bench_workloads, check_simplicity, dense_draw, rebased_draw, record_hom_spaces,
    so_algebra_and_rep,
)
from kinsila import catalog, kinematics, repth
from kinsila.errors import InternalFault, ValidationError
from kinsila.exactla import Mat, Subspace
from kinsila.kinematics import classify
from kinsila.repth import Rep, rep_on_subspace


def record_derived(monkeypatch):
    """Patch `_derived_rep`; returns the list of (source, build, module)
    of every derived module built."""
    made = []
    original = repth._derived_rep

    def recorded(rep, dim, build):
        out = original(rep, dim, build)
        made.append((rep, build, out))
        return out

    monkeypatch.setattr(repth, "_derived_rep", recorded)
    return made


def pivot_coordinates(space, m):
    """The matrix of m on `space` from its Fraction basis: m b_j, which
    lies in the span when the lazy build did not raise, has its
    coordinates at the pivots."""
    images = [m.apply(b) for b in space.basis]
    return Mat([[v[p] for v in images] for p in space.pivots], cols=space.dim)


def wedge_coordinates(m):
    """The matrix of m on the exterior square in the basis e_i ^ e_j, i < j:
    m (e_i ^ e_j) = m e_i ^ e_j + e_i ^ m e_j, from the Fraction entries."""
    d = m.rows
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    index = {p: k for k, p in enumerate(pairs)}
    cols = []
    for i, j in pairs:
        col = [0] * len(pairs)
        for k in range(d):
            for a, b, c in ((k, j, m[k, i]), (i, k, m[k, j])):
                if c and a != b:
                    col[index[(min(a, b), max(a, b))]] += c if a < b else -c
        cols.append(col)
    return Mat([[col[r] for col in cols] for r in range(len(pairs))], cols=len(pairs))


def test_the_integer_draws_are_the_workloads():
    workload = bench_workloads().Rebased()
    for seed in (0, 11):
        for op in workload.setup(workload.op_names(), seed):
            algebra, roles = rebased_draw(op.name, seed)
            prepared, op_roles = workload.prepare(op)
            assert algebra._struct == prepared._struct and roles == op_roles, op.name
            assert algebra._den == prepared._den and algebra.labels == prepared.labels


def record_decompositions(monkeypatch):
    """Patch the decomposition of P in `validate`; returns the list of
    the decompositions it returned."""
    made = []
    original = kinematics.simple_decomposition

    def recorded(rep):
        out = original(rep)
        made.append(out)
        return out

    monkeypatch.setattr(kinematics, "simple_decomposition", recorded)
    return made


def inputs():
    for d in range(1, 7):
        for family in catalog.FAMILIES:
            e = catalog.make(family, d)
            yield f"{family}_d{d}", e.algebra, e.roles()
    for seed in range(10):
        for name in bench_workloads().Rebased().op_names():
            yield f"{name}@{seed}", *rebased_draw(name, seed)
    for seed in range(3):
        for family in catalog.FAMILIES:
            e = catalog.make(family, 4)
            yield f"{family}_d4 dense@{seed}", *dense_draw(e.algebra, e.roles(), seed)


def test_every_lazily_built_matrix_is_the_sources_on_the_subspace(monkeypatch):
    # and V is proved simple once: the certificates of both summands hold,
    # and no Hom is solved twice in one classify
    made = record_derived(monkeypatch)
    solved = record_hom_spaces(monkeypatch)
    decompositions = record_decompositions(monkeypatch)
    kinds = set()
    for name, algebra, roles in inputs():
        del made[:], solved[:], decompositions[:]
        try:
            classify(algebra, *roles)
        except ValidationError as exc:
            # the only catalog entries that are not kinematical algebras
            assert exc.code == "WEDGE_CONDITION_FAILS", name
        else:
            (parts,) = decompositions
            assert all(check_simplicity(m) for m in parts.modules), name
            # the modules themselves, kept alive by `solved`: a freed
            # temporary's id() may be reused by a later module
            pairs = [(rep1, rep2) for rep1, rep2, _ in solved]
            assert len(set(pairs)) == len(pairs), name
        for source, build, module in made:
            gens = set(source.algebra.generators())
            lazy = [i for i, m in enumerate(module.mats._built) if m is None]
            assert not gens.intersection(lazy), name
            mats = list(module.mats)
            kind = build.__name__
            kinds.add(kind)
            if kind == "matrix_of":
                want = [pivot_coordinates(build.__self__, m) for m in source.mats]
            elif kind == "wedge":
                want = [wedge_coordinates(m) for m in source.mats]
            else:
                want = [-m.transpose() for m in source.mats]
            assert mats == want, name
    # restrictions, exterior squares and duals
    assert kinds == {"matrix_of", "wedge", "<lambda>"}


def test_a_lazily_built_matrix_that_leaves_the_subspace_is_a_fault():
    # a forged module of so(3): the generators act as zero, so every
    # line is invariant under them, but the third basis element moves e_0
    alg, _ = so_algebra_and_rep(3)
    gens = alg.generators()
    (other,) = set(range(alg.dim)) - set(gens)
    mats = [Mat.zeros(3, 3)] * alg.dim
    mats[other] = Mat([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    forged = Rep(alg, mats, check=False)
    line = Subspace.coordinate(3, [0])
    sub = rep_on_subspace(forged, line)
    assert [sub.mats[i] for i in gens] == [Mat.zeros(1, 1)] * len(gens)
    with pytest.raises(InternalFault):
        sub.mats[other]
    with pytest.raises(InternalFault):
        list(sub.mats)


def test_a_subspace_a_generator_moves_is_refused():
    alg, v = so_algebra_and_rep(3)
    with pytest.raises(ValueError):
        rep_on_subspace(v, Subspace.coordinate(3, [0]))


@pytest.mark.parametrize("workload, calls", [("Catalog", 246), ("Rebased", 222)])
def test_matrix_of_runs_on_the_generators(monkeypatch, workload, calls):
    # one pass of the benchmark workload at seed 11, which ran matrix_of
    # 607 (Catalog) and 474 (Rebased) times when restrictions, checks of
    # invariance and isomorphisms read every basis matrix
    count = []
    original = Subspace.matrix_of

    def counted(self, m):
        count.append(m)
        return original(self, m)

    monkeypatch.setattr(Subspace, "matrix_of", counted)
    w = getattr(bench_workloads(), workload)()
    for op in w.setup(w.op_names(), 11):
        w.execute(w.prepare(op))
    assert len(count) == calls
