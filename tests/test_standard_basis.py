"""The data each module keeps for every solve out of it: the standard
basis of `hom_space`'s source and the enveloping algebra, and the
transvection algebra read off the action of [P, P] on P."""

import pytest

from conftest import bench_workloads
from kinsila import catalog, kinematics, repth
from kinsila.errors import InternalFault, SimplicityUndecided, ValidationError
from kinsila.exactla import Mat, Subspace, kernel
from kinsila.kinematics import classify, transvection_and_holonomy, validate
from kinsila.liecore import LieAlgebra
from kinsila.repth import Rep, hom_space


def catalog_inputs(dims):
    workloads = bench_workloads()
    for d in dims:
        for family in catalog.FAMILIES:
            e = catalog.make(family, d)
            yield f"{family}_d{d}", e.algebra, workloads.entry_roles(e)


def rebased_inputs(seed):
    workload = bench_workloads().Rebased()
    for op in workload.setup(workload.op_names(), seed):
        algebra, roles = workload.prepare(op)
        yield op.name, algebra, roles


def classify_or_reject(algebra, roles):
    try:
        return classify(algebra, *roles)
    except ValidationError as exc:
        # the only catalog entries that are not kinematical algebras
        assert exc.code == "WEDGE_CONDITION_FAILS"
        return None


def record_hom_spaces(monkeypatch):
    """Patch `hom_space` where it is called; returns the list that each
    call appends (source, target, answer) to."""
    solved = []
    original = repth.hom_space

    def recorded(rep1, rep2):
        out = original(rep1, rep2)
        solved.append((rep1, rep2, out))
        return out

    monkeypatch.setattr(repth, "hom_space", recorded)
    monkeypatch.setattr(kinematics, "hom_space", recorded)
    return solved


def count_builds(monkeypatch):
    """Patch the build of a source's standard basis; returns the list of
    the modules it was built for."""
    built = []
    original = repth._StandardBasis.__init__

    def counted(self, rep):
        built.append(rep)
        original(self, rep)

    monkeypatch.setattr(repth._StandardBasis, "__init__", counted)
    return built


def test_a_kept_standard_basis_gives_the_same_intertwiners(monkeypatch):
    # every pair classify solves, against a fresh source that spins again
    solved = record_hom_spaces(monkeypatch)
    inputs = [*catalog_inputs(range(1, 7)), *rebased_inputs(11)]
    for _, algebra, roles in inputs:
        classify_or_reject(algebra, roles)
    sources = {id(rep1) for rep1, _, _ in solved}
    assert len(solved) > len(sources)
    for rep1, rep2, got in solved:
        fresh = Rep(rep1.algebra, rep1.mats, check=False, dim=rep1.dim)
        assert fresh.standard_basis is None
        assert hom_space(fresh, rep2) == got


@pytest.mark.parametrize("workload, calls, builds", [
    ("Catalog", 123, 24), ("Rebased", 164, 34),
])
def test_one_standard_basis_per_source_module(monkeypatch, workload, calls, builds):
    # one pass of the benchmark workload at seed 11: each operation solves
    # out of its summands alone, and spins each once.  Every poincare
    # operation also solves Hom_s(L0, P meet rad g) once, for its Levi
    # factor and for the certificate of P meet rad g, out of V unless V
    # meets the radical, as on 2 of the 4 rebased poincare draws, which
    # then spin the other summand
    solved = record_hom_spaces(monkeypatch)
    built = count_builds(monkeypatch)
    w = getattr(bench_workloads(), workload)()
    for op in w.setup(w.op_names(), 11):
        w.execute(w.prepare(op))
    assert len(solved) == calls
    assert len(built) == len({id(rep) for rep in built}) == builds
    assert {id(rep1) for rep1, _, _ in solved} == {id(rep) for rep in built}


def test_the_envelope_is_spun_once_per_module(monkeypatch):
    # s = 0 at d = 1 and s = so(2) at d = 2 are not semisimple, so each
    # summand is proved semisimple by Dickson's criterion, and again when
    # validate re-checks it; d = 3 to 6 need no envelope
    calls = []
    envelopes = {}
    original = repth.enveloping_basis

    def counted(rep):
        out = original(rep)
        calls.append(rep.dim)
        envelopes[id(out)] = out
        return out

    monkeypatch.setattr(repth, "enveloping_basis", counted)
    for _, algebra, roles in catalog_inputs(range(1, 7)):
        classify_or_reject(algebra, roles)
    assert len(calls) == 32
    assert len(envelopes) == 24


def brute_force_transvection(structure):
    """T = [P, P] + P, [T, T] and the centralizer of P in [P, P],
    bracketed pair by pair in the ambient algebra through its public
    Fraction bracket."""
    alg = structure.algebra
    p_basis = structure.p_space.basis
    pp = Subspace.span(alg.dim, [alg.bracket(x, y) for x in p_basis for y in p_basis])
    transvection = pp.sum_with(structure.p_space)
    t_basis = transvection.basis
    derived = Subspace.span(alg.dim, [alg.bracket(x, y) for x in t_basis for y in t_basis])
    u = pp.basis
    if not u:
        return transvection, derived, pp
    # column i holds [u_i, p] for every basis vector p of P, stacked
    rows = [[alg.bracket(ui, p)[m] for ui in u] for p in p_basis for m in range(alg.dim)]
    coeffs = kernel(Mat(rows)).basis
    cent = Subspace.span(alg.dim, [
        [sum(c * ui[m] for c, ui in zip(cs, u)) for m in range(alg.dim)] for cs in coeffs
    ])
    return transvection, derived, cent


def test_transvection_matches_the_ambient_brackets():
    inputs = [*catalog_inputs(range(1, 7)), *rebased_inputs(11)]
    for name, algebra, roles in inputs:
        try:
            structure = validate(algebra, *roles)
        except ValidationError:
            continue
        trans = transvection_and_holonomy(structure)
        transvection, derived, cent = brute_force_transvection(structure)
        assert (trans.transvection, trans.derived, trans.centralizer) == (
            transvection, derived, cent), name
        # T is a subalgebra, which transvection_and_holonomy no longer checks
        assert transvection.contains_space(derived), name


def test_a_bracket_of_momenta_in_p_is_a_fault():
    # the static d = 1 entry (B1, P1, H) with [B1, P1] = B1 put in its
    # place: step 10 of validate rules this out, so it is a fault here
    e = catalog.make("static", 1)
    structure = validate(e.algebra, *bench_workloads().entry_roles(e))
    ungraded = LieAlgebra(3, {(0, 1): (1, 0, 0)}, labels=list(e.algebra.labels))
    with pytest.raises(InternalFault):
        transvection_and_holonomy(structure._replace(algebra=ungraded))


def test_an_undecided_momentum_module_with_a_commutant_of_four_dimensions(monkeypatch):
    # V + V has the commutant M_2(End_s V), of dimension 4 dim End_s V, so
    # dimension 4 leaves two copies possible and the undecided verdict stands
    def undecided(rep):
        raise SimplicityUndecided("no certificate found")

    monkeypatch.setattr(kinematics, "simple_decomposition", undecided)
    e = catalog.make("poincare", 4)
    with pytest.raises(SimplicityUndecided):
        validate(e.algebra, *bench_workloads().entry_roles(e))
