"""The Poincare certificate's Levi factor against `LieAlgebra.levi_complement`.

`poincare_certificate` finds the sigma-stable Levi factor through s as
s + L, for L an s-invariant complement of P meet rad g in P on which the
two-form vanishes, by one solve over Hom_s (`kinematics._levi_factor`).
The generic correction system of `levi_complement` is the oracle: the two
find a factor on the same inputs (every input here with an abelian
radical), of the same dimension, and the factor found is checked here
with the generic subspace routines.

At d >= 3 the summand V is absolutely simple, its invariant bilinear
forms are symmetric, so the two-form vanishes on every summand of P and
the graph map found is zero.  At d = 2, End_s(V) = Q(i), and the dense
draws need a nonzero one.
"""

import pytest

from conftest import (
    bench_workloads, count_calls, dense_draw, euclidean_twin, intersection,
)
from kinsila import catalog, kinematics
from kinsila.errors import InternalFault, NonAbelianRadicalError, ValidationError
from kinsila.exactla import Mat, Subspace, kernel
from kinsila.kinematics import (
    _generating_rows,
    _levi_factor,
    _sigma_signs,
    classify,
    omega_and_radical,
    poincare_certificate,
    transvection_and_holonomy,
    validate,
    z_action_split,
)
from kinsila.liecore import LieAlgebra


def catalog_poincare(d):
    entry = catalog.make("poincare", d)
    return entry.algebra, entry.roles()


def rebased_poincare(seed, k):
    """The poincare draw `poincare_d4#k` of the `rebased` workload at this
    seed."""
    workload = bench_workloads().Rebased()
    (op,) = workload.setup([f"poincare_d4#{k}"], seed)
    return workload.prepare(op)


INPUTS = (
    [(f"catalog_d{d}", lambda d=d: catalog_poincare(d)) for d in range(1, 7)]
    + [(f"rebased_s{seed}#{k}", lambda seed=seed, k=k: rebased_poincare(seed, k))
       for seed in range(10) for k in range(4)]
    + [(f"dense_d{d}_s{seed}", lambda d=d, seed=seed: dense_draw(*catalog_poincare(d), seed))
       for d in (2, 4) for seed in (0, 1, 7)]
    + [(f"twin_d{d}", lambda d=d: euclidean_twin(d)) for d in (2, 4)]
    + [(f"dense_twin_d2_s{seed}", lambda seed=seed: dense_draw(*euclidean_twin(2), seed))
       for seed in (0, 1)]
)


@pytest.mark.parametrize("build", [b for _, b in INPUTS], ids=[name for name, _ in INPUTS])
def test_the_levi_factor_agrees_with_the_generic_search(build):
    alg, roles = build()
    try:
        st = validate(alg, *roles)
    except ValidationError as exc:
        # poincare at d = 3: so(3) on Q^3 is its own exterior square
        assert exc.code == "WEDGE_CONDITION_FAILS"
        return
    sym = omega_and_radical(st)
    levi = poincare_certificate(
        st, sym, z_action_split(st), transvection_and_holonomy(st)
    ).levi
    rad = alg.solvable_radical()
    if not alg.is_abelian_space(rad):
        # poincare at d = 1
        assert levi is None
        with pytest.raises(NonAbelianRadicalError):
            alg.levi_complement(sigma=st.sigma, contain=st.s_space)
        return
    oracle = alg.levi_complement(sigma=st.sigma, contain=st.s_space)
    # every input here with an abelian radical has such a factor
    assert oracle is not None and levi is not None and levi.dim == oracle.dim
    # a sigma-stable subalgebra through s complementing the radical
    assert alg.is_subalgebra(levi)
    assert levi.contains_space(st.s_space)
    assert all(levi.contains(st.sigma.apply(b)) for b in levi.basis)
    assert levi.dim + rad.dim == alg.dim and levi.sum_with(rad).is_full()
    # s + L, L Lagrangian for the two-form and s-invariant
    lp = intersection(st.p_space, levi)
    assert levi == st.s_space.sum_with(lp)
    zi = st.z_space.pivots[0]
    assert 2 * lp.dim == st.p_space.dim
    assert all(alg.bracket(x, y)[zi] == 0 for x in lp.basis for y in lp.basis)
    assert lp.contains_space(alg.bracket_span(st.s_space, lp))


def test_classify_never_runs_the_generic_search(monkeypatch):
    calls = count_calls(monkeypatch, "levi_complement", LieAlgebra)
    labels = []
    for d in range(1, 7):
        for family in catalog.FAMILIES:
            e = catalog.make(family, d)
            try:
                labels.append(classify(e.algebra, *e.roles()).label)
            except ValidationError:
                pass
    for d in (2, 4):
        alg, roles = euclidean_twin(d)
        labels.append(classify(alg, *roles).label)
    assert labels.count("poincare-type") == 6
    assert calls == []


@pytest.mark.parametrize("names", [
    # R = Z: pr = 0
    ("H",),
    # one s vector and the P_i: R_h lies in s
    ("J1_2", "P1", "P2", "P3", "P4"),
    # Z and one s vector: R_h is a plane
    ("J1_2", "H"),
], ids=["z", "s-line-and-momenta", "z-and-s-line"])
def test_no_levi_factor_unless_the_radical_meets_h_in_a_line_outside_s(names):
    # a graded l through s meets h = Z + s in a complement of R_h holding s,
    # and dim h = dim s + 1, so l needs R_h to be a line outside s and pr
    # to be nonzero; _levi_factor takes R as given, so coordinate radicals
    # drive each absence branch on the catalog poincare structure at d = 4
    alg, roles = catalog_poincare(4)
    st = validate(alg, *roles)
    indices = [alg.labels.index(name) for name in names]
    rad = Subspace.coordinate(alg.dim, indices)
    levi, pr, pl, pr_rep = _levi_factor(st, omega_and_radical(st).omega, rad)
    assert (levi, pl, pr_rep) == (None, None, None)
    p_idx = st.p_space.pivots
    assert pr == Subspace.coordinate(len(p_idx), [p_idx.index(i) for i in indices if i in p_idx])


def ungraded_radical(alg):
    """rad g as the Killing-orthogonal complement of [g, g], from the
    public Fraction boundary: the kernel of the rows K d, d in [g, g]."""
    killing = alg.killing_form()
    derived = alg.bracket_span(Subspace.full(alg.dim), Subspace.full(alg.dim))
    if derived.is_zero():
        return Subspace.full(alg.dim)
    return kernel(Mat([killing.apply(d) for d in derived.basis], cols=alg.dim))


@pytest.mark.parametrize("build", [b for _, b in INPUTS], ids=[name for name, _ in INPUTS])
def test_the_blockwise_radical_is_the_ungraded_one(build):
    # the certificate's radical: one block per eigenspace of sigma, its
    # ideal guard bracketing s's generators, Z and a vector of each summand
    alg, roles = build()
    try:
        st = validate(alg, *roles)
    except ValidationError as exc:
        assert exc.code == "WEDGE_CONDITION_FAILS"
        return
    rad = alg.solvable_radical(_sigma_signs(st), _generating_rows(st))
    assert rad == ungraded_radical(alg)
    assert alg.is_ideal(rad)
    # the rows generate g
    gens = _generating_rows(st)
    closed = Subspace.span(alg.dim, gens)
    while True:
        grown = closed.sum_with(alg.bracket_span(closed, closed))
        if grown == closed:
            break
        closed = grown
    assert closed.is_full()


def test_a_failed_levi_solve_is_a_fault(monkeypatch):
    # once R meets h in a line outside s and pr is nonzero, beta = -omega/2
    # on the summand solves, so a failed solve is a failed theorem
    alg, roles = catalog_poincare(4)
    st = validate(alg, *roles)
    sym = omega_and_radical(st)
    monkeypatch.setattr(kinematics, "solve_combination", lambda *args: None)
    with pytest.raises(InternalFault, match="no Lagrangian invariant complement"):
        poincare_certificate(st, sym, z_action_split(st), transvection_and_holonomy(st))


def test_a_piece_without_an_intertwiner_from_v_is_not_a_copy(monkeypatch):
    # with a = id the central action does not carry pl onto pr, so the
    # item rests on Hom_s(V, pl) alone, and an empty Hom must read False
    alg, roles = catalog_poincare(4)
    st = validate(alg, *roles)
    sym = omega_and_radical(st)
    identity = z_action_split(st)._replace(a_matrix=Mat.identity(st.p_space.dim))
    real, calls = kinematics.certify_copy, []

    def no_hom_after_the_levi_factor(simple, module):
        # the first call is `_levi_factor` certifying pr
        calls.append(module)
        return real(simple, module) if len(calls) == 1 else []

    monkeypatch.setattr(kinematics, "certify_copy", no_hom_after_the_levi_factor)
    items = poincare_certificate(st, sym, identity, transvection_and_holonomy(st)).items
    by_name = {name: ok for name, ok, _ in items}
    assert len(calls) == 2
    assert by_name["sigma-stable-levi-containing-s"] is True
    assert by_name["z-action-maps-one-piece-onto-the-other"] is False
    assert by_name["pieces-isomorphic-to-v"] is False
