"""`validate` and `classify` read Z, s and P as blocks of the structure
constants.

A document assigns its roles to basis vectors, so Z, s and P are
coordinate subspaces.  `validate` builds them as such and reads s as a
Lie algebra, the action of s on P, the brackets of Z with s, the grading
and the action a = ad(Z)|P straight from the structure constants, and
`omega_and_radical` reads the two-form from the P x P block at Z.  Each
read is compared here with the generic route on the same roles: the span
of the unit vectors, the subalgebra from brackets of its basis
(`restricted`), the matrix of ad x on P from brackets (`ad_matrix`), the
two-form from brackets and the all-pairs automorphism test.  The inputs
are every catalog entry at d = 1..6, the pinned rebased draws of seeds
5, 11 and 23, and each of them with its role lists reversed and with its
basis permuted.  The entries at d = 3 fail the wedge condition, after
the block reads; there the actions on P are compared.

The four failures that these reads decide keep their code and their
items when the role lists are unsorted.

The stages after `validate` read the table too, on the same inputs:
[P, P] is the span of the P x P rows (`transvection_and_holonomy`), the
ideal test of P + Z is a scan of supports (`_coordinate_ideal`), and P
meets the radical and the Levi complement in their rows that lie in P
(`_p_part`), which is compared with an intersection from a kernel.
`levi_complement` takes sigma as the +-1 grading and refuses any other
map.

The guard makes `LieAlgebra._integer_ad` and `LieAlgebra.is_automorphism`
raise and counts `Subspace.span` calls: `validate` reaches none of them.
The second guard lets `classify` run to a Poincare certificate with
`LieAlgebra.is_automorphism` and `LieAlgebra.jacobi_defect` raising once
the input is built.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import (
    ad_matrix, bench_workloads, intersection, rebased_draw, restricted, structure_pairs,
)
from kinsila import catalog
from kinsila.errors import ValidationError
from kinsila.exactla import Mat, Subspace, unit_vec
from kinsila.kinematics import (
    _ad_block,
    _coordinate_ideal,
    _p_part,
    canonical_involution,
    classify,
    omega_and_radical,
    transvection_and_holonomy,
    validate,
)
from kinsila.liecore import LieAlgebra

REBASED_SEEDS = (5, 11, 23)
SEED = 2107


def catalog_input(family, d):
    entry = catalog.make(family, d)
    return entry.algebra, bench_workloads().entry_roles(entry)


def rebased_input(family, seed):
    """The d = 4 entry after the change of basis that `bench/run.py`
    draws as its first op of this family at this seed."""
    return rebased_draw(f"{family}_d4#0", seed)


def reversed_roles(alg, roles):
    return alg, tuple(list(r)[::-1] for r in roles)


def permuted_basis(alg, roles, rng):
    """The same algebra with e_i renamed e_perm(i) for a seeded
    permutation; each role list keeps its order, so it is unsorted in the
    new indices."""
    n = alg.dim
    perm = rng.sample(range(n), n)
    pairs = {}
    for (i, j), v in structure_pairs(alg).items():
        w = [0] * n
        for m, c in enumerate(v):
            w[perm[m]] = c
        a, b = perm[i], perm[j]
        if a > b:
            a, b, w = b, a, [-c for c in w]
        pairs[(a, b)] = w
    labels = [None] * n
    for i, label in enumerate(alg.labels):
        labels[perm[i]] = label
    return LieAlgebra(n, pairs, labels), tuple([perm[i] for i in r] for r in roles)


def variants(alg, roles, key):
    """The input as given, with its role lists reversed, and with its
    basis permuted."""
    return [
        (alg, roles),
        reversed_roles(alg, roles),
        permuted_basis(alg, roles, random.Random(f"{SEED}:{key}")),
    ]


INPUTS = [(f"{f}_d{d}", f, d, None) for d in range(1, 7) for f in catalog.FAMILIES]
INPUTS += [(f"{f}_d4#{seed}", f, 4, seed) for seed in REBASED_SEEDS for f in catalog.FAMILIES]


def make_input(family, d, seed):
    return catalog_input(family, d) if seed is None else rebased_input(family, seed)


def coordinate_span(n, indices):
    return Subspace.span(n, [unit_vec(n, i) for i in indices])


def assert_block_reads_match(alg, roles):
    """The action of every rotation and of the central vector on P, read
    from the blocks, is the matrix of ad x on the span of the momenta."""
    (z,), s, p = roles
    n = alg.dim
    p_space = coordinate_span(n, p)
    p_pos = {i: k for k, i in enumerate(p_space.pivots)}
    for x in sorted(s) + [z]:
        block = _ad_block(alg, x, p_space.pivots, p_pos)
        assert block == p_space.matrix_of(ad_matrix(alg, unit_vec(n, x)))


def assert_structure_matches(alg, roles):
    (z,), s, p = roles
    n = alg.dim
    st = validate(alg, *roles)
    z_space, s_space, p_space = (coordinate_span(n, r) for r in roles)
    assert (st.z_space, st.s_space, st.p_space) == (z_space, s_space, p_space)
    assert structure_pairs(st.s_algebra) == structure_pairs(restricted(alg, s_space))
    assert st.p_rep.mats == tuple(
        p_space.matrix_of(ad_matrix(alg, x)) for x in s_space.basis
    )
    assert st.a_matrix == p_space.matrix_of(ad_matrix(alg, unit_vec(n, z)))
    omega = Mat([[alg.bracket(x, y)[z] for y in p_space.basis] for x in p_space.basis])
    assert omega_and_radical(st).omega == omega
    assert st.sigma @ st.sigma == Mat.identity(n) and alg.is_automorphism(st.sigma)
    assert [st.sigma[i, i] for i in range(n)] == [-1 if i in p else 1 for i in range(n)]


@pytest.mark.parametrize("name,family,d,seed", INPUTS, ids=[i[0] for i in INPUTS])
def test_role_block_reads_equal_the_generic_route(name, family, d, seed):
    for alg, roles in variants(*make_input(family, d, seed), name):
        assert_block_reads_match(alg, roles)
        if d == 3:
            with pytest.raises(ValidationError, match="exterior square"):
                validate(alg, *roles)
        else:
            assert_structure_matches(alg, roles)


def small_algebra(n, pairs):
    return LieAlgebra(n, {k: tuple(F(x) for x in v) for k, v in pairs.items()})


def s_not_subalgebra():
    # poincare d = 4 with J3_4 moved from s to P, where brackets of the
    # remaining rotations still reach it
    algebra, (z, s, p) = catalog_input("poincare", 4)
    j34 = algebra.labels.index("J3_4")
    return algebra, (z, [i for i in s if i != j34], sorted(list(p) + [j34]))


# the failing inputs of tests/test_kinematics.py, roles listed in index order
FAILURES = {
    "S_NOT_SUBALGEBRA": s_not_subalgebra,
    "Z_NOT_CENTRALIZING": lambda: (small_algebra(4, {(0, 1): (0, 0, 1, 0)}), ([0], [1], [2, 3])),
    "P_NOT_MODULE": lambda: (small_algebra(4, {(1, 2): (1, 0, 0, 0)}), ([0], [1], [2, 3])),
    "SIGMA_NOT_AUTOMORPHISM": lambda: (small_algebra(3, {(1, 2): (0, 1, 0)}), ([0], [], [1, 2])),
}


def failure(algebra, roles):
    with pytest.raises(ValidationError) as err:
        validate(algebra, *roles)
    return err.value.code, err.value.items


@pytest.mark.parametrize("code", sorted(FAILURES))
def test_failures_keep_code_and_items_with_unsorted_roles(code):
    algebra, roles = FAILURES[code]()
    assert all(list(r) == sorted(r) for r in roles)
    expected = failure(algebra, roles)
    assert expected[0] == code
    unsorted = [reversed_roles(algebra, roles)]
    rng = random.Random(f"{SEED}:{code}")
    while len(unsorted) < 4:
        moved = permuted_basis(algebra, roles, rng)
        if any(list(r) != sorted(r) for r in moved[1]):
            unsorted.append(moved)
    for moved_algebra, moved_roles in unsorted:
        assert failure(moved_algebra, moved_roles) == expected


# ---------------------------------------------------------------------------
# the guard: no ad matrix, no automorphism test, no span inside validate

@pytest.fixture
def span_calls(monkeypatch):
    """Make `LieAlgebra._integer_ad` and `LieAlgebra.is_automorphism`
    raise; count calls of `Subspace.span`."""
    calls = [0]
    span = Subspace.span

    def counted(*args):
        calls[0] += 1
        return span(*args)

    def raiser(name):
        def fail(*args):
            raise AssertionError(f"LieAlgebra.{name} called by validate")
        return fail

    for name in ("_integer_ad", "is_automorphism"):
        monkeypatch.setattr(LieAlgebra, name, raiser(name))
    monkeypatch.setattr(Subspace, "span", staticmethod(counted))
    return calls


@pytest.mark.parametrize("name,family,d,seed", INPUTS, ids=[i[0] for i in INPUTS])
def test_validate_reads_roles_without_ad_automorphism_or_span(
    name, family, d, seed, span_calls
):
    algebra, roles = make_input(family, d, seed)
    if d == 3:
        with pytest.raises(ValidationError, match="exterior square"):
            validate(algebra, *roles)
    else:
        assert validate(algebra, *roles).items[-1] == ("sigma-involution", True)
    assert span_calls[0] == 0


def test_the_guard_is_watched(span_calls):
    algebra = small_algebra(2, {(0, 1): (0, 1)})
    for call in (
        lambda: algebra._integer_ad([1, 0], 1),
        lambda: algebra.is_automorphism(Mat.identity(2)),
    ):
        with pytest.raises(AssertionError):
            call()
    Subspace.span(2, [(1, 0)])
    assert span_calls[0] == 1


# ---------------------------------------------------------------------------
# the classify stages

def assert_stage_reads_match(alg, roles):
    st = validate(alg, *roles)
    p, z, s = st.p_space, st.z_space, st.s_space
    assert transvection_and_holonomy(st).pp == alg.bracket_span(p, p)
    for space in (p.sum_with(z), p, z, s.sum_with(z)):
        assert _coordinate_ideal(alg, space.pivots) == alg.is_ideal(space)
    rad = alg.solvable_radical()
    meets = [rad]
    if alg.is_abelian_space(rad):
        levi = alg.levi_complement(st.sigma, s)
        meets += [levi] if levi is not None else []
    for space in meets:
        ambient, in_p = _p_part(st, space)
        assert ambient == intersection(p, space)
        assert p.embed(in_p) == ambient
    return len(meets)


# the d = 3 entries fail the wedge condition inside validate
VALID = [i for i in INPUTS if i[2] != 3]


@pytest.mark.parametrize("name,family,d,seed", VALID, ids=[i[0] for i in VALID])
def test_stage_reads_equal_the_generic_route(name, family, d, seed):
    for alg, roles in variants(*make_input(family, d, seed), name):
        assert_stage_reads_match(alg, roles)


def test_stage_reads_meet_both_ideal_verdicts_and_a_complement():
    """The inputs above give the ideal scan both verdicts on P + Z, and
    give the P part of a Levi complement something to read."""
    verdicts, complements = set(), 0
    for _, family, d, seed in VALID:
        alg, roles = make_input(family, d, seed)
        st = validate(alg, *roles)
        verdicts.add(_coordinate_ideal(alg, st.p_space.pivots + st.z_space.pivots))
        complements += assert_stage_reads_match(alg, roles) == 2
    assert verdicts == {True, False} and complements > 0


def test_levi_complement_takes_sigma_as_the_grading():
    alg, (z, s, p) = catalog_input("poincare", 4)
    contain = Subspace.coordinate(alg.dim, s)
    sigma = canonical_involution(alg, p)
    assert alg.levi_complement(sigma, contain) is not None
    n = alg.dim
    # not diagonal: sigma with one off-diagonal entry added
    bent = Mat([[sigma[i, j] + (i == p[0] and j == p[1]) for j in range(n)]
                for i in range(n)])
    # diagonal with entries +-1, but +1 on one momentum: [B, P] = H breaks it
    flipped = Mat([[(1 if i == p[0] else sigma[i, i]) if i == j else 0
                    for j in range(n)] for i in range(n)])
    for bad in (bent, flipped, sigma.scale(2)):
        with pytest.raises(ValueError, match="diagonal automorphism"):
            alg.levi_complement(bad, contain)
    # an involutive automorphism of sl(2) that is not diagonal
    sl2 = small_algebra(3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})
    chevalley = Mat([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert sl2.is_automorphism(chevalley)
    with pytest.raises(ValueError, match="diagonal automorphism"):
        sl2.levi_complement(chevalley)


# ---------------------------------------------------------------------------
# the guard: no automorphism test and no second Jacobi pass inside classify

def forbid_automorphism_and_jacobi(monkeypatch):
    def raiser(name):
        def fail(*args):
            raise AssertionError(f"LieAlgebra.{name} called by classify")
        return fail

    for name in ("is_automorphism", "jacobi_defect"):
        monkeypatch.setattr(LieAlgebra, name, raiser(name))


@pytest.mark.parametrize("seed", [None, 11])
def test_classify_proves_sigma_and_s_without_automorphism_or_jacobi(seed, monkeypatch):
    algebra, roles = make_input("poincare", 4, seed)
    forbid_automorphism_and_jacobi(monkeypatch)
    result = classify(algebra, *roles)
    assert result.label == "poincare-type"
    assert all(ok for _, ok, _ in result.poincare_items)


def test_the_classify_guard_is_watched(monkeypatch):
    algebra = small_algebra(2, {(0, 1): (0, 1)})
    forbid_automorphism_and_jacobi(monkeypatch)
    for call in (
        lambda: algebra.is_automorphism(Mat.identity(2)),
        algebra.jacobi_defect,
        lambda: small_algebra(2, {}),
    ):
        with pytest.raises(AssertionError):
            call()
