"""The kind of the central action read off its square agrees with the
Jordan-Chevalley split.

`z_action_split` decides a zero action, a square-zero action and one
whose square is a nonzero scalar from a and a @ a alone, and computes the
split only for the rest.  Its kind and parts are compared here with a
reference built on `sn_decomposition` for every catalog entry at
d = 2..6, the 24 pinned `rebased` draws, and seeded actions A ⊗ 1 on the
momenta of catalog `static` at d = 4, with A zero, square-zero, of
positive or negative scalar square, semisimple with a non-scalar square,
and mixed.
"""

import random
from types import SimpleNamespace

import pytest

from conftest import (
    ad_matrix,
    bench_workloads,
    static_with_central_action,
    structure_pairs,
)
from kinsila import catalog, kinematics
from kinsila.documents import parse_document
from kinsila.errors import InternalFault
from kinsila.exactla import Mat, Subspace, inverse, sn_decomposition, unit_vec
from kinsila.kinematics import classify, validate, z_action_split
from kinsila.liecore import LieAlgebra

REBASED_SEEDS = (5, 11, 23)


def jordan_chevalley(a):
    """(kind, s, n) of the split a = s + n."""
    s, n = sn_decomposition(a)
    if a.is_zero():
        kind = "zero"
    elif n.is_zero():
        kind = "semisimple"
    elif s.is_zero():
        kind = "nilpotent"
    else:
        kind = "mixed"
    return kind, s, n


def assert_matches_reference(zd):
    a = zd.a_matrix
    assert (zd.kind, zd.s_part, zd.n_part) == jordan_chevalley(a)
    assert zd.square == a @ a
    assert zd.mu == zd.square.trace() / a.rows


def central_structure(alg, roles):
    """The part of a validated structure that `z_action_split` reads:
    a = ad(Z)|P in P coordinates, built here from brackets as the matrix
    of ad Z on the span of the momenta.  Catalog entries at d = 3 fail
    validation, so the comparison does not go through `validate`."""
    (z,), _, p = roles
    n = alg.dim
    p_space = Subspace.span(n, [unit_vec(n, i) for i in p])
    return SimpleNamespace(a_matrix=p_space.matrix_of(ad_matrix(alg, unit_vec(n, z))))


@pytest.mark.parametrize("family", catalog.FAMILIES)
@pytest.mark.parametrize("d", range(2, 7))
def test_catalog_kind_matches_split(family, d):
    entry = catalog.make(family, d)
    roles = bench_workloads().entry_roles(entry)
    assert_matches_reference(z_action_split(central_structure(entry.algebra, roles)))


@pytest.mark.parametrize("family", catalog.FAMILIES)
@pytest.mark.parametrize("seed", REBASED_SEEDS)
def test_rebased_kind_matches_split(family, seed):
    workloads = bench_workloads()
    entry = catalog.make(family, 4)
    alg = entry.algebra
    roles = workloads.entry_roles(entry)
    rng = random.Random(f"{seed}:{family}:0")
    pairs, _ = workloads.rebase(alg.dim, structure_pairs(alg), roles, rng)
    rebased = LieAlgebra(alg.dim, pairs, list(alg.labels))
    assert_matches_reference(z_action_split(central_structure(rebased, roles)))


def nonzero(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def non_scalar_semisimple(rng):
    """diag(p, q) with p != ±q, or the companion matrix of t² - b t - c
    with b != 0 and b² + 4c != 0: distinct eigenvalues, no zero trace."""
    if rng.random() < 0.5:
        p = rng.randint(1, 3)
        sign = rng.choice((-1, 1))
        return Mat([[sign * p, 0], [0, sign * (p + rng.randint(1, 3))]])
    b, c = nonzero(rng), rng.randint(-3, 3)
    while b * b + 4 * c == 0:
        c += 1
    return Mat([[0, c], [1, b]])


# a canonical 2 x 2 matrix of each kind, and the kind it must get
ACTIONS = {
    "zero": (lambda rng: Mat.zeros(2, 2), "zero"),
    "square-zero": (lambda rng: Mat([[0, nonzero(rng)], [0, 0]]), "nilpotent"),
    "positive-square": (
        lambda rng: Mat([[0, rng.randint(1, 5)], [1, 0]]).scale(nonzero(rng)),
        "semisimple",
    ),
    "negative-square": (
        lambda rng: Mat([[0, -rng.randint(1, 5)], [1, 0]]).scale(nonzero(rng)),
        "semisimple",
    ),
    "non-scalar-semisimple": (non_scalar_semisimple, "semisimple"),
    "mixed": (lambda rng: Mat([[1, 1], [0, 1]]).scale(nonzero(rng)), "mixed"),
}


def seeded_action(kind, seed):
    """The canonical matrix of this kind conjugated by a seeded integer
    matrix with an integer inverse."""
    rng = random.Random(f"{seed}:{kind}")
    canonical, _ = ACTIONS[kind]
    t = Mat([[1, rng.randint(-2, 2)], [0, 1]]) @ Mat([[1, 0], [rng.randint(-2, 2), 1]])
    return t @ canonical(rng) @ inverse(t)


@pytest.mark.parametrize("kind", sorted(ACTIONS))
@pytest.mark.parametrize("seed", range(3))
def test_tensor_action_kind_matches_split(kind, seed):
    action = seeded_action(kind, seed)
    parsed = parse_document(static_with_central_action(action.entries))
    roles = (parsed.z_indices, parsed.s_indices, parsed.p_indices)
    zd = z_action_split(validate(parsed.algebra, *roles))
    assert zd.kind == ACTIONS[kind][1]
    assert_matches_reference(zd)
    result = classify(parsed.algebra, *roles)
    assert (result.label, result.z_action) == ("flat-rad-equals-P", zd.kind)


def test_mixed_action_with_a_nondegenerate_form_is_a_fault(monkeypatch):
    entry = catalog.make("poincare", 4)

    def mixed(structure):
        return z_action_split(structure)._replace(kind="mixed")

    monkeypatch.setattr(kinematics, "z_action_split", mixed)
    with pytest.raises(InternalFault, match="both a semisimple and a nilpotent"):
        classify(entry.algebra, *bench_workloads().entry_roles(entry))
