"""`LieAlgebra.levi_complement` writes one block of rows of its
correction system for every pair of complement vectors, with unknowns on
the radical's part of each free vector's sign; its answer must be the one
`all_pairs_levi` gives, an independent build of the system with unknowns
on the whole radical and rows asking each correction to be an eigenvector
of sigma.

The pins are sha256 digests of ``json.dumps`` of the integer rows of the
complement, through s, that is stable under the grading involution, for
the catalog's poincare entries at d = 2..6 and the draws of the `rebased`
benchmark workload that it names ``poincare_d4#k`` at seed 11.  They were
recorded with the all-pairs system.
"""

import hashlib
import json
import math

import pytest

from conftest import bench_workloads, dense_draw, euclidean_twin, rebased_draw
from kinsila import catalog
from kinsila.exactla import (
    Echelon,
    Mat,
    Subspace,
    _integer_mat,
    _solve,
    _sparse,
    inverse,
    unit_vec,
)
from kinsila.kinematics import canonical_involution
from kinsila.liecore import LieAlgebra

CATALOG_PINS = {
    2: "ea9d463df266dd7400aee24df1002b66edcc1263ff6bfe8822568404db349ef5",
    3: "b125d0cd1b7b49fd6d4a6e2b223f46b208603fa0442b69906892969ab17c8d3b",
    4: "258a193a4b939f333c791dbdf579393bf1df6cd15fe6168a7ad0531244ea0088",
    5: "e86515a623a616f7257f597250c632ff9a97dd806f6d40f32fe1e5d0dd578232",
    6: "0a3d7f3f19259c195e1d153a68d74aafc76426d6b0523791fadf6e43ffbeb6a3",
}
REBASED_SEED = 11
REBASED_PINS = (
    "825187c44c391f350b9703fe7697c122ce7364032f39e625c1c608dfa4978528",
    "258a193a4b939f333c791dbdf579393bf1df6cd15fe6168a7ad0531244ea0088",
    "4bb1f232a6d3dec5cf246ba8cda963d1798fdefc917e76644542879bc92e2a29",
    "7776a8d953cf0e3b75ff80560ea60f167077281279dc6f96187fbcf2a037db97",
)


def poincare_input(d):
    entry = catalog.make("poincare", d)
    return entry.algebra, bench_workloads().entry_roles(entry)


def graded_constraints(alg, roles):
    """(sigma, contain): the grading involution and the span of s."""
    _, s, p = roles
    return canonical_involution(alg, p), Subspace.coordinate(alg.dim, s)


def rows_digest(space):
    return hashlib.sha256(json.dumps([list(r) for r in space.rows]).encode()).hexdigest()


@pytest.mark.parametrize("d", sorted(CATALOG_PINS))
def test_catalog_poincare_levi_rows_match_pin(d):
    alg, roles = poincare_input(d)
    levi = alg.levi_complement(*graded_constraints(alg, roles))
    assert rows_digest(levi) == CATALOG_PINS[d]


@pytest.mark.parametrize("k", range(len(REBASED_PINS)))
def test_rebased_poincare_levi_rows_match_pin(k):
    alg, roles = rebased_draw(f"poincare_d4#{k}", REBASED_SEED)
    levi = alg.levi_complement(*graded_constraints(alg, roles))
    assert rows_digest(levi) == REBASED_PINS[k]


def all_pairs_levi(alg, sigma, contain):
    """The complement from the full correction system: one block of rows
    for every pair of complement vectors, pinned or free, and ad of each
    of them, with every free vector's correction taken in the whole
    radical and asked to be an eigenvector of sigma of the vector's sign;
    the complement basis and the solve are the ones `levi_complement`
    uses.  sigma is diagonal, so its eigenspaces are coordinate subspaces
    and a sigma-stable space splits by the support of its rows."""
    n = alg.dim
    rad = alg.solvable_radical()
    sign = [sigma[i, i] for i in range(n)]

    def part(space, eps):
        """space meet the eps eigenspace of sigma: the rows of a
        sigma-stable space whose pivot has sign eps, each of which lies
        in that eigenspace."""
        rows = [(r, p) for r, p in zip(space.rows, space.pivots) if sign[p] == eps]
        assert all(sign[j] == eps for r, _ in rows for j, x in enumerate(r) if x)
        return Subspace(n, tuple(r for r, _ in rows), tuple(p for _, p in rows))

    wdata = []
    for eps in (1, -1):
        side = Subspace.coordinate(n, [i for i in range(n) if sign[i] == eps])
        part_c = part(contain, eps)
        wdata += [(c, eps, True) for c in part_c.rows]
        cur = part_c.echelon()
        for r in part(rad, eps).rows:
            cur.add_integer(list(r))
        for v in side.rows:
            if cur.add_integer(list(v)) is not None:
                wdata.append((v, eps, False))
    k, d = len(wdata), rad.dim
    wvecs = [w for w, _, _ in wdata]
    heads = [row[p] for row, p in zip(rad.rows, rad.pivots)]
    cols = wvecs + list(rad.rows)
    minv = inverse(_integer_mat(n, 1, tuple(
        _sparse([col[i] for col in cols]) for i in range(n)
    )))
    cden = minv._integer[0] * alg._den
    pmats = [rad.matrix_of(alg._integer_ad(w, 1)) for w in wvecs]
    free = [a for a, (_, _, pin) in enumerate(wdata) if not pin]
    offset = {a: idx * d for idx, a in enumerate(free)}
    width = len(free) * d
    rows = []
    for a in range(k):
        for b in range(a + 1, k):
            c = minv._integer_apply(alg._integer_bracket(wvecs[a], wvecs[b]))
            rvec = [x * h for x, h in zip(c[k:], heads)]
            da, arows = pmats[a]._integer
            db, brows = pmats[b]._integer
            lcm = math.lcm(da, db, cden)
            for t in range(d):
                row = [0] * (width + 1)
                if b in offset:
                    for s, x in arows[t]:
                        row[offset[b] + s] += lcm // da * x
                if a in offset:
                    for s, x in brows[t]:
                        row[offset[a] + s] -= lcm // db * x
                for e in free:
                    row[offset[e] + t] -= lcm // cden * c[e]
                row[width] = -(lcm // cden) * rvec[t]
                rows.append(_sparse(row))
    sden, srows = rad.matrix_of(sigma)._integer
    for a in free:
        for t in range(d):
            row = [0] * (width + 1)
            for s, x in srows[t]:
                row[offset[a] + s] += x
            row[offset[a] + t] -= wdata[a][1] * sden
            rows.append(_sparse(row))
    res = _solve(width, rows)
    if res is None:
        return None
    corrected = Echelon(n)
    for a, w in enumerate(wvecs):
        if a in offset:
            x = [c / h for c, h in zip(res.particular[offset[a]:offset[a] + d], heads)]
            lcm = math.lcm(*[c.denominator for c in x])
            w = [lcm * y for y in w]
            for c, r in zip(x, rad.rows):
                f = c.numerator * (lcm // c.denominator)
                w = [y + f * z for y, z in zip(w, r)]
        corrected.add_integer(list(w))
    return corrected.subspace()


def sl2_on_plane_with_constraints():
    """sl2 (h, e, f) on its plane (x, y), graded by sigma = -1 on e, f, y,
    with contain = span(h, e), which sigma splits into both eigenspaces."""
    alg = LieAlgebra(5, {
        (0, 1): (0, 2, 0, 0, 0),
        (0, 2): (0, 0, -2, 0, 0),
        (1, 2): (1, 0, 0, 0, 0),
        (0, 3): (0, 0, 0, 1, 0),
        (0, 4): (0, 0, 0, 0, -1),
        (1, 4): (0, 0, 0, 1, 0),
        (2, 3): (0, 0, 0, 0, 1),
    })
    sigma = Mat([[(1, -1, -1, 1, -1)[i] if i == j else 0 for j in range(5)]
                 for i in range(5)])
    return alg, sigma, Subspace.span(5, [unit_vec(5, 0), unit_vec(5, 1)])


def test_levi_complement_matches_the_all_pairs_reference():
    inputs = [poincare_input(4), poincare_input(5)]
    inputs += [rebased_draw(f"poincare_d4#{k}", REBASED_SEED) for k in (0, 2)]
    for alg, roles in inputs:
        sigma, contain = graded_constraints(alg, roles)
        # s = so(d) is generated by fewer vectors than its dimension, so
        # the system holds pinned pairs outside any generating set of s
        gens, closed = alg._greedy_generators(contain.rows)
        assert closed == contain.dim and 0 < len(gens) < contain.dim
        want = all_pairs_levi(alg, sigma, contain)
        assert want is not None
        assert alg.levi_complement(sigma, contain) == want
    alg, sigma, contain = sl2_on_plane_with_constraints()
    assert alg.is_automorphism(sigma)
    want = all_pairs_levi(alg, sigma, contain)
    assert want is not None and want.contains_space(contain)
    assert alg.levi_complement(sigma, contain) == want


DENSE_INPUTS = (
    [(f"dense_d{d}_s{seed}", lambda d=d, seed=seed: dense_draw(*poincare_input(d), seed))
     for d in (2, 4) for seed in (0, 1, 7)]
    + [(f"twin_d{d}", lambda d=d: euclidean_twin(d)) for d in (2, 4)]
    + [(f"dense_twin_d2_s{seed}", lambda seed=seed: dense_draw(*euclidean_twin(2), seed))
       for seed in (0, 1)]
)


@pytest.mark.parametrize("build", [b for _, b in DENSE_INPUTS], ids=[n for n, _ in DENSE_INPUTS])
def test_dense_draws_and_twins_match_the_all_pairs_reference(build):
    alg, roles = build()
    sigma, contain = graded_constraints(alg, roles)
    want = all_pairs_levi(alg, sigma, contain)
    assert want is not None
    assert alg.levi_complement(sigma, contain) == want


def test_greedy_generators_test_closure():
    alg, _, _ = sl2_on_plane_with_constraints()

    def units(*indices):
        return [[int(j == i) for j in range(5)] for i in indices]

    # e and f generate sl2; e and x commute; e and y generate span(e, x, y)
    assert alg._greedy_generators(units(1, 2)) == ((0, 1), 3)
    assert alg._greedy_generators(units(1, 3)) == ((0, 1), 2)
    assert alg._greedy_generators(units(1, 4)) == ((0, 1), 3)
    # h and e span a subalgebra, which f leaves; h, e, x, y close up
    assert alg._greedy_generators(units(0, 1, 2)) == ((0, 1, 2), 3)
    assert alg._greedy_generators(units(0, 1, 3, 4)) == ((0, 1, 2, 3), 4)
    with pytest.raises(ValueError):
        alg.levi_complement(contain=Subspace.span(5, [unit_vec(5, 1), unit_vec(5, 4)]))
