"""Shared builders for the test suite."""

from kinsila.exactla import Mat, inverse
from kinsila.liecore import LieAlgebra
from kinsila.repth import Rep


def so_algebra_and_rep(d):
    """so(d) with basis J_ab (a < b, lexicographic) and its action on Q^d.

    [J_ab, J_cd] = d_bc J_ad - d_ac J_bd - d_bd J_ac + d_ad J_bc, with
    J_ab acting as E_ab - E_ba.
    """
    idx = {}
    basis = []
    for a in range(d):
        for b in range(a + 1, d):
            idx[(a, b)] = len(basis)
            basis.append((a, b))
    g = len(basis)

    def add(vec, pair, sign):
        a, b = pair
        if a == b:
            return
        if a < b:
            vec[idx[(a, b)]] += sign
        else:
            vec[idx[(b, a)]] -= sign

    pairs = {}
    for i, (a, b) in enumerate(basis):
        for j, (c, e) in enumerate(basis):
            if i >= j:
                continue
            vec = [0] * g
            if b == c:
                add(vec, (a, e), 1)
            if a == c:
                add(vec, (b, e), -1)
            if b == e:
                add(vec, (a, c), -1)
            if a == e:
                add(vec, (b, c), 1)
            if any(vec):
                pairs[(i, j)] = vec
    alg = LieAlgebra(g, pairs, labels=[f"J{a}_{b}" for (a, b) in basis])
    mats = []
    for (a, b) in basis:
        rows = [[0] * d for _ in range(d)]
        rows[a][b] = 1
        rows[b][a] = -1
        mats.append(Mat(rows))
    return alg, Rep(alg, mats)


def doubled(rep):
    """Block-diagonal direct sum of a representation with itself."""
    d = rep.dim
    mats = []
    for m in rep.mats:
        rows = [[0] * (2 * d) for _ in range(2 * d)]
        for i in range(d):
            for j in range(d):
                rows[i][j] = m[i, j]
                rows[d + i][d + j] = m[i, j]
        mats.append(Mat(rows))
    return Rep(rep.algebra, mats)


def unit_triangular(rng, n, upper):
    return Mat([
        [1 if i == j else rng.randint(-1, 1) if (i < j) == upper else 0
         for j in range(n)]
        for i in range(n)
    ])


def unimodular_conjugate(rep, rng):
    """(rep conjugated by t, t) for an integer change of basis t with an
    integer inverse, so the conjugate has nonzero diagonals but small
    entries; t takes rep's coordinates to the conjugate's."""
    t = unit_triangular(rng, rep.dim, False) @ unit_triangular(rng, rep.dim, True)
    return Rep(rep.algebra, [t @ m @ inverse(t) for m in rep.mats]), t


def heisenberg_like():
    """so(2) acting on two planes; one plane brackets to the center, the
    other is inert, so the central two-form degenerates on exactly one
    simple summand."""
    return LieAlgebra(6, {
        (1, 2): (0, 0, 0, 1, 0, 0),
        (1, 3): (0, 0, -1, 0, 0, 0),
        (1, 4): (0, 0, 0, 0, 0, 1),
        (1, 5): (0, 0, 0, 0, -1, 0),
        (2, 3): (1, 0, 0, 0, 0, 0),
    }, labels=["Z", "J", "W1", "W2", "D1", "D2"])


def heisenberg_document(m):
    """The Heisenberg algebra as a document: Z, s = 0, P = Q^m (m even)
    with [p_i, p_(i + m/2)] = Z.  P splits into m lines, so it is not two
    copies of one simple module."""
    half = m // 2
    names = [f"p{i}" for i in range(m)]
    return {
        "name": f"heisenberg-{m}",
        "basis": ["Z"] + names,
        "brackets": [
            {"x": names[i], "y": names[half + i],
             "result": [{"basis": "Z", "coeff": 1}]}
            for i in range(half)
        ],
        "roles": {"Z": ["Z"], "s": [], "P": names},
    }
