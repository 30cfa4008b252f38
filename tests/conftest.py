"""Shared builders for the test suite."""

import functools
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from kinsila import catalog, kinematics, repth
from kinsila.documents import entry_to_document
from kinsila.exactla import Mat, Subspace, inverse, kernel, min_poly, rank, unit_vec
from kinsila.liecore import LieAlgebra
from kinsila.repth import (
    Rep,
    _conic_point,
    _factor_over_q,
    _generator_mats,
    _is_isomorphism,
    _quaternion_squares,
    _radical_image,
    enveloping_basis,
    hom_space,
)


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


def generated_subalgebra(alg, indices):
    """Span of the basis elements at `indices` and of all their iterated
    brackets: the brackets of every pair of spanning vectors are added
    until the span stops growing."""
    space = Subspace.span(alg.dim, [unit_vec(alg.dim, i) for i in indices])
    while True:
        brackets = [alg.bracket(u, v) for u in space.basis for v in space.basis]
        grown = space.sum_with(Subspace.span(alg.dim, brackets))
        if grown == space:
            return space
        space = grown


def derived_subalgebra(alg):
    """[g, g]: the span of the brackets of the basis pairs, read off the
    one-block grading of `LieAlgebra._derived_parts`."""
    _, derived = alg._derived_parts([1] * alg.dim)[1]
    return derived.subspace()


def intersection(u, w):
    """u meet w from the kernel of [U^T | -W^T], U and W the two Fraction
    bases: the U half of each solution holds coefficients in u's basis."""
    n = u.ambient_dim
    cols = list(u.basis) + [[-x for x in b] for b in w.basis]
    combos = kernel(Mat([[c[i] for c in cols] for i in range(n)], cols=len(cols)))
    return Subspace.span(n, [
        [sum(c[a] * b[i] for a, b in enumerate(u.basis)) for i in range(n)]
        for c in combos.basis
    ])


def ad_matrix(alg, x):
    """ad x = [x, -] as a Fraction matrix in the defining basis: column j
    is the bracket of x with e_j."""
    n = alg.dim
    cols = [alg.bracket(x, unit_vec(n, j)) for j in range(n)]
    return Mat([[col[i] for col in cols] for i in range(n)])


def restricted(alg, space):
    """The subalgebra on the reduced echelon basis of `space`, from the
    brackets of its Fraction basis vectors: a vector in the span has its
    coordinates at the pivots.  ValueError when a bracket leaves `space`."""
    basis = space.basis
    pairs = {}
    for a, u in enumerate(basis):
        for b in range(a + 1, len(basis)):
            w = alg.bracket(u, basis[b])
            if not space.contains(w):
                raise ValueError("restriction to a non-subalgebra")
            coords = [w[p] for p in space.pivots]
            if any(coords):
                pairs[(a, b)] = coords
    return LieAlgebra(space.dim, pairs)


def assert_greedy_generators(alg):
    """alg.generators() is memoised, and e_i is among them exactly when it
    lies outside the subalgebra generated by those before it, which then
    generate all of alg."""
    gens = alg.generators()
    assert alg.generators() is gens
    for i in range(alg.dim):
        before = generated_subalgebra(alg, [j for j in gens if j < i])
        assert (i in gens) == (not before.contains(unit_vec(alg.dim, i))), i
    assert generated_subalgebra(alg, gens).is_full()
    return gens


def block_copies(rep, k):
    """Block-diagonal direct sum of k copies of a representation."""
    d = rep.dim
    mats = []
    for m in rep.mats:
        rows = [[0] * (k * d) for _ in range(k * d)]
        for c in range(k):
            for i in range(d):
                for j in range(d):
                    rows[c * d + i][c * d + j] = m[i, j]
        mats.append(Mat(rows))
    return Rep(rep.algebra, mats)


def doubled(rep):
    """Block-diagonal direct sum of a representation with itself."""
    return block_copies(rep, 2)


def check_simplicity(rep: Rep) -> bool:
    """Re-verify the evidence recorded in `rep.simplicity`: the recorded
    elements commute with the Lie generators' matrices, so with the
    action, the module is semisimple, E has the
    dimension its kind needs, and the polynomial or conic that makes E a
    division algebra is solved again.  The module's standard basis is
    reused, not spun again: it is a function of its matrices alone, while
    the equations for E, the envelope and the trace form's radical are
    computed on every call.  False when no evidence is recorded or the
    check fails.  The tests' oracle for `Rep.simplicity`, which `classify`
    records once and does not prove again."""
    cert = rep.simplicity
    if cert is None:
        return False
    if cert.kind == "dimension-one":
        return rep.dim == 1
    if cert.kind == "intertwiner":
        return check_simplicity(cert.source) and _is_isomorphism(
            cert.source, rep, cert.mats[0]
        )
    gens = _generator_mats(rep)
    if not all(x @ m == m @ x for x in cert.mats for m in gens):
        return False
    # the recorded elements span a division algebra (Q for "commutant"),
    # which is all of E when their dimensions agree
    if cert.kind == "commutant":
        dim, division = 1, True
    elif cert.kind == "field":
        mp = min_poly(cert.mats[0])
        dim, division = mp.degree, _factor_over_q(mp) == [(mp, 1)]
    elif cert.kind == "quaternion":
        squares = _quaternion_squares(*cert.mats)
        dim, division = 4, squares is not None and _conic_point(*squares) is None
    else:
        return False
    # V is semisimple by Weyl's theorem, else by Dickson's criterion
    return division and len(hom_space(rep, rep)) == dim and (
        rep.algebra.is_semisimple() or _radical_image(enveloping_basis(rep), rep.dim).is_zero()
    )


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


def count_calls(monkeypatch, name, owner=repth):
    """Patch `owner.<name>` (a function of `repth` by default, or a method
    of a class such as `LieAlgebra`) to record the dimension of the module
    or algebra it is called on; returns the list of those dimensions."""
    calls = []
    original = getattr(owner, name)

    def counted(rep, *args, **kwargs):
        calls.append(rep.dim)
        return original(rep, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


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


def static_with_central_action(action, d=4):
    """Catalog `static` at dimension d as a document, with Z = H acting on
    each plane span(B_i, P_i) by the 2 x 2 matrix action = ((a, b), (c, e)):
    [H, B_i] = a B_i + c P_i and [H, P_i] = b B_i + e P_i, so that
    ad(H)|P = action ⊗ 1.  [P, P] = 0 in `static`, so the document is a
    Lie algebra for every action, and its two-form vanishes."""
    doc = entry_to_document(catalog.make("static", d))
    (a, b), (c, e) = action
    for i in range(1, d + 1):
        for x, terms in ((f"B{i}", ((f"B{i}", a), (f"P{i}", c))),
                         (f"P{i}", ((f"B{i}", b), (f"P{i}", e)))):
            result = [{"basis": y, "coeff": str(k)} for y, k in terms if k]
            if result:
                doc["brackets"].append({"x": "H", "y": x, "result": result})
    doc["name"] = f"static-d{d}-central-action"
    return doc


def euclidean_twin(d):
    """(algebra, roles): catalog poincare at dimension d with [B_i, B_j]
    and [B_i, H] negated, its roles those of the catalog entry.  The
    rotations and boosts then span so(d + 1) instead of so(1, d), acting
    on the translations P_i and H."""
    entry = catalog.make("poincare", d)
    alg = entry.algebra
    kind = [label[0] for label in alg.labels]
    pairs = {
        (i, j): tuple(-x for x in v) if {kind[i], kind[j]} in ({"B"}, {"B", "H"}) else v
        for (i, j), v in structure_pairs(alg).items()
    }
    return LieAlgebra(alg.dim, pairs, list(alg.labels)), entry.roles()


def sl2_on_sym_pair(n):
    """(algebra, roles): Z central, s = sl(2) with basis h, e, f and
    [h, e] = 2e, [h, f] = -2f, [e, f] = h, and P = Sym^n + Sym^n, each
    copy in the weight basis v_k = x^(n-k) y^k (k = 0..n) with e = x d/dy
    and f = y d/dx: [h, v_k] = (n - 2k) v_k, [e, v_k] = k v_(k-1) and
    [f, v_k] = (n - k) v_(k+1).  [P, P] = 0, so the Jacobi identity is that
    of the two modules and the grading holds."""
    dim = 4 + 2 * (n + 1)
    pairs = {}

    def put(i, j, terms):
        v = [0] * dim
        for m, c in terms:
            v[m] += c
        pairs[(i, j)] = v

    put(1, 2, [(2, 2)])
    put(1, 3, [(3, -2)])
    put(2, 3, [(1, 1)])
    for base in (4, 5 + n):
        for k in range(n + 1):
            if n - 2 * k:
                put(1, base + k, [(base + k, n - 2 * k)])
            if k:
                put(2, base + k, [(base + k - 1, k)])
            if k < n:
                put(3, base + k, [(base + k + 1, n - k)])
    labels = ["Z", "h", "e", "f"] + [f"{c}{k}" for c in "vw" for k in range(n + 1)]
    return LieAlgebra(dim, pairs, labels), ((0,), (1, 2, 3), tuple(range(4, dim)))


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@functools.lru_cache(maxsize=None)
def bench_workloads():
    """bench/workloads.py, for its seeded change of basis `rebase`."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def dense_block(rng, k):
    """A k x k invertible integer matrix, off-diagonal entries from
    {-1, 0, 1} and diagonal entries from {1, 2}, redrawn until invertible."""
    while True:
        rows = [[rng.choice((1, 2)) if i == j else rng.choice((-1, 0, 1))
                 for j in range(k)] for i in range(k)]
        if rank(Mat(rows)) == k:
            return rows


def dense_rebase(alg, roles, rng, mixing=None):
    """(pairs, lam) as `bench/workloads.rebase` returns them with
    `mixing` as its mixing block (default `dense_block`): the same draws
    from rng and the same structure constants, bracketed in integers
    through the algebra's table instead of in Fractions, which takes
    about 0.8 s a draw at d = 6."""
    (z,), s_idx, p_idx = roles
    lam = rng.choice((2, 3)) * rng.choice((1, -1))
    n = alg.dim
    # column c holds the new basis vector c in the old basis
    m = [[0] * n for _ in range(n)]
    m[z][z] = lam
    for idx in (s_idx, p_idx):
        block = (mixing or dense_block)(rng, len(idx))
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                m[i][j] = block[a][b]
    back = inverse(Mat(m)).scale(Fraction(1, alg._den))
    cols = list(zip(*m))
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            new = back.apply(alg._integer_bracket(cols[i], cols[j]))
            if any(new):
                pairs[(i, j)] = new
    return pairs, lam


def dense_draw(alg, roles, seed):
    """(algebra, roles) after the dense role-preserving change of basis
    that `dense_rebase` draws from the generator seeded "seed:poincare"."""
    pairs, _ = dense_rebase(alg, roles, random.Random(f"{seed}:poincare"))
    return LieAlgebra(alg.dim, pairs, list(alg.labels)), roles


def workload_rebase(alg, roles, rng):
    """(pairs, lam) as `bench/workloads.rebase` returns them for the
    algebra's structure constants and this generator: `dense_rebase` with
    the workload's own mixing block, bracketed in integers (about 2.5 ms
    a d = 4 draw, against 22 ms in Fractions)."""
    return dense_rebase(alg, roles, rng, bench_workloads().mixing_block)


def rebased_draw(name, seed):
    """(algebra, roles): the `rebased` workload's input `name`
    ("{family}_d4#{k}") at this seed, built from `workload_rebase`."""
    family, k = name.split("_d4#")
    entry = catalog.make(family, 4)
    roles = entry.roles()
    pairs, _ = workload_rebase(entry.algebra, roles, random.Random(f"{seed}:{family}:{k}"))
    return LieAlgebra(entry.algebra.dim, pairs, list(entry.algebra.labels)), roles


def structure_pairs(alg):
    """The nonzero brackets [e_i, e_j], i < j, of an algebra."""
    pairs = {}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            v = tuple(alg.structure_constant(i, j))
            if any(v):
                pairs[(i, j)] = v
    return pairs
