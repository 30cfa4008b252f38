"""Representations of structure-constant Lie algebras over Q.

Everything returns certificates: a reducibility verdict comes with a
verified invariant subspace, a simplicity verdict leaves re-checkable
evidence on the module, splittings come with verified projections, and
when the deterministic schedule cannot certify either answer it raises
SimplicityUndecided rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations
from typing import List, Optional, Sequence, Tuple

from .errors import DecompositionError, InternalFault, RepError, SimplicityUndecided
from .exactla import (
    _flat,
    _integer_kernel,
    _integer_mat,
    _null_space,
    _solve,
    _sparse,
    _unflat,
    Echelon,
    Mat,
    Poly,
    Subspace,
    inverse,
    kernel,
    matrix_poly,
    min_poly,
    rank,
)
from .liecore import LieAlgebra


class Rep:
    """A Lie algebra representation given by one matrix per basis element.

    The defining condition rho([e_i, e_j]) = rho(e_i) rho(e_j) -
    rho(e_j) rho(e_i) is checked on all basis pairs at construction.
    """

    def __init__(
        self,
        algebra: LieAlgebra,
        mats: Sequence[Mat],
        check: bool = True,
        dim: Optional[int] = None,
    ):
        mats = tuple(mats)
        if len(mats) != algebra.dim:
            raise RepError("need exactly one matrix per basis element")
        if mats:
            d = mats[0].rows
            for m in mats:
                if m.rows != d or m.cols != d:
                    raise RepError("representation matrices must be square and equal-sized")
            if dim is not None and dim != d:
                raise RepError("declared dimension contradicts the matrices")
        else:
            # the zero algebra still has modules of every dimension
            if dim is None:
                raise RepError("dimension required when there are no matrices")
            d = dim
        self.algebra = algebra
        self.mats = mats
        self.dim = d
        # evidence that the module is simple, once is_simple or
        # certify_copy has proved it
        self.simplicity: Optional[Simplicity] = None
        # the action on the invariant subspace is_simple returned, once found
        self.witness: Optional[Rep] = None
        if check:
            self._validate()

    def _validate(self):
        g = self.algebra.dim
        for i in range(g):
            for j in range(i + 1, g):
                lhs = self.mats[i] @ self.mats[j] - self.mats[j] @ self.mats[i]
                rhs = _combination(self.algebra.structure_constant(i, j), self.mats)
                if lhs != rhs:
                    raise RepError(
                        f"matrices fail the bracket condition on basis pair ({i}, {j})"
                    )

    def __repr__(self):
        return f"Rep(dim {self.dim} of algebra dim {self.algebra.dim})"


@dataclass(frozen=True)
class Simplicity:
    """How a module was proved simple; `check_simplicity` re-verifies it.

    kind is one of
      "dimension-one"  the module is a line;
      "nullity-one"    mats[0] is an enveloping-algebra element with a
                       one-dimensional kernel whose vector spins to the
                       whole space, as does the kernel vector of its
                       transpose under the transposed action (Norton);
      "burnside"       mats is a basis of the enveloping algebra with
                       dim^2 elements, so it is all of End(V);
      "field"          mats[0] is an enveloping-algebra element commuting
                       with the action whose minimal polynomial is
                       irreducible of degree dim, so V is a line over a
                       field;
      "intertwiner"    mats[0] is an invertible intertwiner from `source`,
                       a module proved simple (Schur's lemma);
      "commutant"      the algebra is nonzero with a nondegenerate Killing
                       form, so semisimple (Cartan's criterion) and every
                       module is a direct sum of simple ones (Weyl's
                       theorem), and End_s(V) is the scalars, so that sum
                       has one term.  No mats are recorded: both facts are
                       computed again.
    """

    kind: str
    mats: Tuple[Mat, ...] = ()
    source: Optional[Rep] = None


# ---------------------------------------------------------------------------
# basic constructions

def rep_on_subspace(rep: Rep, space: Subspace) -> Rep:
    """Restriction of `rep` to an invariant subspace, in its echelon basis."""
    if space.is_zero():
        raise ValueError("restriction to the zero subspace")
    mats = [space.matrix_of(m) for m in rep.mats]
    if None in mats:
        raise ValueError("subspace is not invariant")
    return Rep(rep.algebra, mats, check=False, dim=space.dim)


def wedge_square(rep: Rep) -> Rep:
    """Induced representation on the second exterior power.

    Basis e_i ^ e_j for i < j in lexicographic order.
    """
    d = rep.dim
    index = {}
    pairs = []
    for i in range(d):
        for j in range(i + 1, d):
            index[(i, j)] = len(pairs)
            pairs.append((i, j))
    n2 = len(pairs)

    def wedge_coord(out, col, a, b, coeff):
        if a < b:
            out[index[(a, b)]][col] += coeff
        elif a > b:
            out[index[(b, a)]][col] -= coeff

    mats = []
    for m in rep.mats:
        # m e_i = sum_k M[k][i] e_k / den, read off the columns of the view
        den, view = m._integer
        mcols = [[] for _ in range(d)]
        for k, row in enumerate(view):
            for i, x in row:
                mcols[i].append((k, x))
        out = [[0] * n2 for _ in range(n2)]
        for col, (i, j) in enumerate(pairs):
            for k, x in mcols[i]:
                wedge_coord(out, col, k, j, x)
            for k, x in mcols[j]:
                wedge_coord(out, col, i, k, x)
        mats.append(_integer_mat(n2, den, tuple(map(_sparse, out))))
    return Rep(rep.algebra, mats, check=False, dim=n2)


def _flat_rank(mats: Sequence[Mat], d: int) -> int:
    """The dimension of the span of the d x d matrices `mats`."""
    found = Echelon(d * d)
    for m in mats:
        found.add_integer(_flat(m))
    return len(found.rows)


def is_faithful(rep: Rep) -> bool:
    """The matrices are linearly independent, so only 0 acts as 0."""
    return _flat_rank(rep.mats, rep.dim) == len(rep.mats)


def _spin_tree(mats: Sequence[Mat], found: Echelon, w: Sequence[int], tree: list):
    """Grow `found` by the spin of the integer vector w under `mats`.

    Each vector that enlarges the span is appended to `tree` as
    (b, parent, i): w itself with parent None, or b = den * mats[i] b_p for
    the vector b_p at index `parent`.  The matrices act on these images,
    not on the echelon's residual rows, so every vector is its parent's
    image up to a positive scalar.  The walk stops once the span is full:
    no further image can change it.
    """
    if found.add_integer(list(w)) is None:
        return
    tree.append((w, None, None))
    stack = [len(tree) - 1]
    while stack:
        k = stack.pop()
        for i, m in enumerate(mats):
            if len(found.rows) == found.width:
                return
            b = m._integer_apply(tree[k][0])
            if found.add_integer(list(b)) is not None:
                tree.append((b, k, i))
                stack.append(len(tree) - 1)


def spin(mats: Sequence[Mat], w: Sequence[int]) -> Subspace:
    """Smallest subspace containing the integer vector w and invariant
    under `mats`."""
    found = Echelon(len(w))
    _spin_tree(mats, found, w, [])
    return found.subspace()


def hom_space(rep1: Rep, rep2: Rep) -> List[Mat]:
    """Basis of the intertwiners T with T rho1(x) = rho2(x) T for all x.

    Solved by the standard-basis method (Lux & Szőke, Computing
    homomorphism spaces between modules over finite dimensional algebras,
    Exp. Math. 12 (2003)).  Unit vectors of rep1 are spun under the Lie
    generators (`LieAlgebra.generators`) until they span it, and each
    vector b_k the spin keeps is a seed or the image g b_p of an earlier
    one.  The unknowns t are T's values on the seeds: d2 per seed, where
    the entries of T are d1 * d2.
      - T is fixed by its values on the seeds: T b_k = rho2(g) T b_p, so
        T b_k = X_k t with X_k the product along the spin tree in rep2,
        and T = [X_k t] B^-1 for B the matrix of the b_k.
      - Tree edges give no equation: they define X_k.  Every other pair
        (k, g) gives rho2(g) X_k t = sum_j c_j X_j t with
        c = B^-1 rho1(g) b_k.  Once the system has full rank the answer
        is [], and no further block is built.
      - The solution space is unchanged, so its reduced echelon basis,
        read row by row and returned, is unchanged: it is the space of T
        commuting with the generators, and T commuting with rho(x) and
        rho(y) commutes with rho([x, y]), so with every basis element.
    `_is_isomorphism`, which re-checks the intertwiners that certify
    simplicity, still tests every matrix, as a guard against a bug here.
    Both modules must be of the same algebra object, whose generating set
    is used.
    """
    if rep1.algebra is not rep2.algebra:
        raise ValueError("intertwiners need representations of the same algebra")
    d1, d2 = rep1.dim, rep2.dim
    gens = rep1.algebra.generators()
    mats1 = [rep1.mats[i] for i in gens]
    mats2 = [rep2.mats[i] for i in gens]
    found = Echelon(d1)
    tree: list = []
    for j in range(d1):
        if len(found.rows) == d1:
            break
        _spin_tree(mats1, found, [int(c == j) for c in range(d1)], tree)
    seeds = [k for k, (_, parent, _) in enumerate(tree) if parent is None]
    width = d2 * len(seeds)
    # T b_k = f_k X_k t: a seed's own d2 unknowns, or, along a tree edge,
    # b_k = den1 rho1(g) b_p, so T b_k = den1 rho2(g) T b_p
    xs: List[Mat] = []
    fs: List[int] = []
    for k, (_, parent, i) in enumerate(tree):
        if parent is None:
            first = d2 * seeds.index(k)
            xs.append(_integer_mat(width, 1, tuple(((first + r, 1),) for r in range(d2))))
            fs.append(1)
        else:
            xs.append(mats2[i] @ xs[parent])
            fs.append(mats1[i]._integer[0] * fs[parent])
    # over one denominator: T b_k = Z_k t / lcm, Z_k as sparse integer rows
    lcm = math.lcm(*[x._integer[0] for x in xs])
    zs = []
    for x, f in zip(xs, fs):
        den, rows = x._integer
        f *= lcm // den
        zs.append([[(a, f * z) for a, z in row] for row in rows])
    binv = inverse(_integer_mat(d1, 1, tuple(_sparse(b) for b, _, _ in tree)).transpose())
    tree_edges = {(parent, i) for _, parent, i in tree}
    eqs = Echelon(width)
    for k, (b, _, _) in enumerate(tree):
        for i, (m1, m2) in enumerate(zip(mats1, mats2)):
            if (k, i) in tree_edges:
                continue
            # with G = den rho(g) and beta the denominator of B^-1,
            # c = beta B^-1 G1 b_k is beta den1 times the coordinates of
            # rho1(g) b_k in the b_j, so beta den1 G2 Z_k = den2 sum_j c_j Z_j
            c = binv._integer_apply(m1._integer_apply(b))
            f = binv._integer[0] * m1._integer[0]
            den2, g2_rows = m2._integer
            terms = [(den2 * cj, zs[j]) for j, cj in enumerate(c) if cj]
            zk = zs[k]
            for r, g2_row in enumerate(g2_rows):
                w = [0] * width
                for m, x in g2_row:
                    x *= f
                    for a, z in zk[m]:
                        w[a] += x * z
                for cj, zj in terms:
                    for a, z in zj[r]:
                        w[a] -= cj * z
                if any(w):
                    eqs.add_integer(w)
            if len(eqs.rows) == width:
                return []
    homs = Echelon(d1 * d2)
    for t in _null_space(*eqs.reduced_rows(), width).rows:
        # T = [Z_j t] B^-1 up to a positive scalar
        images = [[sum(z * t[a] for a, z in row) for row in zj] for zj in zs]
        tb = _integer_mat(len(zs), 1, tuple(map(_sparse, zip(*images))))
        homs.add_integer(_flat(tb @ binv))
    homs = homs.subspace()
    return [_unflat(row, row[p], d2, d1) for row, p in zip(homs.rows, homs.pivots)]


def invariant_symmetric_forms(rep: Rep) -> List[Mat]:
    """Basis of symmetric B with rho(x)^T B + B rho(x) = 0 for all x.

    Those B are the symmetric intertwiners into the dual module, whose
    matrices are -rho(x)^T; the basis is the reduced echelon basis of
    their subspace of Q^(d^2), with B read row by row.
    """
    d = rep.dim
    dual = Rep(rep.algebra, [-m.transpose() for m in rep.mats], check=False, dim=d)
    # each H_i times its denominator, flattened: scaling H_i leaves the
    # span of the symmetric combinations as it is
    flats = [_flat(h) for h in hom_space(rep, dual)]
    # sum c_i H_i is symmetric exactly when sum c_i (H_i - H_i^T) = 0
    skew = [
        _sparse([h[r * d + c] - h[c * d + r] for h in flats])
        for r in range(d) for c in range(r + 1, d)
    ]
    forms = Echelon(d * d)
    for c in _integer_kernel(len(flats), skew).rows:
        w = [0] * (d * d)
        for ci, h in zip(c, flats):
            if ci:
                for j, x in enumerate(h):
                    w[j] += ci * x
        forms.add_integer(w)
    forms = forms.subspace()
    return [_unflat(row, row[p], d, d) for row, p in zip(forms.rows, forms.pivots)]


def _combination(combo: Sequence[int], mats: Sequence[Mat]) -> Mat:
    acc = Mat.zeros(mats[0].rows, mats[0].cols)
    for c, m in zip(combo, mats):
        if c:
            acc = acc + m.scale(c)
    return acc


def nondegenerate_invariant_form(rep: Rep) -> Optional[Mat]:
    """A nondegenerate invariant symmetric form on a simple module, or None
    when the module has no nonzero invariant symmetric form.

    The module must be simple: there the radical of a nonzero invariant
    form is a proper submodule, hence zero, so the last basis form is
    taken.  A degenerate one proves the module is not simple and raises
    ValueError.
    """
    basis = invariant_symmetric_forms(rep)
    if not basis:
        return None
    form = basis[-1]
    if rank(form) != rep.dim:
        raise ValueError("a degenerate invariant form: the module is not simple")
    return form


# ---------------------------------------------------------------------------
# enveloping algebra and simplicity

def enveloping_basis(rep: Rep) -> List[Mat]:
    """Basis of the unital algebra generated by the representing matrices.

    The element order is part of `is_simple`'s schedule: its stream
    probes the elements, then candidates made of them and their +-
    pairwise sums, in this order, and the first that closes picks the
    certificate.  So another basis of the same algebra is no drop-in
    replacement: a left-multiplication spin of the identity left P
    (dimension 8, envelope 16) of a dense d = 4 Poincare and de Sitter
    draw SimplicityUndecided.
    """
    d = rep.dim
    found = Echelon(d * d)
    elements: List[Mat] = []

    def try_add(m: Mat) -> bool:
        if found.add_integer(_flat(m)) is None:
            return False
        elements.append(m)
        return True

    try_add(Mat.identity(d))
    for m in rep.mats:
        try_add(m)
    frontier = list(elements)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(elements):
                for x, y in ((a, b), (b, a)):
                    if len(elements) == d * d:
                        # all of End(V): no further product can be new
                        return elements
                    p = x @ y
                    if try_add(p):
                        fresh.append(p)
        frontier = fresh
    return elements


def _factor_over_q(p: Poly) -> List[Tuple[Poly, int]]:
    """Irreducible factorization of p over Q as (factor, multiplicity) pairs."""
    if p.degree < 1:
        return []
    # imported here, the one place it is needed, to keep it out of the
    # start-up of every other use of the package
    import sympy

    t = sympy.Symbol("t")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * t ** i
        for i, c in enumerate(p.coeffs)
    )
    _, factors = sympy.factor_list(sympy.Poly(expr, t))
    out = []
    for fac, mult in factors:
        fp = sympy.Poly(fac, t)
        coeffs = [Fraction(int(x.p), int(x.q)) for x in reversed(fp.all_coeffs())]
        out.append((Poly(coeffs).monic(), int(mult)))
    return out


def _certify_reducible(rep: Rep, space: Subspace):
    """(False, space), `space` checked proper and invariant; the action on
    it that the check computes is kept as `rep.witness`."""
    if space.is_zero() or space.is_full():
        raise InternalFault("reducibility certificate is not proper", {})
    mats = [space.matrix_of(m) for m in rep.mats]
    if None in mats:
        raise InternalFault(
            "reducibility certificate is not invariant",
            {"basis": space.basis},
        )
    rep.witness = Rep(rep.algebra, mats, check=False, dim=space.dim)
    return False, space


def _generator_mats(rep: Rep) -> List[Mat]:
    """The matrices of the algebra's Lie generators (`LieAlgebra.generators`)."""
    return [rep.mats[i] for i in rep.algebra.generators()]


def _norton_probe(rep: Rep, a: Mat, transposes: List[Mat], spun: set):
    """Inspect one singular element of the enveloping algebra.

    Returns (False, W) when a kernel vector generates a proper submodule,
    (True, None) when nullity is one and both spins fill everything (the
    nullity-one criterion is conclusive), or None when inconclusive.
    `spun` holds the integer rows of kernels already seen to spin to the
    whole module; they are skipped, and every new one is added.

    Both spins run under the Lie generators only: `transposes` are the
    transposes of their matrices.  A subspace invariant under rho(x) and
    rho(y) is invariant under rho([x, y]), and likewise on the transpose
    side, so each closure is the canonical Subspace that all the
    matrices give.  `_certify_reducible` still checks a proper closure
    against every matrix, as a guard against a bug here.
    """
    d = rep.dim
    gens = _generator_mats(rep)
    ker = kernel(a)
    if ker.is_zero() or ker.dim == d:
        return None
    for w in ker.rows:
        if w in spun:
            continue
        closure = spin(gens, w)
        if closure.dim < d:
            return _certify_reducible(rep, closure)
        spun.add(w)
    if ker.dim != 1:
        return None
    kert = kernel(a.transpose())
    if kert.dim != 1:
        # rank is transpose-invariant, so the nullities must agree
        raise InternalFault("transpose changed a matrix rank", {"a": a.entries})
    wclosure = spin(transposes, kert.rows[0])
    if wclosure.dim < d:
        # orthogonal complement of a transpose-side submodule is invariant
        comp = _integer_kernel(d, map(_sparse, wclosure.rows))
        return _certify_reducible(rep, comp)
    return True, None


def _proved(rep: Rep, kind: str, *mats: Mat):
    rep.simplicity = Simplicity(kind, mats)
    return True, None


def is_simple(rep: Rep) -> Tuple[bool, Optional[Subspace]]:
    """Decide irreducibility with a certificate.

    Returns (True, None) or (False, W) with W a verified proper nonzero
    invariant subspace.  A True verdict records its evidence as
    `rep.simplicity`, which `check_simplicity` re-verifies without a
    search.  A module isomorphic to one already proved simple needs no
    search: `certify_copy` carries simplicity along an invertible
    intertwiner.

    The search probes one ordered stream of enveloping-algebra elements
    with `_norton_probe` (kernel spins, with the nullity-one double spin
    conclusive in both directions), and the first probe that closes
    decides.  The stream is the Lie generators' matrices, then their
    products in pairs (stage 1); the enveloping basis (stage 2), once its
    dimension has not decided (d^2 is "burnside", 1 a scalar action); and
    f(x) for each proper factor f of the minimal polynomial of each
    candidate x (stage 4).  The candidates are the enveloping basis, then
    x + y and x - y for each pair of its elements, formed one at a time
    as the search reaches them.  Before stage 4, when the enveloping
    algebra is commutative, the first candidate whose minimal polynomial
    has its degree decides by the factorization (stage 3): a field, which
    is "field" when it has degree d and otherwise leaves the orbit of e_1
    as the witness, or zero divisors, one of which has a proper kernel.
    Zero and repeated elements are skipped, and each kernel vector is
    spun at most once per call: a spin under the fixed matrices depends
    only on the vector.  When nothing closes, SimplicityUndecided is
    raised.
    """
    d = rep.dim
    if d == 0:
        raise ValueError("simplicity of the zero module is not defined")
    if d == 1:
        return _proved(rep, "dimension-one")
    transposes = [m.transpose() for m in _generator_mats(rep)]
    spun: set = set()
    seen = set()

    def first_closing(elements):
        for a in elements:
            if a.is_zero() or a in seen:
                continue
            seen.add(a)
            verdict = _norton_probe(rep, a, transposes, spun)
            if verdict is not None:
                return _proved(rep, "nullity-one", a) if verdict[0] else verdict
        return None

    # stage 1: the nonzero generator matrices, then their products in
    # pairs of distinct indices
    gens = [m for m in _generator_mats(rep) if not m.is_zero()]
    verdict = first_closing(chain(gens, (x @ y for x, y in permutations(gens, 2))))
    if verdict is not None:
        return verdict

    # stage 2: enveloping algebra dimension, then its elements
    env = enveloping_basis(rep)
    dim_e = len(env)
    if dim_e == d * d:
        return _proved(rep, "burnside", *env)
    if dim_e == 1:
        return _certify_reducible(rep, Subspace.coordinate(d, [0]))
    verdict = first_closing(env)
    if verdict is not None:
        return verdict

    def candidates():
        yield from env
        for x, y in combinations(env, 2):
            yield x + y
            yield x - y

    # stage 3: commutative enveloping algebra via a primitive element
    if all(x @ y == y @ x for x, y in combinations(env, 2)):
        for x in candidates():
            mp = min_poly(x)
            if mp.degree != dim_e:
                continue
            factors = _factor_over_q(mp)
            if len(factors) == 1 and factors[0][1] == 1:
                # the enveloping algebra is a field
                if d == dim_e:
                    return _proved(rep, "field", x)
                # the orbit of e_1 under the enveloping algebra, which
                # the generators' matrices generate
                orbit = spin(_generator_mats(rep), [1] + [0] * (d - 1))
                return _certify_reducible(rep, orbit)
            # zero divisors: a proper factor has a proper invariant kernel
            fac = factors[0][0]
            if fac == mp:
                raise InternalFault("factorization returned the input", {})
            return _certify_reducible(rep, kernel(matrix_poly(fac, x)))

    # stage 4: factored minimal polynomials manufacture singular elements
    def proper_factor_values():
        for x in candidates():
            mp = min_poly(x)
            for fac, _mult in _factor_over_q(mp):
                if fac != mp:
                    yield matrix_poly(fac, x)

    verdict = first_closing(proper_factor_values())
    if verdict is not None:
        return verdict
    raise SimplicityUndecided(
        f"no certificate found for a module of dimension {d} "
        f"with enveloping algebra of dimension {dim_e}"
    )


def _semisimple(algebra: LieAlgebra) -> bool:
    """The algebra is nonzero with a nondegenerate Killing form: Cartan's
    criterion for semisimplicity, the hypothesis of Weyl's theorem."""
    return 0 < algebra.dim == rank(algebra.killing_form())


def _scalar_commutant(rep: Rep) -> bool:
    """End_s(V) is the scalars: one intertwiner from the module to itself."""
    return len(hom_space(rep, rep)) == 1


def _is_isomorphism(source: Rep, target: Rep, t: Mat) -> bool:
    # kept as a cheap guard against a bug in the code (hom_space uses generators)
    return (
        t.rows == target.dim
        and t.cols == source.dim
        and rank(t) == source.dim == target.dim
        and all(t @ a == b @ t for a, b in zip(source.mats, target.mats))
    )


def check_simplicity(rep: Rep) -> bool:
    """Re-verify the evidence recorded in `rep.simplicity`, with no search.

    The recorded elements are taken to lie in the enveloping algebra, as
    is_simple built them from the representing matrices; the criterion
    they witness is checked again.  False when no evidence is recorded
    or the check fails.
    """
    cert = rep.simplicity
    if cert is None:
        return False
    d = rep.dim
    if cert.kind == "dimension-one":
        return d == 1
    if cert.kind == "nullity-one":
        transposes = [m.transpose() for m in _generator_mats(rep)]
        verdict = _norton_probe(rep, cert.mats[0], transposes, set())
        return verdict is not None and verdict[0]
    if cert.kind == "burnside":
        return _flat_rank(cert.mats, d) == d * d
    if cert.kind == "field":
        x = cert.mats[0]
        mp = min_poly(x)
        return (
            mp.degree == d
            and _factor_over_q(mp) == [(mp, 1)]
            and all(x @ m == m @ x for m in rep.mats)
        )
    if cert.kind == "intertwiner":
        return check_simplicity(cert.source) and _is_isomorphism(
            cert.source, rep, cert.mats[0]
        )
    if cert.kind == "commutant":
        return _semisimple(rep.algebra) and _scalar_commutant(rep)
    return False


def _schur_isomorphism(simple: Rep, module: Rep) -> Optional[Mat]:
    """The first Hom basis element from a simple module, checked invertible.

    None when the dimensions differ or no nonzero intertwiner exists.  By
    Schur's lemma a nonzero intertwiner out of a simple module into one of
    the same dimension is invertible; if it fails the exact intertwining
    and rank check, a theorem has failed and InternalFault is raised.
    """
    if simple.dim != module.dim:
        return None
    homs = hom_space(simple, module)
    if not homs:
        return None
    t = homs[0]
    if not _is_isomorphism(simple, module, t):
        raise InternalFault(
            "a nonzero intertwiner out of a simple module is not invertible",
            {"intertwiner": t.entries},
        )
    return t


def certify_copy(simple: Rep, module: Rep) -> Optional[Mat]:
    """Prove `module` simple as an isomorphic copy of a simple module.

    `simple` must already carry simplicity evidence.  Returns an
    invertible intertwiner from `simple` onto `module`, recorded as
    `module.simplicity`, or None when the two are not isomorphic
    (see `_schur_isomorphism`).
    """
    if simple.simplicity is None:
        raise ValueError("the source module carries no simplicity evidence")
    t = _schur_isomorphism(simple, module)
    if t is not None:
        module.simplicity = Simplicity("intertwiner", (t,), source=simple)
    return t


# ---------------------------------------------------------------------------
# decomposition into simple summands

def invariant_complement(rep: Rep, space: Subspace) -> Subspace:
    """An invariant complement of an invariant subspace W, by one solve.

    The restrictions h|_W of the intertwiners h: M -> W form a left ideal
    of End_s(W), which holds an invertible element only if it holds id_W.
    So W splits off exactly when sum c_i h_i|_W = id_W is solvable over a
    basis h_i of Hom_s(M, W); the kernel of pi = sum c_i h_i, for the
    particular solution, is the complement returned.  Raises
    DecompositionError when there is no solution.

    No complement is canonical when M is isotypic: the invariant
    complements form an affine space over Hom_s(M/W, W).  The one returned
    is fixed by the bases of `rep` and `space`.
    """
    d = rep.dim
    k = space.dim
    if k == 0 or k == d:
        raise ValueError("complement asked for a trivial subspace")
    sub = rep_on_subspace(rep, space)
    homs = hom_space(rep, sub)
    wcols = space.basis_mat().transpose()
    # column i of the system is h_i|_W flattened, over one denominator
    restricted = [h @ wcols for h in homs]
    den = math.lcm(*[r._integer[0] for r in restricted])
    flats = [[x * (den // r._integer[0]) for x in _flat(r)] for r in restricted]
    eqs = []
    for j in range(k * k):
        eq = [(i, f[j]) for i, f in enumerate(flats) if f[j]]
        if j % (k + 1) == 0:
            # a diagonal entry: the right-hand side den id_W is den there
            eq.append((len(homs), den))
        eqs.append(eq)
    found = _solve(len(homs), eqs)
    # the failed solve is the proof that W has no invariant complement
    if found is None:
        raise DecompositionError(
            "invariant subspace admits no invariant complement"
        )
    pi = _combination(found.particular, homs)
    comp = kernel(pi)
    # ker pi is invariant for any intertwiner; that it complements W is
    # re-checked as a guard, because the report prints this complement.
    # Given dim comp = d - k, W + comp = M is equivalent to W meet comp = 0
    # and cheaper: it extends W's echelon, where the meet solves a kernel
    if comp.dim != d - k or not space.sum_with(comp).is_full():
        raise InternalFault(
            "projection kernel is not a complement",
            {"pi": pi.entries},
        )
    return comp


def _spun_complement(rep: Rep, space: Subspace) -> Subspace:
    """An invariant complement of the invariant subspace W, spun if it can be.

    The first spin, under the Lie generators, of a unit vector off W's
    pivots that has dimension dim M - dim W and fills M together with W is
    invariant and meets W in zero, so it is a complement.  When no unit
    vector spins to one, `invariant_complement` solves for one, and its
    failure proves that W has none.
    """
    d, k = rep.dim, space.dim
    gens = _generator_mats(rep)
    pivots = set(space.pivots)
    for i in range(d):
        if i in pivots:
            continue
        closure = spin(gens, [0] * i + [1] + [0] * (d - 1 - i))
        if closure.dim == d - k and space.sum_with(closure).is_full():
            return closure
    return invariant_complement(rep, space)


class Decomposition(list):
    """Simple summands of a module, as invariant subspaces in order.

    `modules[i]` is the action on the i-th summand in its echelon basis;
    its `simplicity` records how that summand was proved simple.
    """

    def __init__(self):
        super().__init__()
        self.modules: List[Rep] = []


def simple_decomposition(rep: Rep) -> Decomposition:
    """Split the module into simple invariant summands.

    Pieces are taken depth first, the invariant subspace found by
    is_simple before its complement.  A piece that `certify_copy` can
    reach from a summand already certified is simple by an invertible
    intertwiner, so each isomorphism type of summand is certified once.
    When the algebra is semisimple, a piece cut off by a split is then
    certified by its commutant, with no search (the "commutant" kind of
    `Simplicity`); the module as a whole, and every piece otherwise, runs
    is_simple, whose first probe usually splits a reducible module for
    less than its commutant costs.  A reducible piece is split along the
    invariant subspace is_simple found and the complement
    `_spun_complement` gives.  Raises DecompositionError when the module
    is not semisimple and SimplicityUndecided when irreducibility of a
    piece cannot be certified.  The returned subspaces are verified
    independent and spanning.
    """
    d = rep.dim
    weyl = _semisimple(rep.algebra)
    parts = Decomposition()
    searched: List[Rep] = []
    # each piece with the action on it, when known, in its echelon basis
    pending = [(Subspace.full(d), rep)]
    while pending:
        piece, sub = pending.pop()
        whole = piece.is_full()
        if sub is None:
            sub = rep_on_subspace(rep, piece)
        if not any(certify_copy(v, sub) is not None for v in searched):
            if weyl and not whole and _scalar_commutant(sub):
                sub.simplicity = Simplicity("commutant")
            else:
                simple, wit = is_simple(sub)
                if not simple:
                    comp = _spun_complement(sub, wit)
                    # the whole module's witness embeds as itself
                    pending += [(piece.embed(comp), None),
                                (piece.embed(wit), sub.witness if whole else None)]
                    continue
            searched.append(sub)
        parts.append(piece)
        parts.modules.append(sub)
    total = Subspace.zero(d)
    count = 0
    for p in parts:
        count += p.dim
        total = total.sum_with(p)
    if count != d or not total.is_full():
        raise InternalFault(
            "summands fail to stack up to the whole module",
            {"dims": [p.dim for p in parts]},
        )
    return parts


def match_decompositions(
    rep1: Rep,
    parts1: Sequence[Subspace],
    rep2: Rep,
    parts2: Sequence[Subspace],
):
    """Match simple summands across two decompositions by isomorphism.

    Returns (perm, isos) where perm[i] = j pairs parts1[i] with parts2[j]
    and isos[i] is an invertible intertwiner between the restricted
    modules in their echelon coordinates.  Raises ValueError when no
    perfect matching exists (the decompositions then do not describe
    isomorphic module lists).  The summands must be simple: an isomorphism
    is taken by Schur's lemma as in `certify_copy`, and a singular one
    raises InternalFault.
    """
    if len(parts1) != len(parts2):
        raise ValueError("decompositions have different lengths")
    subs1 = [rep_on_subspace(rep1, p) for p in parts1]
    subs2 = [rep_on_subspace(rep2, p) for p in parts2]
    perm = []
    isos = []
    for i, s1 in enumerate(subs1):
        for j, s2 in enumerate(subs2):
            if j in perm:
                continue
            iso = _schur_isomorphism(s1, s2)
            if iso is not None:
                break
        else:
            raise ValueError(f"summand {i} matches nothing on the other side")
        perm.append(j)
        isos.append(iso)
    return perm, isos
