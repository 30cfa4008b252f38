"""Representations of structure-constant Lie algebras over Q.

Everything returns certificates: a reducibility verdict comes with a
verified invariant subspace, a simplicity verdict leaves re-checkable
evidence on the module, and splittings come with verified projections.
Simplicity is decided through the commutant End_s(V) of a module proved
semisimple; SimplicityUndecided is raised, rather than a guess, only if
no candidate element of the commutant decides it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import DecompositionError, InternalFault, RepError, SimplicityUndecided
from .exactla import (
    _flat,
    _integer_echelon,
    _integer_kernel,
    _integer_mat,
    _null_space,
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
    solve_combination,
)
from .liecore import LieAlgebra


class Rep:
    """A Lie algebra representation given by one matrix per basis element.

    The defining condition rho([e_i, e_j]) = rho(e_i) rho(e_j) -
    rho(e_j) rho(e_i) is checked on all basis pairs at construction when
    `check` is set.  `mats` is a sequence that nothing reassigns: a tuple, or for a module
    derived from another (`_derived_rep`) a `_Matrices`, which builds a
    matrix on its first read.  What is computed from the matrices alone
    is kept on the module once built: the standard basis that every
    `hom_space` out of it solves over.
    """

    def __init__(
        self,
        algebra: LieAlgebra,
        mats: Sequence[Mat],
        check: bool = True,
        dim: Optional[int] = None,
    ):
        lazy = isinstance(mats, _Matrices)
        if not lazy:
            mats = tuple(mats)
        if len(mats) != algebra.dim:
            raise RepError("need exactly one matrix per basis element")
        if lazy:
            # `_derived_rep` builds every matrix at the declared dimension
            d = dim
        elif mats:
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
        # the spin basis that every hom_space out of it solves over, once built
        self.standard_basis: Optional[_StandardBasis] = None
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


class Simplicity(NamedTuple):
    """How a module was proved simple, recorded when it was proved.

    A module proved semisimple is simple exactly when its commutant
    E = End_s(V) is a division algebra.  kind is one of
      "dimension-one"  the module is a line;
      "commutant"      E is the scalars.  No mats are recorded;
      "field"          mats[0] in E has an irreducible minimal polynomial
                       of degree dim E, so E is a field;
      "quaternion"     mats = (i, j) in E with i^2 = a, j^2 = b scalars and
                       ij = -ji, dim E = 4 and no rational point on
                       x^2 = a y^2 + b z^2, so E is the division algebra
                       (a, b)_Q;
      "intertwiner"    mats[0] is an invertible intertwiner from `source`,
                       a module proved simple (Schur's lemma).
    Semisimplicity is Weyl's theorem when the algebra has a nondegenerate
    Killing form (Cartan's criterion), else Dickson's criterion on the
    enveloping algebra.
    """

    kind: str
    mats: Tuple[Mat, ...] = ()
    source: Optional[Rep] = None


# ---------------------------------------------------------------------------
# basic constructions

class _Matrices:
    """The matrices of a module derived from a source module: the one at
    basis index i is build(the source's matrix at i).  `_derived_rep`
    builds the Lie generators' at once; any other is built on its first
    read and kept.  build returns None when the source's matrix does not
    preserve a subspace; the generators' matrices preserving it, so does
    every basis element's, as the source is a module, so None there is a
    failed theorem and raises InternalFault."""

    __slots__ = ("_source", "_build", "_built")

    def __init__(self, source: Sequence[Mat], build, built: list):
        self._source = source
        self._build = build
        self._built = built

    def __len__(self):
        return len(self._built)

    def __getitem__(self, i: int) -> Mat:
        m = self._built[i]
        if m is None:
            m = self._build(self._source[i])
            if m is None:
                raise InternalFault("a subspace invariant under the Lie generators "
                                    "is not invariant under a basis element", {"index": i})
            self._built[i] = m
        return m

    def __iter__(self):
        return map(self.__getitem__, range(len(self._built)))


def _derived_rep(rep: Rep, dim: int, build) -> Optional[Rep]:
    """The module of dimension `dim` whose matrix at each basis index is
    build(rep's matrix there), or None when build returns None for a Lie
    generator: a subspace invariant under rho(x) and rho(y) is invariant
    under rho([x, y]), so the generators decide invariance, and the other
    matrices are built only when read (`_Matrices`)."""
    built: list = [None] * rep.algebra.dim
    for i in rep.algebra.generators():
        built[i] = build(rep.mats[i])
        if built[i] is None:
            return None
    return Rep(rep.algebra, _Matrices(rep.mats, build, built), check=False, dim=dim)


def rep_on_subspace(rep: Rep, space: Subspace) -> Rep:
    """Restriction of `rep` to an invariant subspace, in its echelon basis."""
    if space.is_zero():
        raise ValueError("restriction to the zero subspace")
    sub = _derived_rep(rep, space.dim, space.matrix_of)
    if sub is None:
        raise ValueError("subspace is not invariant")
    return sub


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

    def wedge(m: Mat) -> Mat:
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
        return _integer_mat(n2, den, tuple(map(_sparse, out)))

    return _derived_rep(rep, n2, wedge)


def is_faithful(rep: Rep) -> bool:
    """The matrices are linearly independent, so only 0 acts as 0."""
    found = Echelon(rep.dim ** 2)
    return all(found.add_integer(_flat(m)) is not None for m in rep.mats)


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


class _StandardBasis:
    """The half of `hom_space` that depends only on its source module V.

    Unit vectors of V are spun under the Lie generators
    (`LieAlgebra.generators`) until they span it (`_spin_tree`); each
    vector b_k the spin keeps is a seed or b_k = den * rho(g) b_p for an
    earlier b_p.  Kept are
      - `tree`: (parent, g) of each b_k, parent None for a seed, and
        `seeds`, the indices of the seeds;
      - `scales`: f_k with b_k = f_k (product of the rho(g) along the tree)
        applied to its seed, f_k the product of the denominators on the way;
      - `binv`: B^-1 for B the matrix whose columns are the b_k;
      - `relations`: (k, g, f, c) for every pair (b_k, g) that is not a
        tree edge, with c = beta B^-1 G b_k as sparse (j, c_j) pairs, G =
        den rho(g), beta the denominator of B^-1 and f = beta den: c / f
        are the coordinates of rho(g) b_k in the b_j.
    All of it is a function of the module's matrices, which no one
    reassigns, so it is built once per `Rep`, the first time an
    intertwiner out of it is solved, and kept as `Rep.standard_basis`.
    """

    __slots__ = ("tree", "seeds", "scales", "binv", "relations")

    def __init__(self, rep: Rep):
        d = rep.dim
        mats = _generator_mats(rep)
        found = Echelon(d)
        tree: list = []
        for j in range(d):
            if len(found.rows) == d:
                break
            _spin_tree(mats, found, [int(c == j) for c in range(d)], tree)
        self.tree = [(parent, i) for _, parent, i in tree]
        self.seeds = [k for k, (parent, _) in enumerate(self.tree) if parent is None]
        self.scales: List[int] = []
        for parent, i in self.tree:
            f = 1 if parent is None else mats[i]._integer[0] * self.scales[parent]
            self.scales.append(f)
        # B has the b_k as its columns
        spun = _integer_mat(d, 1, tuple(_sparse(b) for b, _, _ in tree))
        self.binv = binv = inverse(spun.transpose())
        beta = binv._integer[0]
        edges = set(self.tree)
        self.relations = [
            (k, i, beta * m._integer[0], _sparse(binv._integer_apply(m._integer_apply(b))))
            for k, (b, _, _) in enumerate(tree)
            for i, m in enumerate(mats)
            if (k, i) not in edges
        ]


def hom_space(rep1: Rep, rep2: Rep) -> List[Mat]:
    """Basis of the intertwiners T with T rho1(x) = rho2(x) T for all x.

    Solved by the standard-basis method (Lux & Szőke, Computing
    homomorphism spaces between modules over finite dimensional algebras,
    Exp. Math. 12 (2003)).  What depends on rep1 alone, its spin basis
    b_k under the Lie generators, B^-1 and the coordinates c below, is
    its standard basis (`_StandardBasis`), built on rep1's first call and
    kept on it; each call solves only the part that depends on rep2.  The
    unknowns t are T's values on the seeds: d2 per seed, where the
    entries of T are d1 * d2.
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
    simplicity, tests the rank and the generators' matrices, as a guard
    against a bug here.
    Both modules must be of the same algebra object, whose generating set
    is used.
    """
    if rep1.algebra is not rep2.algebra:
        raise ValueError("intertwiners need representations of the same algebra")
    basis = rep1.standard_basis
    if basis is None:
        basis = rep1.standard_basis = _StandardBasis(rep1)
    d1, d2 = rep1.dim, rep2.dim
    mats2 = _generator_mats(rep2)
    seeds = basis.seeds
    width = d2 * len(seeds)
    # T b_k = f_k X_k t: a seed's own d2 unknowns, or, along a tree edge,
    # b_k = den1 rho1(g) b_p, so T b_k = den1 rho2(g) T b_p
    xs: List[Mat] = []
    for k, (parent, i) in enumerate(basis.tree):
        if parent is None:
            first = d2 * seeds.index(k)
            xs.append(_integer_mat(width, 1, tuple(((first + r, 1),) for r in range(d2))))
        else:
            xs.append(mats2[i] @ xs[parent])
    # over one denominator: T b_k = Z_k t / lcm, Z_k as sparse integer rows
    lcm = math.lcm(*[x._integer[0] for x in xs])
    zs = []
    for x, f in zip(xs, basis.scales):
        den, rows = x._integer
        f *= lcm // den
        zs.append([[(a, f * z) for a, z in row] for row in rows])
    eqs = Echelon(width)
    for k, i, f, c in basis.relations:
        # beta den1 G2 Z_k = den2 sum_j c_j Z_j, as `_StandardBasis` says
        den2, g2_rows = mats2[i]._integer
        terms = [(den2 * cj, zs[j]) for j, cj in c]
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
        homs.add_integer(_flat(tb @ basis.binv))
    homs = homs.subspace()
    return [_unflat(row, row[p], d2, d1) for row, p in zip(homs.rows, homs.pivots)]


def invariant_symmetric_forms(rep: Rep) -> List[Mat]:
    """Basis of symmetric B with rho(x)^T B + B rho(x) = 0 for all x.

    Those B are the symmetric intertwiners into the dual module, whose
    matrices are -rho(x)^T; the basis is the reduced echelon basis of
    their subspace of Q^(d^2), with B read row by row.
    """
    d = rep.dim
    dual = _derived_rep(rep, d, lambda m: -m.transpose())
    homs = hom_space(rep, dual)
    # sum c_i H_i is symmetric exactly when sum c_i (H_i - H_i^T) = 0
    symmetric = solve_combination([h - h.transpose() for h in homs]).kernel
    # the H_i flattened over one denominator, combined in integers
    den = math.lcm(*[h._integer[0] for h in homs])
    flats = [[x * (den // h._integer[0]) for x in _flat(h)] for h in homs]
    forms = Echelon(d * d)
    for c in symmetric.rows:
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

def enveloping_basis(rep: Rep) -> Tuple[Mat, ...]:
    """Basis of the unital algebra generated by the representing matrices:
    the span of the words in the Lie generators' matrices, since rho([x, y])
    is a word in rho(x) and rho(y).  It is spun from the identity under left
    multiplication by those matrices, until no product is new or the basis
    spans all of End(V)."""
    d = rep.dim
    gens = _generator_mats(rep)
    found = Echelon(d * d)
    elements: List[Mat] = []
    # the products are read off the list as it grows, each element in turn
    for p in chain([Mat.identity(d)], (g @ e for e in elements for g in gens)):
        if found.add_integer(_flat(p)) is not None:
            elements.append(p)
            if len(elements) == d * d:
                # all of End(V): no further product can be new
                break
    return tuple(elements)


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


def _conic_point(a, b) -> Optional[Tuple[Fraction, Fraction, Fraction]]:
    """A nonzero rational point (x, y, z) of x^2 = a y^2 + b z^2, or None
    when there is none, which makes (a, b)_Q a division algebra.

    sympy is asked about x^2 - A y^2 - B z^2 for A, B the square-free
    integers in the square classes of a and b: over a common denominator
    instead, sympy 1.14 missed the point of a split conic.  A point it
    returns is checked exactly.
    """
    if not a or not b:
        return tuple(map(Fraction, (0, 1, 0) if not a else (0, 0, 1)))
    # imported here, as in `_factor_over_q`
    import sympy
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic_normal

    def square_class(c):
        # c = n / den^2 = A (r / den)^2 with n = num * den = A r^2
        n = c.numerator * c.denominator
        core = math.prod(p for p, e in sympy.factorint(abs(n)).items() if e % 2)
        return core if n > 0 else -core, Fraction(math.isqrt(abs(n) // core), c.denominator)

    (ca, ra), (cb, rb) = square_class(a), square_class(b)
    x, y, z = sympy.symbols("x y z", integer=True)
    found = diop_ternary_quadratic_normal(x ** 2 - ca * y ** 2 - cb * z ** 2)
    if found[0] is None:
        return None
    # a (Y / ra)^2 = A Y^2, and likewise for b
    x0, y0, z0 = point = (Fraction(int(found[0])), int(found[1]) / ra, int(found[2]) / rb)
    if not any(point) or x0 * x0 != a * y0 * y0 + b * z0 * z0:
        raise InternalFault("a point of a conic fails its equation",
                            {"a": a, "b": b, "point": point})
    return point


def _certify_reducible(rep: Rep, space: Subspace):
    """(False, space), `space` checked proper and invariant under the Lie
    generators' matrices, so under every matrix; the action on it that the
    check computes is kept as `rep.witness`."""
    if space.is_zero() or space.is_full():
        raise InternalFault("reducibility certificate is not proper", {})
    rep.witness = _derived_rep(rep, space.dim, space.matrix_of)
    if rep.witness is None:
        raise InternalFault(
            "reducibility certificate is not invariant",
            {"basis": space.basis},
        )
    return False, space


def _generator_mats(rep: Rep) -> List[Mat]:
    """The matrices of the algebra's Lie generators (`LieAlgebra.generators`)."""
    return [rep.mats[i] for i in rep.algebra.generators()]


def _kernel_probe(rep: Rep, a: Mat, spun: set) -> Optional[Subspace]:
    """The first spin under the Lie generators of a kernel vector of `a`
    that is a proper subspace, or None.  `spun` holds the kernel rows
    already seen to spin to the whole module, which are skipped; each new
    one is added.  A subspace invariant under rho(x) and rho(y) is
    invariant under rho([x, y]); `_certify_reducible` still checks a
    proper closure against the generators' matrices."""
    gens = _generator_mats(rep)
    for w in kernel(a).rows:
        if w not in spun:
            closure = spin(gens, w)
            if closure.dim < rep.dim:
                return closure
            spun.add(w)
    return None


def _radical_image(env: Sequence[Mat], d: int) -> Subspace:
    """J V for J the radical of the trace form tr(xy) on the enveloping
    algebra with basis `env`.  In characteristic 0 that radical is the
    Jacobson radical (Dickson's criterion; Pierce, Associative Algebras,
    GTM 88), a nilpotent ideal: J V is invariant, proper when J is
    nonzero, and zero exactly when the algebra, so V, is semisimple."""
    # tr(x y) sums x[r][c] y[c][r].  The flats are the x_k times their
    # denominators D_k, so the integer Gram matrix is D G D, and each of
    # its kernel vectors c gives the radical element sum c_k flat_k
    flats = [_flat(x) for x in env]
    cols = [_flat(y.transpose()) for y in env]
    gram = [_sparse([sum(u * v for u, v in zip(f, c) if u) for c in cols]) for f in flats]
    image = Echelon(d)
    for coeffs in _integer_kernel(len(env), gram).rows:
        j = [sum(c * f[k] for c, f in zip(coeffs, flats) if c) for k in range(d * d)]
        for col in range(d):
            image.add_integer(j[col::d])
    return image.subspace()


def _quaternion_squares(i: Mat, j: Mat) -> Optional[Tuple[Fraction, Fraction]]:
    """(a, b) when i^2 = a and j^2 = b are scalars and ij = -ji, else None."""
    ident = Mat.identity(i.rows)
    a, b = (i @ i)[0, 0], (j @ j)[0, 0]
    if i @ i == ident.scale(a) and j @ j == ident.scale(b) and i @ j == -(j @ i):
        return a, b
    return None


def _quaternion_split(rep: Rep, homs: Sequence[Mat]):
    """Decide a semisimple module whose commutant E, with basis `homs`, is
    noncommutative of dimension 4, so a quaternion algebra (a, b)_Q
    (Voight, Quaternion Algebras, GTM 288).  For x outside the centre,
    i = x - tr(x)/d has reduced trace 0, so i^2 = a; for y not commuting
    with i, j = iy - yi anticommutes with i and j^2 = b.  A point of
    x0^2 = a x1^2 + b x2^2 makes x1 i + x2 j - x0 a zero divisor, whose
    kernel is the witness; no point makes E a division algebra."""
    ident = Mat.identity(rep.dim)
    x = next(x for x in homs if any(x @ y != y @ x for y in homs))
    i = x - ident.scale(x.trace() / rep.dim)
    y = next(y for y in homs if i @ y != y @ i)
    j = i @ y - y @ i
    squares = _quaternion_squares(i, j)
    if squares is None:
        raise InternalFault("a noncommutative commutant of dimension 4 is not "
                            "a quaternion algebra", {"i": i.entries, "j": j.entries})
    point = _conic_point(*squares)
    if point is None:
        return _proved(rep, "quaternion", i, j)
    x0, x1, x2 = point
    return _certify_reducible(rep, kernel(i.scale(x1) + j.scale(x2) - ident.scale(x0)))


def _proved(rep: Rep, kind: str, *mats: Mat):
    rep.simplicity = Simplicity(kind, mats)
    return True, None


def is_simple(rep: Rep) -> Tuple[bool, Optional[Subspace]]:
    """Decide irreducibility with a certificate.

    Returns (True, None) or (False, W) with W a verified proper nonzero
    invariant subspace.  A True verdict records its evidence as
    `rep.simplicity` (see `Simplicity`).

    1. Kernel spins: the kernel vectors of each nonzero basis matrix, in
       index order, are spun once each (`_kernel_probe`); the first
       proper spin is the witness, so it depends only on the matrices.
       A matrix of a derived module is built when the walk reaches it.
    2. Semisimplicity: by Weyl's theorem when the algebra is semisimple.
       Otherwise the enveloping algebra is spun from the identity
       (`enveloping_basis`): a scalar one leaves a line invariant, and a
       nonzero radical J of its trace form gives the witness J V.
    3. The commutant E = End_s(V) of a semisimple V is a product of
       matrix algebras over division algebras, one per isotypic part, so
       V is simple exactly when E is a division algebra.  dim E = 1 is
       "commutant"; a noncommutative E of dimension 4 is decided by its
       conic (`_quaternion_split`).  Otherwise, for candidates x from E's
       basis, then x + y and x - y for each pair, ker f(x) for a proper
       factor f of x's minimal polynomial is the witness, and in a
       commutative E an irreducible one of degree dim E makes E a field.
       SimplicityUndecided is raised when no candidate decides.
    """
    d = rep.dim
    if d == 0:
        raise ValueError("simplicity of the zero module is not defined")
    if d == 1:
        return _proved(rep, "dimension-one")
    spun: set = set()
    for a in rep.mats:
        if not a.is_zero():
            closure = _kernel_probe(rep, a, spun)
            if closure is not None:
                return _certify_reducible(rep, closure)

    if not rep.algebra.is_semisimple():
        env = enveloping_basis(rep)
        witness = Subspace.coordinate(d, [0]) if len(env) == 1 else _radical_image(env, d)
        if not witness.is_zero():
            return _certify_reducible(rep, witness)

    homs = hom_space(rep, rep)
    if len(homs) == 1:
        return _proved(rep, "commutant")
    commutative = all(x @ y == y @ x for x, y in combinations(homs, 2))
    if not commutative and len(homs) == 4:
        return _quaternion_split(rep, homs)
    sums = (s for x, y in combinations(homs, 2) for s in (x + y, x - y))
    for x in chain(homs, sums):
        mp = min_poly(x)
        if mp.degree < 2:
            continue
        factors = _factor_over_q(mp)
        if factors != [(mp, 1)]:
            return _certify_reducible(rep, kernel(matrix_poly(factors[0][0], x)))
        if commutative and mp.degree == len(homs):
            return _proved(rep, "field", x)
    raise SimplicityUndecided(
        f"no certificate found for a module of dimension {d} "
        f"with a commutant of dimension {len(homs)}",
        rep, len(homs),
    )


def _is_isomorphism(source: Rep, target: Rep, t: Mat) -> bool:
    """t is invertible and intertwines the Lie generators' matrices, so
    every basis element's; kept as a cheap guard against a bug in the
    solve of `hom_space`.  False for modules of two algebra objects."""
    return (
        source.algebra is target.algebra
        and t.rows == target.dim
        and t.cols == source.dim
        and rank(t) == source.dim == target.dim
        and all(t @ a == b @ t
                for a, b in zip(_generator_mats(source), _generator_mats(target)))
    )


def _schur_homs(simple: Rep, module: Rep) -> List[Mat]:
    """Hom_s(simple, module) for a simple module `simple`.  By Schur's
    lemma a nonzero intertwiner out of it is injective: so [] with no solve
    when `module` is smaller, and when the dimensions agree the first basis
    element is invertible, else a theorem has failed (InternalFault)."""
    if simple.dim > module.dim:
        return []
    homs = hom_space(simple, module)
    if homs and simple.dim == module.dim and not _is_isomorphism(simple, module, homs[0]):
        raise InternalFault(
            "a nonzero intertwiner out of a simple module is not invertible",
            {"intertwiner": homs[0].entries},
        )
    return homs


def certify_copy(simple: Rep, module: Rep) -> List[Mat]:
    """Hom_s(simple, module) (`_schur_homs`) for a module `simple` that
    carries simplicity evidence, else ValueError with nothing recorded.
    When the dimensions agree, a first element, invertible, is recorded as
    `module.simplicity`; from a smaller `simple`, its image is a copy of
    `simple` inside `module`."""
    if simple.simplicity is None:
        raise ValueError("the source module carries no simplicity evidence")
    homs = _schur_homs(simple, module)
    if homs and simple.dim == module.dim:
        module.simplicity = Simplicity("intertwiner", (homs[0],), source=simple)
    return homs


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
    found = solve_combination([h @ wcols for h in homs], Mat.identity(k))
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

    Pieces are taken depth first.  Each summand already certified, of at
    most the piece's dimension, is offered the piece once (`certify_copy`)
    until one has a nonzero intertwiner into it.  One of the piece's
    dimension certifies the piece as a copy, so each isomorphism type of
    summand is certified once; a smaller one V gives the image W of its
    first intertwiner h to split along, a copy of V by Schur's lemma,
    which carries h, read in W's basis, as its certificate and is not
    offered to V again.  Failing that, when the algebra is semisimple, a
    piece cut off by a split is certified by a scalar commutant (the
    "commutant" kind of `Simplicity`); the module as a whole, and every
    piece otherwise, runs is_simple.  A reducible piece is split along
    the invariant subspace found and the complement `_spun_complement`
    gives, the smaller of the two taken first, the invariant subspace
    when their dimensions agree.  Raises DecompositionError when the
    module is not semisimple and SimplicityUndecided when irreducibility
    of a piece cannot be certified.  The returned subspaces are
    independent and span the module with no further check: each split is
    a piece W plus a complement that `_spun_complement` or
    `invariant_complement` checked to fill the piece with W, and `embed`
    is injective.
    """
    d = rep.dim
    weyl = rep.algebra.is_semisimple()
    parts = Decomposition()
    searched: List[Rep] = []
    # each piece with the action on it, when known, in its echelon basis
    pending = [(Subspace.full(d), rep)]
    while pending:
        piece, sub = pending.pop()
        whole = piece.is_full()
        if sub is None:
            sub = rep_on_subspace(rep, piece)
        # a copy of V split along an image arrives certified; any other
        # piece takes Hom_s(V, piece) for the first V with a nonzero one
        certified = not whole and sub.simplicity is not None
        homs = []
        for source in () if certified else searched:
            homs = certify_copy(source, sub)
            if homs:
                break
        if not certified and (not homs or homs[0].cols < sub.dim):
            image = None
            if homs:
                # V's image: h's columns are the rows of its transpose
                wit = _integer_echelon(sub.dim, homs[0].transpose()._integer[1]).subspace()
                if wit.dim != source.dim:
                    raise InternalFault("a nonzero intertwiner out of a simple module "
                                        "is not injective", {"intertwiner": homs[0].entries})
                # h in W's echelon basis: the entries of its columns at W's pivots
                den, rows = homs[0]._integer
                image = rep_on_subspace(sub, wit)
                image.simplicity = Simplicity("intertwiner", (_integer_mat(
                    source.dim, den, tuple(rows[p] for p in wit.pivots)),), source=source)
            elif weyl and not whole and len(hom_space(sub, sub)) == 1:
                sub.simplicity = Simplicity("commutant")
                wit = None
            else:
                simple, wit = is_simple(sub)
                image = sub.witness if whole else None
            if wit is not None:
                comp = _spun_complement(sub, wit)
                # a witness is the action on W in W's echelon basis, which
                # `embed` carries to piece.embed(W)'s; the stack pops the
                # last piece first, and the sort is stable
                split = [(piece.embed(comp), None), (piece.embed(wit), image)]
                pending += sorted(split, key=lambda p: -p[0].dim)
                continue
            searched.append(sub)
        parts.append(piece)
        parts.modules.append(sub)
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
    is taken by Schur's lemma (`_schur_homs`, as in `certify_copy`), and a
    singular one raises InternalFault.
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
            homs = _schur_homs(s1, s2) if s1.dim == s2.dim else []
            if homs:
                break
        else:
            raise ValueError(f"summand {i} matches nothing on the other side")
        perm.append(j)
        isos.append(homs[0])
    return perm, isos
