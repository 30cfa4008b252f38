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
from itertools import chain, permutations
from typing import List, Optional, Sequence, Tuple

from .errors import DecompositionError, InternalFault, RepError, SimplicityUndecided
from .exactla import (
    _ONE,
    _ZERO,
    _integer_kernel,
    Echelon,
    Mat,
    Poly,
    Subspace,
    kernel,
    matrix_poly,
    min_poly,
    rank,
    solve,
    unit_vec,
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
                       a module proved simple (Schur's lemma).
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
    mats = [space.matrix_of(m.apply) for m in rep.mats]
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

    def wedge_coord(out, a, b, coeff):
        if a == b or not coeff:
            return
        if a < b:
            out[index[(a, b)]] += coeff
        else:
            out[index[(b, a)]] -= coeff

    mats = []
    for m in rep.mats:
        cols = []
        for (i, j) in pairs:
            col = [_ZERO] * n2
            for k in range(d):
                wedge_coord(col, k, j, m[k, i])
                wedge_coord(col, i, k, m[k, j])
            cols.append(col)
        mats.append(Mat.from_cols(cols, rows=n2))
    return Rep(rep.algebra, mats, check=False, dim=n2)


def is_faithful(rep: Rep) -> bool:
    cols = [
        tuple(m.entries[r][c] for r in range(rep.dim) for c in range(rep.dim))
        for m in rep.mats
    ]
    return kernel(Mat.from_cols(cols)).is_zero()


def spin(mats: Sequence[Mat], v, d: int) -> Subspace:
    """Smallest subspace of Q^d containing v and invariant under `mats`."""
    found = Echelon(d)
    queue = [found.add(v)]
    while queue:
        u = queue.pop()
        if u is None:
            continue
        for m in mats:
            if len(found.rows) == d:
                # a full span stores no further row, so no image can change it
                return found.subspace()
            queue.append(found.add(m.apply(u)))
    return found.subspace()


def hom_space(rep1: Rep, rep2: Rep) -> List[Mat]:
    """Basis of the intertwiners T with T rho1(x) = rho2(x) T for all x.

    The equations are taken for the algebra's Lie generators only
    (`LieAlgebra.generators`).  As rho1 and rho2 are representations, T
    commuting with rho(x) and rho(y) commutes with rho([x, y]), so the
    solution space, and with it the reduced echelon basis returned, is
    the one every basis element gives.  `_is_isomorphism`, which re-checks
    the intertwiners that certify simplicity, still tests every matrix,
    as a guard against a bug here.  Both modules must be of the same
    algebra object, whose generating set is used.
    """
    if rep1.algebra is not rep2.algebra:
        raise ValueError("intertwiners need representations of the same algebra")
    d1, d2 = rep1.dim, rep2.dim
    width = d1 * d2
    # different generators often give the same equation row; hashing the
    # sparse key of a repeat is cheaper than reducing it to zero in the kernel
    seen = set()
    rows = []
    for i in rep1.algebra.generators():
        m1, m2 = rep1.mats[i], rep2.mats[i]
        # equation block: T m1 - m2 T = 0, unknown T is d2 x d1, row-major,
        # times the lcm of the two denominators so that it is integral;
        # each row is kept as its sorted nonzero (unknown, coefficient) pairs
        den1, m1_rows = m1._integer_rows()
        den2, m2_rows = m2._integer_rows()
        den = math.lcm(den1, den2)
        f1, f2 = den // den1, den // den2
        m1_cols = [[] for _ in range(d1)]
        for k, m1_row in enumerate(m1_rows):
            for c, a in m1_row:
                m1_cols[c].append((k, f1 * a))
        for r in range(d2):
            m2_row = [(k * d1, f2 * b) for k, b in m2_rows[r]]
            for c in range(d1):
                eq = {r * d1 + k: a for k, a in m1_cols[c]}
                for kd, b in m2_row:
                    eq[kd + c] = eq.get(kd + c, 0) - b
                key = tuple(sorted((j, x) for j, x in eq.items() if x))
                if key and key not in seen:
                    seen.add(key)
                    rows.append(key)
    combos = _integer_kernel(width, rows)
    out = []
    for v in combos.basis:
        out.append(Mat([v[r * d1:(r + 1) * d1] for r in range(d2)], cols=d1))
    return out


def invariant_symmetric_forms(rep: Rep) -> List[Mat]:
    """Basis of symmetric B with rho(x)^T B + B rho(x) = 0 for all x.

    Those B are the symmetric intertwiners into the dual module, whose
    matrices are -rho(x)^T; the basis is the reduced echelon basis of
    their subspace of Q^(d^2), with B read row by row.
    """
    d = rep.dim
    dual = Rep(rep.algebra, [-m.transpose() for m in rep.mats], check=False, dim=d)
    homs = hom_space(rep, dual)
    # sum c_i H_i is symmetric exactly when sum c_i (H_i - H_i^T) = 0
    skew = [
        [h[r, c] - h[c, r] for h in homs] for r in range(d) for c in range(r + 1, d)
    ]
    combos = kernel(Mat(skew, cols=len(homs)))
    forms = Subspace.span(d * d, [
        [x for row in _combination(c, homs).entries for x in row]
        for c in combos.basis
    ])
    return [
        Mat([v[r * d:(r + 1) * d] for r in range(d)], cols=d)
        for v in forms.basis
    ]


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

    The element order is part of `is_simple`'s schedule: stages 2-4 probe
    the elements and their +- pairwise sums in this order, and the first
    probe that closes picks the certificate.  So another basis of the same
    algebra is no drop-in replacement: a left-multiplication spin of the
    identity left P (dimension 8, envelope 16) of a dense d = 4 Poincare
    and de Sitter draw SimplicityUndecided.
    """
    d = rep.dim
    found = Echelon(d * d)
    elements: List[Mat] = []

    def try_add(m: Mat) -> bool:
        if found.add([x for row in m.entries for x in row]) is None:
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


def _invariant_under(rep: Rep, space: Subspace) -> bool:
    return all(
        space.contains(m.apply(b)) for m in rep.mats for b in space.basis
    )


def _certify_reducible(rep: Rep, space: Subspace):
    if space.is_zero() or space.is_full():
        raise InternalFault("reducibility certificate is not proper", {})
    if not _invariant_under(rep, space):
        raise InternalFault(
            "reducibility certificate is not invariant",
            {"basis": space.basis},
        )
    return False, space


def _generator_mats(rep: Rep) -> List[Mat]:
    """The matrices of the algebra's Lie generators (`LieAlgebra.generators`)."""
    return [rep.mats[i] for i in rep.algebra.generators()]


def _norton_probe(rep: Rep, a: Mat, transposes: List[Mat], spun: set):
    """Inspect one singular element of the enveloping algebra.

    Returns (False, W) when a kernel vector generates a proper submodule,
    (True, None) when nullity is one and both spins fill everything (the
    nullity-one criterion is conclusive), or None when inconclusive.
    `spun` holds kernel vectors already seen to spin to the whole module;
    they are skipped, and every new one is added.

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
    for v in ker.basis:
        if v in spun:
            continue
        closure = spin(gens, v, d)
        if closure.dim < d:
            return _certify_reducible(rep, closure)
        spun.add(v)
    if ker.dim != 1:
        return None
    kert = kernel(a.transpose())
    if kert.dim != 1:
        # rank is transpose-invariant, so the nullities must agree
        raise InternalFault("transpose changed a matrix rank", {"a": a.entries})
    wclosure = spin(transposes, kert.basis[0], d)
    if wclosure.dim < d:
        # orthogonal complement of a transpose-side submodule is invariant
        comp = kernel(Mat([list(r) for r in wclosure.basis], cols=d))
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
    search.  The decision procedure is a deterministic schedule: kernel
    spins of singular elements (with the nullity-one double spin
    conclusive in both directions), the enveloping-algebra dimension
    count, the commutative primitive-element route, and factored minimal
    polynomials to manufacture more singular elements.  If the whole
    schedule is inconclusive it raises SimplicityUndecided.  A module
    isomorphic to one already proved simple needs no schedule:
    `certify_copy` carries simplicity along an invertible intertwiner.

    Within one call each kernel vector is spun at most once: a spin under
    the fixed matrices depends only on the vector, so a repeat could only
    fill the space again.  The stage-1 products are formed one at a time,
    as the probes reach them.

    Stage 1 probes the matrices of the Lie generators and their pairwise
    products, not those of every basis element: each is still an element
    of the enveloping algebra, so every certificate stays valid, and the
    spins need only the generators (see `_norton_probe`).  The
    enveloping algebra of stage 2 is still built from every matrix,
    because its element order is part of the schedule (see
    `enveloping_basis`).
    """
    d = rep.dim
    if d == 0:
        raise ValueError("simplicity of the zero module is not defined")
    if d == 1:
        return _proved(rep, "dimension-one")
    transposes = [m.transpose() for m in _generator_mats(rep)]
    spun: set = set()

    def probe(a: Mat):
        verdict = _norton_probe(rep, a, transposes, spun)
        if verdict is not None and verdict[0]:
            return _proved(rep, "nullity-one", a)
        return verdict

    # stage 1: the nonzero generator matrices, then their products in
    # pairs of distinct indices
    gens = [m for m in _generator_mats(rep) if not m.is_zero()]
    seen = set()
    for a in chain(gens, (x @ y for x, y in permutations(gens, 2))):
        if a.is_zero() or a.entries in seen:
            continue
        seen.add(a.entries)
        verdict = probe(a)
        if verdict is not None:
            return verdict

    # stage 2: enveloping algebra dimension
    env = enveloping_basis(rep)
    dim_e = len(env)
    if dim_e == d * d:
        return _proved(rep, "burnside", *env)
    if dim_e == 1:
        return _certify_reducible(rep, Subspace.span(d, [unit_vec(d, 0)]))

    for a in env:
        if a.entries in seen:
            continue
        seen.add(a.entries)
        verdict = probe(a)
        if verdict is not None:
            return verdict

    # stage 3: commutative enveloping algebra via a primitive element
    commutative = all(
        env[i] @ env[j] == env[j] @ env[i]
        for i in range(len(env))
        for j in range(i + 1, len(env))
    )
    candidates = list(env)
    for i in range(len(env)):
        for j in range(i + 1, len(env)):
            candidates.append(env[i] + env[j])
            candidates.append(env[i] - env[j])
    if commutative:
        for x in candidates:
            mp = min_poly(x)
            if mp.degree != dim_e:
                continue
            factors = _factor_over_q(mp)
            if len(factors) == 1 and factors[0][1] == 1:
                # the enveloping algebra is a field
                if d == dim_e:
                    return _proved(rep, "field", x)
                orbit = [b.apply(unit_vec(d, 0)) for b in env]
                return _certify_reducible(rep, Subspace.span(d, orbit))
            # zero divisors: a proper factor has a proper invariant kernel
            fac = factors[0][0]
            if fac == mp:
                raise InternalFault("factorization returned the input", {})
            return _certify_reducible(rep, kernel(matrix_poly(fac, x)))

    # stage 4: factored minimal polynomials manufacture singular elements
    for x in candidates:
        mp = min_poly(x)
        factors = _factor_over_q(mp)
        if len(factors) == 1 and factors[0][1] == 1:
            continue
        for fac, _mult in factors:
            b = matrix_poly(fac, x)
            if b.is_zero() or b.entries in seen:
                continue
            seen.add(b.entries)
            verdict = probe(b)
            if verdict is not None:
                return verdict

    raise SimplicityUndecided(
        f"no certificate found for a module of dimension {d} "
        f"with enveloping algebra of dimension {dim_e}"
    )


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
        flat = [
            [m.entries[r][c] for r in range(d) for c in range(d)]
            for m in cert.mats
        ]
        return rank(Mat(flat, cols=d * d)) == d * d
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
    wcols = Mat.from_cols([list(b) for b in space.basis], rows=d)
    restricted = [
        [x for row in (h @ wcols).entries for x in row] for h in homs
    ]
    identity = [x for row in Mat.identity(k).entries for x in row]
    found = solve(Mat.from_cols(restricted, rows=k * k), identity)
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
    reach from a summand the schedule already certified is simple by an
    invertible intertwiner; only the others run is_simple, so each
    isomorphism type of summand is searched once.  Raises
    DecompositionError when the module is not semisimple and
    SimplicityUndecided when irreducibility of a piece cannot be
    certified.  A reducible piece is split along the invariant subspace
    is_simple found and the complement `invariant_complement` solves for.
    The returned subspaces are verified independent and spanning.
    """
    d = rep.dim
    parts = Decomposition()
    searched: List[Rep] = []
    pending = [Subspace.full(d)]
    while pending:
        piece = pending.pop()
        sub = rep if piece.is_full() else rep_on_subspace(rep, piece)
        if not any(certify_copy(v, sub) is not None for v in searched):
            simple, wit = is_simple(sub)
            if not simple:
                comp = invariant_complement(sub, wit)
                pending += [
                    Subspace.span(d, [piece.vector(v) for v in half.basis])
                    for half in (comp, wit)
                ]
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
