"""Lie algebras over Q given by structure constants.

Brackets are supplied for index pairs i < j only; antisymmetry fills in
the rest and the Jacobi identity is checked on every basis triple at
construction time, so an instance that exists is a Lie algebra.

The structure constants are held once, as a sparse table of integer
rows over one common denominator (as structure-constant tables are in
de Graaf, Lie Algebras: Theory and Algorithms, 2000).  Brackets, the
Jacobi check and the Killing form accumulate in integers and build an
exact Fraction once per nonzero entry of what they return.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

from .errors import InternalFault, JacobiError, NonAbelianRadicalError
from .exactla import (
    _ZERO,
    _fractions,
    _integer_row,
    Echelon,
    Mat,
    Subspace,
    inverse,
    kernel,
    q,
    rank,
    solve,
    unit_vec,
    vadd,
)


class LieAlgebra:
    """Finite-dimensional Lie algebra with exact rational structure constants.

    `_struct[i]` maps each j with [e_i, e_j] != 0 to the integer pairs
    (m, c) with [e_i, e_j] = sum of c e_m / D, one denominator D = `_den`.
    """

    def __init__(self, dim: int, pairs: Dict[Tuple[int, int], Sequence], labels=None):
        if dim < 0:
            raise ValueError("negative dimension")
        if labels is None:
            labels = [f"e{i}" for i in range(dim)]
        labels = [str(x) for x in labels]
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        if len(set(labels)) != dim:
            raise ValueError("duplicate basis labels")
        values = {}
        for (i, j), v in pairs.items():
            if not (0 <= i < j < dim):
                raise ValueError("bracket pairs must have 0 <= i < j < dim")
            vv = tuple(q(x) for x in v)
            if len(vv) != dim:
                raise ValueError("bracket value has wrong length")
            values[(i, j)] = vv
        # the integer view of the matrix whose rows are the brackets
        den, rows = Mat(list(values.values()), cols=dim)._integer_rows()
        struct = [{} for _ in range(dim)]
        for (i, j), row in zip(values, rows):
            if row:
                struct[i][j] = row
                struct[j][i] = tuple((m, -c) for m, c in row)
        self.dim = dim
        self.labels = labels
        self._den = den
        self._struct = struct
        self._killing: Optional[Mat] = None
        self._derived: Optional[Subspace] = None
        self._radical: Optional[Subspace] = None
        self._generators: Optional[tuple] = None
        self._validate_jacobi()

    # -- construction-time validation -----------------------------------
    def _validate_jacobi(self):
        bad = self.jacobi_defect()
        if bad is not None:
            raise JacobiError(*bad)

    def jacobi_defect(self):
        """Recompute every cyclic bracket sum from the structure constants.

        Returns None when all sums vanish exactly, otherwise the first
        violating (i, j, k) with its defect vector.  Construction rejects
        violators, so on a live instance this is a re-verification.  The
        sums are taken in integers over D^2.
        """
        n = self.dim
        struct = self._struct
        for i in range(n):
            si = struct[i]
            for j in range(i + 1, n):
                sj = struct[j]
                for k in range(j + 1, n):
                    sk = struct[k]
                    defect = None
                    # [e_a, [e_b, e_c]] over the three cyclic orders
                    for sa, bc in ((si, sj.get(k)), (sj, sk.get(i)), (sk, si.get(j))):
                        if bc is None:
                            continue
                        if defect is None:
                            defect = [0] * n
                        for m, c in bc:
                            am = sa.get(m)
                            if am is not None:
                                for r, e in am:
                                    defect[r] += c * e
                    if defect is not None and any(defect):
                        return (i, j, k), _fractions(defect, self._den ** 2)
        return None

    # -- bracket ---------------------------------------------------------
    def structure_constant(self, i: int, j: int) -> tuple:
        out = [0] * self.dim
        for m, c in self._struct[i].get(j, ()):
            out[m] = c
        return _fractions(out, self._den)

    def bracket(self, x, y) -> tuple:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match dimension")
        dx, xs = _integer_row(x)
        dy, ys = _integer_row(y)
        return _fractions(self._integer_bracket(xs, ys), dx * dy * self._den)

    def _integer_bracket(self, xs, ys) -> list:
        """D [x, y] for integer vectors x, y, as a list of ints."""
        out = [0] * self.dim
        for a, si in zip(xs, self._struct):
            if a:
                for j, row in si.items():
                    b = ys[j]
                    if b:
                        f = a * b
                        for m, c in row:
                            out[m] += f * c
        return out

    def generators(self) -> tuple:
        """Basis indices whose elements generate the algebra under brackets.

        Chosen greedily: e_i joins when it lies outside the subalgebra
        generated by the indices chosen before it (d - 1 rotations for the
        catalog's so(d)).  A map or subspace compatible with rho(x) and
        rho(y) is compatible with rho([x, y]), so module questions can be
        asked of these elements only.  The subalgebra grows in one integer
        echelon; each new row is bracketed with every row stored by then,
        so every pair of rows is bracketed.
        """
        if self._generators is None:
            n = self.dim
            closure = Echelon(n)
            chosen = []
            for i in range(n):
                row = closure.add(unit_vec(n, i))
                if row is None:
                    continue
                chosen.append(i)
                queue = [row]
                while queue and len(closure.rows) < n:
                    u = queue.pop()
                    for w in list(closure.rows):
                        v = closure._reduce(self._integer_bracket(u, w))
                        if any(v):
                            queue.append(closure._store(v))
            self._generators = tuple(chosen)
        return self._generators

    # -- derived objects ---------------------------------------------------
    def killing_form(self) -> Mat:
        """Gram matrix of (x, y) -> trace(ad x ad y) in the defining basis,
        summed in integers over D^2."""
        if self._killing is None:
            n = self.dim
            # ad[i][m][k]: the coefficient of e_k in [e_i, e_m], times D
            ad = [{m: dict(row) for m, row in si.items()} for si in self._struct]
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    s = 0
                    for k, row in self._struct[j].items():
                        for m, a in row:
                            im = ad[i].get(m)
                            if im is not None:
                                s += a * im.get(k, 0)
                    rows[i][j] = s
                    rows[j][i] = s
            den = self._den ** 2
            self._killing = Mat([_fractions(r, den) for r in rows], cols=n)
        return self._killing

    def derived_subalgebra(self) -> Subspace:
        if self._derived is None:
            vectors = [self.structure_constant(i, j)
                       for i in range(self.dim) for j in self._struct[i] if j > i]
            self._derived = Subspace.span(self.dim, vectors)
        return self._derived

    def bracket_span(self, a: Subspace, b: Subspace) -> Subspace:
        """[a, b], bracketing the integer echelon rows of a and b in
        integers and reducing each result into one `Echelon`."""
        span = Echelon(self.dim)
        xs, ys = a.echelon().rows, b.echelon().rows
        # [u, v] = -[v, u] and [u, u] = 0, so [a, a] needs each unordered pair once
        same = a == b
        for i, u in enumerate(xs):
            for v in ys[i + 1:] if same else ys:
                span.add_integer(self._integer_bracket(u, v))
        return span.subspace()

    def centralizer(self, of: Subspace, within: Optional[Subspace] = None) -> Subspace:
        """{x in `within` : [x, v] = 0 for all v in `of`}."""
        if within is None:
            within = Subspace.full(self.dim)
        gens = within.basis
        if not gens:
            return Subspace.zero(self.dim)
        if of.is_zero():
            return within
        rows = []
        columns = [[self.bracket(g, v) for g in gens] for v in of.basis]
        for block in columns:
            for m in range(self.dim):
                rows.append([block[a][m] for a in range(len(gens))])
        combos = kernel(Mat(rows, cols=len(gens)))
        return Subspace.span(self.dim, [within.vector(c) for c in combos.basis])

    # -- predicates on subspaces -----------------------------------------
    def is_subalgebra(self, space: Subspace) -> bool:
        return space.contains_space(self.bracket_span(space, space))

    def is_ideal(self, space: Subspace) -> bool:
        return space.contains_space(
            self.bracket_span(Subspace.full(self.dim), space)
        )

    def is_abelian_space(self, space: Subspace) -> bool:
        return self.bracket_span(space, space).is_zero()

    def is_solvable_space(self, space: Subspace) -> bool:
        """Derived series of a subalgebra terminates at zero."""
        if not self.is_subalgebra(space):
            raise ValueError("solvability asked of a non-subalgebra")
        s = space
        while not s.is_zero():
            d = self.bracket_span(s, s)
            if d.dim == s.dim:
                return False
            s = d
        return True

    def solvable_radical(self) -> Subspace:
        """Largest solvable ideal, certified before being returned.

        In characteristic zero this is the Killing-orthogonal complement
        of the derived subalgebra; the ideal and solvability properties
        are nevertheless re-checked on the computed space.
        """
        if self._radical is None:
            derived = self.derived_subalgebra()
            if derived.is_zero():
                rad = Subspace.full(self.dim)
            else:
                killing = self.killing_form()
                rows = [killing.apply(d) for d in derived.basis]
                rad = kernel(Mat(rows, cols=self.dim))
            # kept, printed in the report (radical-abelian gives its dimension)
            if not self.is_ideal(rad):
                raise InternalFault(
                    "computed radical is not an ideal",
                    {"radical_basis": rad.basis},
                )
            # kept, printed in the report (radical-abelian calls it solvable)
            if not self.is_solvable_space(rad):
                raise InternalFault(
                    "computed radical is not solvable",
                    {"radical_basis": rad.basis},
                )
            self._radical = rad
        return self._radical

    # -- maps ---------------------------------------------------------------
    def is_automorphism(self, t: Mat) -> bool:
        """t is invertible and t[x, y] = [tx, ty] for all x, y.

        The bracket condition is tested for x among `generators()` and
        every basis y only.  That suffices: the x with t[x, y] = [tx, ty]
        for all y form a subalgebra, since for two of them, x1 and x2,
        the Jacobi identity gives t[[x1, x2], y] = t[x1, [x2, y]] -
        t[x2, [x1, y]] = [tx1, [tx2, ty]] - [tx2, [tx1, ty]] =
        [[tx1, tx2], ty].  No invertibility is used there; the rank test
        is separate.  With t = T / den for an integer matrix T, each test
        compares D [T e_i, T e_j] with den T (D [e_i, e_j]) in integers.
        """
        n = self.dim
        if t.rows != n or t.cols != n:
            return False
        if rank(t) != n:
            return False
        den, trows = t._integer_rows()
        img = [[0] * n for _ in range(n)]
        for r, row in enumerate(trows):
            for c, x in row:
                img[c][r] = x
        for i in self.generators():
            si = self._struct[i]
            for j in range(n):
                if j == i:
                    continue
                rhs = [0] * n
                for m, c in si.get(j, ()):
                    f = den * c
                    for r, x in enumerate(img[m]):
                        if x:
                            rhs[r] += f * x
                if self._integer_bracket(img[i], img[j]) != rhs:
                    return False
        return True

    def is_involution(self, t: Mat) -> bool:
        return t.is_square() and t.rows == self.dim and (t @ t).is_identity()

    # -- subalgebras -----------------------------------------------------------
    def restrict(self, space: Subspace) -> "LieAlgebra":
        """Subalgebra on the echelon basis of `space`; ValueError when a
        bracket of two basis vectors leaves `space`."""
        k = space.dim
        pairs = {}
        for a in range(k):
            for b in range(a + 1, k):
                coords = space.coordinates_of(
                    self.bracket(space.basis[a], space.basis[b])
                )
                if coords is None:
                    raise ValueError("restriction to a non-subalgebra")
                if any(coords):
                    pairs[(a, b)] = coords
        return LieAlgebra(k, pairs)

    # -- Levi complement --------------------------------------------------
    def levi_complement(
        self,
        sigma: Optional[Mat] = None,
        contain: Optional[Subspace] = None,
    ) -> Optional[Subspace]:
        """A subalgebra complementing the solvable radical.

        Requires the radical to be abelian (NonAbelianRadicalError
        otherwise).  The result is stable under `sigma`, an involutive
        automorphism (default the identity), and contains `contain`, a
        subalgebra meeting the radical trivially (default zero).  Starting
        from any complement of the radical, the correction making it a
        subalgebra is a linear system in a map from the complement into
        the radical; with the radical abelian the system is exactly the
        closure condition.  Returns None when the constrained system is
        unsolvable; the unconstrained system always has a solution, so an
        unconstrained call never returns None.
        """
        n = self.dim
        rad = self.solvable_radical()
        if not self.is_abelian_space(rad):
            raise NonAbelianRadicalError(
                "complement search implemented for abelian radicals only"
            )
        unconstrained = sigma is None and contain is None
        if contain is None:
            contain = Subspace.zero(n)
        elif not self.is_subalgebra(contain):
            raise ValueError("contain is not a subalgebra")
        if not contain.intersect(rad).is_zero():
            return None
        ident = Mat.identity(n)
        if sigma is None:
            sigma = ident
        elif not self.is_involution(sigma) or not self.is_automorphism(sigma):
            raise ValueError("sigma is not an involutive automorphism")
        if rad.is_full():
            return Subspace.zero(n) if contain.is_zero() else None

        # complement basis with eigenvalue tags and pinned flags
        gplus = kernel(sigma - ident)
        gminus = kernel(sigma + ident)
        radp = rad.intersect(gplus)
        radm = rad.intersect(gminus)
        if radp.dim + radm.dim != rad.dim:
            raise InternalFault(
                "radical not split by an involutive automorphism",
                {"rad_dim": rad.dim, "plus": radp.dim, "minus": radm.dim},
            )
        cp = contain.intersect(gplus)
        cm = contain.intersect(gminus)
        if cp.dim + cm.dim != contain.dim:
            raise ValueError("contain is not spanned by sigma eigenvectors")
        wdata = []
        for part, radpart, eps in ((cp, radp, 1), (cm, radm, -1)):
            for c in part.basis:
                wdata.append((c, eps, True))
            cur = Echelon(n, part.basis + radpart.basis)
            side = gplus if eps == 1 else gminus
            for v in side.basis:
                if cur.add(v) is not None:
                    wdata.append((v, eps, False))

        k = len(wdata)
        d = rad.dim
        if k != n - d:
            raise InternalFault(
                "complement construction produced the wrong dimension",
                {"expected": n - d, "got": k},
            )
        wvecs = [w for (w, _, _) in wdata]

        # coordinates relative to (complement | radical)
        m = Mat.from_cols(
            [list(w) for w in wvecs] + [list(b) for b in rad.basis],
            rows=n,
        )
        minv = inverse(m)
        struct = {}
        for a in range(k):
            for b in range(a + 1, k):
                coords = minv.apply(self.bracket(wvecs[a], wvecs[b]))
                struct[(a, b)] = (coords[:k], coords[k:])

        # action of each complement vector on the radical, rad coordinates
        pmats = [rad.matrix_of(functools.partial(self.bracket, w)) for w in wvecs]
        if None in pmats:
            raise InternalFault(
                "radical escaped under bracket with complement",
                {"index": pmats.index(None)},
            )

        free = [a for a, (_, _, pin) in enumerate(wdata) if not pin]
        offset = {a: idx * d for idx, a in enumerate(free)}
        width = len(free) * d

        rows = []
        rhs = []
        for (a, b), (cvec, rvec) in struct.items():
            for t in range(d):
                row = [_ZERO] * width
                if b in offset:
                    ob = offset[b]
                    for s in range(d):
                        val = pmats[a][t, s]
                        if val:
                            row[ob + s] += val
                if a in offset:
                    oa = offset[a]
                    for s in range(d):
                        val = pmats[b][t, s]
                        if val:
                            row[oa + s] -= val
                for e in range(k):
                    ce = cvec[e]
                    if ce and e in offset:
                        row[offset[e] + t] -= ce
                if any(row) or rvec[t]:
                    rows.append(row)
                    rhs.append(-rvec[t])
        if free:
            smat = rad.matrix_of(sigma.apply)
            if smat is None:
                raise InternalFault("radical not stable under sigma")
            for a in free:
                eps = wdata[a][1]
                oa = offset[a]
                for t in range(d):
                    row = [_ZERO] * width
                    for s in range(d):
                        val = smat[t, s]
                        if val:
                            row[oa + s] += val
                    row[oa + t] -= eps
                    if any(row):
                        rows.append(row)
                        rhs.append(_ZERO)

        if width:
            res = solve(Mat(rows, cols=width) if rows else Mat([], cols=width), rhs)
            if res is None:
                if unconstrained:
                    raise InternalFault(
                        "unconstrained complement correction has no solution"
                    )
                return None
            x = res.particular
        else:
            if any(any(r) for (_, r) in struct.values()) or any(rhs):
                return None
            x = ()

        lvecs = [
            vadd(w, rad.vector(x[offset[a]:offset[a] + d])) if a in offset else w
            for a, (w, _, _) in enumerate(wdata)
        ]
        levi = Subspace.span(n, lvecs)

        cert = {"levi_basis": levi.basis}
        if levi.dim != k:
            raise InternalFault("complement corrections are dependent", cert)
        if not levi.intersect(rad).is_zero():
            raise InternalFault("complement meets the radical", cert)
        if not levi.sum_with(rad).is_full():
            raise InternalFault("complement plus radical is not everything", cert)
        if not self.is_subalgebra(levi):
            raise InternalFault("corrected complement is not closed", cert)
        if not all(levi.contains(sigma.apply(b)) for b in levi.basis):
            raise InternalFault("complement is not sigma-stable", cert)
        if not levi.contains_space(contain):
            raise InternalFault("complement lost the required subalgebra", cert)
        return levi

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim})"
