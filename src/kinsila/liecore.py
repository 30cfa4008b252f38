"""Lie algebras over Q given by structure constants.

Brackets are supplied for index pairs i < j only; antisymmetry fills in
the rest and the Jacobi identity is checked on every basis triple at
construction time, so an instance that exists is a Lie algebra.

The structure constants are held once, as a sparse table of integer
rows over one common denominator (as structure-constant tables are in
de Graaf, Lie Algebras: Theory and Algorithms, 2000).  Every product
inside the package is `_integer_bracket`, which brackets integer
vectors such as a `Subspace`'s echelon rows, or a read of the table
itself (see `kinematics`); `bracket` is the Fraction boundary over it,
for callers outside, and builds an exact Fraction once per nonzero entry
of what it returns.  ad x, the Killing form, radicals and Levi
complements are built from that table and from integer rows without any
Fraction.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional, Sequence, Tuple

from .errors import InternalFault, JacobiError, NonAbelianRadicalError
from .exactla import (
    _ZERO,
    _dense,
    _exact,
    _fractions,
    _integer_echelon,
    _integer_kernel,
    _integer_mat,
    _integer_row,
    _solve,
    _sparse,
    Echelon,
    Mat,
    Subspace,
    inverse,
    rank,
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
            v = _exact(tuple(v))
            if len(v) != dim:
                raise ValueError("bracket value has wrong length")
            # the nonzero entries; the shared _ZERO is skipped by identity
            values[(i, j)] = [(m, x) for m, x in enumerate(v) if x is not _ZERO and x]
        # the rows as integers over the lcm of every denominator
        den = math.lcm(*[x.denominator for row in values.values() for _, x in row])
        self._integer_table(labels, den, {
            ij: tuple([(m, x.numerator * (den // x.denominator)) for m, x in row])
            for ij, row in values.items()
        })

    @classmethod
    def _from_integers(cls, labels: list, den: int, pairs: Dict[Tuple[int, int], tuple]
                       ) -> "LieAlgebra":
        """The algebra with [e_i, e_j] = sum of c e_m / den over the sparse
        integer pairs (m, c) of pairs[(i, j)], i < j, in column order, for
        a builder that holds its constants as integers (`catalog.make`);
        the Jacobi identity is checked as in the constructor."""
        alg = cls.__new__(cls)
        alg._integer_table(labels, den, pairs)
        return alg

    def _integer_table(self, labels: list, den: int, pairs: Dict[Tuple[int, int], tuple]):
        """Fill the table antisymmetrically from the rows at i < j over den,
        reduced to the least common denominator, and check Jacobi."""
        g = math.gcd(den, *[c for row in pairs.values() for _, c in row])
        struct = [{} for _ in labels]
        for (i, j), row in pairs.items():
            if row:
                if g != 1:
                    row = tuple([(m, c // g) for m, c in row])
                struct[i][j] = row
                struct[j][i] = tuple([(m, -c) for m, c in row])
        self._table(labels, den // g, struct)
        bad = self.jacobi_defect()
        if bad is not None:
            raise JacobiError(*bad)

    @classmethod
    def _from_block(cls, den: int, struct: list) -> "LieAlgebra":
        """The subalgebra whose table is `struct` over `den`, a block of a
        checked table closed under the bracket: its Jacobi identity is the
        table's own, and is not checked again."""
        alg = cls.__new__(cls)
        alg._table([f"e{i}" for i in range(len(struct))], den, struct)
        return alg

    def _table(self, labels: list, den: int, struct: list):
        self.dim = len(struct)
        self.labels = labels
        self._den = den
        self._struct = struct
        self._killing: Optional[Mat] = None
        self._semisimple: Optional[bool] = None
        self._radical: Optional[Subspace] = None
        self._radical_abelian: Optional[bool] = None
        self._generators: Optional[tuple] = None

    # -- construction-time validation -----------------------------------
    def jacobi_defect(self):
        """Recompute every cyclic bracket sum from the structure constants.

        Returns None when all sums vanish exactly, otherwise the first
        violating (i, j, k), i < j < k in lexicographic order, with its
        defect vector.  Construction rejects violators, so on a live
        instance this is a re-verification.  The sums are taken in
        integers over D^2.

        The triples are grouped by their smallest index i, and each
        nonzero product is visited once: [e_i, [e_j, e_k]] through the
        nonzero columns of ad e_i and the pairs (j, k) indexed by the
        support of [e_j, e_k], and the other two orders as [e_a, [e_i,
        e_b]] for each nonzero [e_i, e_b].  A defect entry is a sum of at
        most 3n products of two constants, so each bracket [e_a, e_m] is
        packed into one integer with its entry r at bits r w, w wide
        enough for any such sum with its sign; adding a multiple of a
        bracket is then one integer operation, and a packed sum is zero
        exactly when every entry is.  The sums of one i sit in one list
        at j n + k, which every i leaves zero unless it reports.
        """
        n = self.dim
        struct = self._struct
        big = max((abs(c) for s in struct for row in s.values() for _, c in row), default=0)
        w = (6 * n * big * big).bit_length()
        # packed[a][m] is [e_a, e_m]; pairs[m] holds (j n + k, c) for each
        # [e_j, e_k] = c e_m + ..., j < k, in descending order
        packed = [{} for _ in range(n)]
        pairs = [[] for _ in range(n)]
        for j in range(n - 1, -1, -1):
            sj = struct[j]
            for k in sorted(sj, reverse=True):
                if k > j:
                    x = 0
                    for m, c in sj[k]:
                        pairs[m].append((j * n + k, c))
                        x += c << (m * w)
                    packed[j][k] = x
                    packed[k][j] = -x
        # rows[m] is packed[m]'s (a, [e_m, e_a]) in descending a
        rows = [sorted(p.items(), reverse=True) for p in packed]
        acc = [0] * (n * n)
        for i in range(n):
            low = (i + 1) * n
            # [e_i, [e_j, e_k]] = sum of c [e_i, e_m]
            for m, x in packed[i].items():
                for key, c in pairs[m]:
                    if key < low:
                        break
                    acc[key] += c * x
            # [e_a, [e_i, e_b]] = -sum of c [e_m, e_a]: the term of (i, a, b)
            # with sign -1 when a < b, and of (i, b, a) when b < a
            for b, row in struct[i].items():
                if b > i:
                    for m, c in row:
                        for a, x in rows[m]:
                            if a <= i:
                                break
                            if a < b:
                                acc[a * n + b] += c * x
                            elif a > b:
                                acc[b * n + a] -= c * x
            if any(acc[low:]):
                key = next(key for key in range(low, n * n) if acc[key])
                x, defect = acc[key], []
                half = 1 << (w - 1)
                for _ in range(n):
                    e = ((x + half) & ((1 << w) - 1)) - half
                    defect.append(e)
                    x = (x - e) >> w
                return (i, *divmod(key, n)), _fractions(defect, self._den ** 2)
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

    def _integer_ad(self, xs, dx: int) -> Mat:
        """The matrix of ad x = [x, -] in the defining basis for x = xs /
        dx, xs an integer vector, built in integers from the structure
        constants."""
        n = self.dim
        # column j is D [x, e_j]
        acc = [[0] * n for _ in range(n)]
        for a, si in zip(xs, self._struct):
            if a:
                for j, row in si.items():
                    for m, c in row:
                        acc[m][j] += a * c
        return _integer_mat(n, dx * self._den, tuple(map(_sparse, acc)))

    def generators(self) -> tuple:
        """Basis indices whose elements generate the algebra under brackets.

        Chosen greedily by `_greedy_generators` (d - 1 rotations for the
        catalog's so(d)).  A map or subspace compatible with rho(x) and
        rho(y) is compatible with rho([x, y]), so module questions can be
        asked of these elements only.
        """
        if self._generators is None:
            n = self.dim
            units = [[int(j == i) for j in range(n)] for i in range(n)]
            self._generators = self._greedy_generators(units)[0]
        return self._generators

    def _greedy_generators(self, rows) -> tuple:
        """(indices, dim): the positions of the integer rows, in order,
        that lie outside the subalgebra generated by the rows before
        them, and the dimension of the subalgebra all the rows generate.

        The subalgebra grows in one integer echelon; each new row is
        bracketed with every row stored by then, so every pair of rows is
        bracketed.
        """
        n = self.dim
        closure = Echelon(n)
        chosen = []
        for i, r in enumerate(rows):
            row = closure.add_integer(list(r))
            if row is None:
                continue
            chosen.append(i)
            queue = [row]
            while queue and len(closure.rows) < n:
                u = queue.pop()
                for w in list(closure.rows):
                    v = closure.add_integer(self._integer_bracket(u, w))
                    if v is not None:
                        queue.append(v)
        return tuple(chosen), len(closure.rows)

    # -- derived objects ---------------------------------------------------
    def killing_form(self) -> Mat:
        """Gram matrix of (x, y) -> trace(ad x ad y) in the defining basis,
        summed in integers over D^2 from the transposed table: for u_mk
        the vector whose i-th entry is the coefficient of e_k in [e_i,
        e_m], K = sum over the pairs (m, k) of u_mk u_km^T."""
        if self._killing is None:
            n = self.dim
            u: Dict[Tuple[int, int], list] = {}
            for i, si in enumerate(self._struct):
                for m, row in si.items():
                    for k, c in row:
                        u.setdefault((m, k), []).append((i, c))
            rows = [[0] * n for _ in range(n)]
            for (m, k), col in u.items():
                other = u.get((k, m))
                if other is not None:
                    for i, a in col:
                        r = rows[i]
                        for j, b in other:
                            r[j] += a * b
            self._killing = _integer_mat(n, self._den ** 2, tuple(map(_sparse, rows)))
        return self._killing

    def is_semisimple(self) -> bool:
        """The algebra is nonzero with a nondegenerate Killing form: Cartan's
        criterion for semisimplicity, the hypothesis of Weyl's theorem.
        Decided once and kept, as the Killing form is."""
        if self._semisimple is None:
            self._semisimple = 0 < self.dim == rank(self.killing_form())
        return self._semisimple

    def _derived_parts(self, sign: Sequence[int]) -> Dict[int, Tuple[list, Echelon]]:
        """For each eigenvalue eps of the diagonal map with entries sign[i]
        = +-1, a grading of the bracket: the sorted indices where sign is
        eps, and [g, g]'s part there as an `Echelon` in their coordinates.
        The bracket of two basis vectors lies in the eigenspace of the
        product of their signs, so [g, g] is the sum of the parts; each
        echelon takes no row once it is full."""
        blocks = {}
        for eps in (1, -1):
            idx = [i for i, e in enumerate(sign) if e == eps]
            blocks[eps] = (idx, {i: k for k, i in enumerate(idx)}, Echelon(len(idx)))
        for i, si in enumerate(self._struct):
            for j, row in si.items():
                if j > i:
                    _, pos, ech = blocks[sign[i] * sign[j]]
                    if len(ech.rows) < ech.width:
                        ech.add_integer(_dense([(pos[m], c) for m, c in row], ech.width))
        return {eps: (idx, ech) for eps, (idx, _, ech) in blocks.items()}

    def bracket_span(self, a: Subspace, b: Subspace) -> Subspace:
        """[a, b]: the echelon rows of a and b bracketed in integers into
        one `Echelon`, until it holds all of g."""
        span = Echelon(self.dim)
        xs, ys = a.echelon().rows, b.echelon().rows
        # [u, v] = -[v, u] and [u, u] = 0, so [a, a] needs each unordered pair once
        same = a == b
        for i, u in enumerate(xs):
            for v in ys[i + 1:] if same else ys:
                if len(span.rows) == self.dim:
                    return span.subspace()
                span.add_integer(self._integer_bracket(u, v))
        return span.subspace()

    # -- predicates on subspaces -----------------------------------------
    def is_subalgebra(self, space: Subspace) -> bool:
        return space.contains_space(self.bracket_span(space, space))

    def is_ideal(self, space: Subspace, generators: Optional[Sequence[Sequence[int]]] = None
                 ) -> bool:
        """[x, space] lies in space for every x of `generators`, integer
        rows that generate g under brackets (default the basis), so for
        every x in g: by the Jacobi identity the x that satisfy it form a
        subalgebra.  Each bracket is reduced against space's rows."""
        if generators is None:
            generators = Subspace.full(self.dim).rows
        ech = space.echelon()
        return not any(any(ech._reduce(self._integer_bracket(x, r)))
                       for x in generators for r in space.rows)

    def is_abelian_space(self, space: Subspace) -> bool:
        """[space, space] = 0, read for the kept solvable radical off the
        first derived space that certified it."""
        if space is self._radical:
            return self._radical_abelian
        return self.bracket_span(space, space).is_zero()

    def is_solvable_space(self, space: Subspace, derived: Optional[Subspace] = None) -> bool:
        """Derived series of a subalgebra terminates at zero.

        [space, space] is bracketed once, or given as `derived`: it is the
        subalgebra test and the first derived step.
        """
        if derived is None:
            derived = self.bracket_span(space, space)
        if not space.contains_space(derived):
            raise ValueError("solvability asked of a non-subalgebra")
        s = space
        # derived lies in s, so equal dimensions mean s is perfect and nonzero
        while derived.dim < s.dim:
            if derived.is_zero():
                return True
            s, derived = derived, self.bracket_span(derived, derived)
        return s.is_zero()

    def solvable_radical(
        self,
        sign: Optional[Sequence[int]] = None,
        generators: Optional[Sequence[Sequence[int]]] = None,
    ) -> Subspace:
        """Largest solvable ideal, certified before being returned, and kept.

        In characteristic zero this is the Killing-orthogonal complement
        of the derived subalgebra.  `sign` holds the entries +-1 of a
        diagonal automorphism sigma (default the identity; ValueError
        when the map does not preserve the bracket), which grades both:
        K(x, y) = K(sigma x, sigma y) vanishes between the two
        eigenspaces, and [g, g] is the sum of its parts in them
        (`_derived_parts`).  So the radical's part in each eigenspace is
        the kernel of K's block there against [g, g]'s part, computed in
        that eigenspace's coordinates, and the radical is their direct
        sum, with no elimination across the two.  The ideal and
        solvability properties are nevertheless re-checked on the
        computed space; the ideal test brackets it with `generators`,
        integer rows generating g (`is_ideal`).  The solvability test's
        first step, [rad, rad], also tells whether the radical is abelian,
        which `is_abelian_space` then reads without bracketing again.
        """
        n = self.dim
        if sign is None:
            sign = [1] * n
        elif len(sign) != n or not set(sign) <= {1, -1} or not self._graded(sign):
            raise ValueError("sign is not a +-1 grading of the bracket")
        if self._radical is None:
            killing = self.killing_form()._integer[1]
            rad = Subspace.zero(n)
            for idx, derived in self._derived_parts(sign).values():
                pos = {i: k for k, i in enumerate(idx)}
                # K's rows on this block; K vanishes off the blocks
                block = [[(pos[j], x) for j, x in killing[i]] for i in idx]
                if len(derived.rows) < derived.width:
                    # K d for each row d of the part, K being symmetric
                    block = [_sparse([sum(x * d[j] for j, x in row) for row in block])
                             for d in derived.rows]
                part = _integer_kernel(len(idx), block)
                rad = rad.direct_sum(Subspace.coordinate(n, idx).embed(part))
            # kept, printed in the report (radical-abelian gives its dimension)
            if not self.is_ideal(rad, generators):
                raise InternalFault(
                    "computed radical is not an ideal",
                    {"radical_basis": rad.basis},
                )
            # kept, printed in the report (radical-abelian calls it solvable)
            derived = self.bracket_span(rad, rad)
            if not self.is_solvable_space(rad, derived):
                raise InternalFault(
                    "computed radical is not solvable",
                    {"radical_basis": rad.basis},
                )
            self._radical = rad
            self._radical_abelian = derived.is_zero()
        return self._radical

    # -- maps ---------------------------------------------------------------
    def is_automorphism(self, t: Mat) -> bool:
        """t is invertible and t[x, y] = [tx, ty] for all x, y.

        The bracket condition is tested on every basis pair i < j;
        antisymmetry gives the others.  With t = T / den for an integer
        matrix T, each test compares D [T e_i, T e_j] with den T (D [e_i,
        e_j]) in integers.
        """
        n = self.dim
        if t.rows != n or t.cols != n:
            return False
        if rank(t) != n:
            return False
        den, trows = t._integer
        img = [[0] * n for _ in range(n)]
        for r, row in enumerate(trows):
            for c, x in row:
                img[c][r] = x
        for i in range(n):
            si = self._struct[i]
            for j in range(i + 1, n):
                rhs = [0] * n
                for m, c in si.get(j, ()):
                    f = den * c
                    for r, x in enumerate(img[m]):
                        if x:
                            rhs[r] += f * x
                if self._integer_bracket(img[i], img[j]) != rhs:
                    return False
        return True

    def _graded(self, sign: Sequence[int]) -> bool:
        """Whether the diagonal map with entries sign[i] = +-1 preserves the
        bracket: every [e_i, e_j] has its support where sign is sign[i] sign[j]."""
        return all(
            sign[m] == sign[i] * sign[j]
            for i, si in enumerate(self._struct) for j, row in si.items() if j > i
            for m, _ in row
        )

    # -- Levi complement --------------------------------------------------
    def levi_complement(
        self,
        sigma: Optional[Mat] = None,
        contain: Optional[Subspace] = None,
    ) -> Optional[Subspace]:
        """A subalgebra complementing the solvable radical (de Graaf, Lie
        Algebras: Theory and Algorithms, 2000, section 4.13).

        Requires the radical to be abelian (NonAbelianRadicalError
        otherwise).  The result is stable under `sigma`, the diagonal map
        with entries +-1 of a grading of the bracket (default the identity;
        ValueError for any other map), and contains `contain`, a
        subalgebra meeting the radical trivially (default zero); None when
        there is none, which an unconstrained call never returns.  The
        complement W is made of sigma eigenvectors: `contain`'s rows,
        pinned, and coordinate vectors, free, each corrected by the
        radical's part of its own sign.  With the radical abelian, the
        corrections that make W a subalgebra solve one linear system, with
        a block of rows for every pair of W's basis.
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
        if not self.is_subalgebra(contain):
            raise ValueError("contain is not a subalgebra")
        # the two spaces meet in zero exactly when their dimensions add
        if contain.sum_with(rad).dim != contain.dim + rad.dim:
            return None
        sign = [1] * n if sigma is None else [
            dict(row).get(i) for i, row in enumerate(sigma._integer[1])]
        diagonal = _integer_mat(n, 1, tuple(((i, e),) for i, e in enumerate(sign)))
        if (len(sign) != n or not set(sign) <= {1, -1} or sigma not in (None, diagonal)
                or not self._graded(sign)):
            raise ValueError("sigma is not a +-1 diagonal automorphism")
        if rad.is_full():
            return Subspace.zero(n) if contain.is_zero() else None

        rad_parts = _sign_parts(rad, sign)
        if rad_parts is None:
            raise InternalFault("radical not split by an involutive automorphism",
                                {"rad_dim": rad.dim})
        contain_parts = _sign_parts(contain, sign)
        if contain_parts is None:
            raise ValueError("contain is not spanned by sigma eigenvectors")
        # W as integer rows, each sign's pinned vectors before its free ones;
        # unknown (a, r) is the coefficient of b_r = R_r / h_r in the
        # correction of free vector a, R_r a radical row of a's sign
        wvecs, unknowns = [], []
        for eps in (1, -1):
            part = contain_parts[eps]
            wvecs += part.rows
            cur = part.echelon()
            for r in rad_parts[eps].rows:
                cur.add_integer(list(r))
            own = [r for r, p in enumerate(rad.pivots) if sign[p] == eps]
            for v in Subspace.coordinate(n, [i for i in range(n) if sign[i] == eps]).rows:
                if cur.add_integer(list(v)) is not None:
                    unknowns += [(len(wvecs), r) for r in own]
                    wvecs.append(v)
        column = {u: j for j, u in enumerate(unknowns)}
        k, d = len(wvecs), rad.dim
        heads = [row[p] for row, p in zip(rad.rows, rad.pivots)]

        # c / (den D) = M^-1 [u, v], the coordinates in the columns (W | R);
        # the radical part is rescaled to the basis b of the unknowns
        minv = inverse(_integer_mat(n, 1, tuple(map(_sparse, zip(*wvecs, *rad.rows)))))
        cden = minv._integer[0] * self._den
        # ad of each vector of W on the radical, in the basis b
        pmats = [rad.matrix_of(self._integer_ad(w, 1))._integer for w in wvecs]

        # the augmented rows [T | w] of the system, each block over its own
        # denominator: P_u x_v - P_v x_u - sum_e c_e x_e = -r for
        # [u, v] = sum_e c_e w_e + r, a pinned vector's x being zero
        rows = []
        for a, b in itertools.combinations(range(k), 2):
            c = minv._integer_apply(self._integer_bracket(wvecs[a], wvecs[b]))
            (da, arows), (db, brows) = pmats[a], pmats[b]
            lcm = math.lcm(da, db, cden)
            fa, fb, fc = lcm // da, lcm // db, lcm // cden
            for t in range(d):
                row = [0] * (len(column) + 1)
                for u, x in ([((b, r), fa * x) for r, x in arows[t]]
                             + [((a, r), -fb * x) for r, x in brows[t]]
                             + [((e, t), -fc * x) for e, x in enumerate(c[:k]) if x]):
                    if u in column:
                        row[column[u]] += x
                row[-1] = -fc * c[k + t] * heads[t]
                rows.append(_sparse(row))

        res = _solve(len(column), rows)
        if res is None:
            if unconstrained:
                raise InternalFault("unconstrained complement correction has no solution")
            return None
        # D L (w + sum_r x_r b_r) for each vector w of W, with x = X / D and
        # L b_r the integer rows of the radical's basis
        xden, xs = _integer_row(res.particular)
        bden, basis = rad.basis_mat()._integer
        corrected = [[xden * bden * y for y in w] for w in wvecs]
        for (a, r), x in zip(unknowns, xs):
            for j, z in basis[r]:
                corrected[a][j] += x * z
        levi = _integer_echelon(n, map(_sparse, corrected)).subspace()

        def fault(message):
            raise InternalFault(message, {"levi_basis": levi.basis})

        if levi.dim != k:
            fault("complement corrections are dependent")
        # k + d = n, so the two span g exactly when they meet in zero
        if not levi.sum_with(rad).is_full():
            fault("complement meets the radical")
        if not self.is_subalgebra(levi):
            fault("corrected complement is not closed")
        if _sign_parts(levi, sign) is None:
            fault("complement is not sigma-stable")
        if not levi.contains_space(contain):
            fault("complement lost the required subalgebra")
        return levi

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim})"


def _sign_parts(space: Subspace, sign: Sequence[int]) -> Optional[Dict[int, Subspace]]:
    """The parts of `space` in the eigenspaces of the diagonal map with
    entries sign[i] = +-1, keyed by sign, or None when the map moves it.
    The eigenspaces are coordinate subspaces, so `space` is preserved
    exactly when each of its reduced echelon rows lies in one of them."""
    parts: Dict[int, list] = {1: [], -1: []}
    for row, p, cols in zip(space.rows, space.pivots, space._support):
        eps = sign[p]
        if any(sign[j] != eps for j in cols):
            return None
        parts[eps].append((row, p))
    return {eps: Subspace(space.ambient_dim, tuple(r for r, _ in rp), tuple(p for _, p in rp))
            for eps, rp in parts.items()}
