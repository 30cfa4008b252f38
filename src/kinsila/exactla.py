"""Exact linear algebra over the rationals.

Matrices, one incremental echelon builder with the echelon-form
subspaces, kernels and solvers built on it, polynomial arithmetic, and
the semisimple plus nilpotent splitting of a square matrix.  Every
scalar a caller gets back is an exact `fractions.Fraction`; inside,
the hot loops run on integers.  `Echelon` eliminates on integer rows
and builds Fractions only once, for the canonical reduced echelon
basis of the Subspace it returns.  Kernels and ranks feed it the
integer view of their matrix, systems that callers build in integers
(`repth.hom_space`, `LieAlgebra.bracket_span`) reach it without any
Fraction, and null spaces and solutions are read off its integer
reduced rows.  `Mat` products, sums and `apply` work on one
integer view of each matrix over a common denominator, building one
Fraction per nonzero entry of the result.  Nothing here rounds,
samples, or depends on floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

__all__ = [
    "Q",
    "q",
    "zero_vec",
    "unit_vec",
    "vadd",
    "vsub",
    "vscale",
    "Mat",
    "Echelon",
    "Subspace",
    "kernel",
    "rank",
    "solve",
    "SolveResult",
    "inverse",
    "Poly",
    "poly_gcd",
    "poly_xgcd",
    "poly_lcm",
    "squarefree_part",
    "is_squarefree",
    "matrix_poly",
    "char_poly",
    "min_poly",
    "sn_decomposition",
    "is_semisimple",
    "is_nilpotent",
    "polynomial_in",
    "sqrt_rational",
]

Q = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)
_FRACTION_ONLY = frozenset((Fraction,))


def q(value) -> Fraction:
    """Coerce an int, Fraction, or exact string ("3", "-1/2") to Fraction.

    Floats are rejected on purpose: accepting one would smuggle rounding
    error into computations whose entire point is exactness.
    """
    if type(value) is Fraction:
        # immutable, so the value itself is already the answer
        return value
    if isinstance(value, float):
        raise TypeError("refusing float %r: use an exact rational (p/q)" % value)
    return Fraction(value)


def _exact(t: tuple) -> tuple:
    """t with every entry coerced by `q`; t itself when all are Fractions."""
    if _FRACTION_ONLY.issuperset(map(type, t)):
        return t
    return tuple(q(x) for x in t)


# ---------------------------------------------------------------------------
# vectors: plain tuples of Fraction

def zero_vec(n: int) -> tuple:
    return (_ZERO,) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    if not c:
        return zero_vec(len(a))
    return tuple(c * x if x else x for x in a)


# ---------------------------------------------------------------------------
# matrices

class Mat:
    """Dense exact-rational matrix, immutable after construction.

    Rows and columns may be zero; a 0 x n or n x 0 matrix is legal and
    behaves as expected under products and transposition.  Products, sums
    and `apply` read one private sparse integer view, built on first use:
    a common denominator den of the entries and, per row, the (column,
    entry * den) pairs of the nonzero entries.  They accumulate in ints
    and build one Fraction per nonzero entry of the result.
    """

    __slots__ = ("rows", "cols", "entries", "_integer")

    def __init__(self, entries, cols: Optional[int] = None):
        rows = []
        width = cols
        for row in entries:
            t = _exact(tuple(row))
            if width is None:
                width = len(t)
            elif len(t) != width:
                raise ValueError("ragged rows in matrix")
            rows.append(t)
        if width is None:
            width = 0
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors --------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat([zero_vec(cols) for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([unit_vec(n, i) for i in range(n)], cols=n)

    @staticmethod
    def from_cols(cols, rows: Optional[int] = None) -> "Mat":
        cols = [tuple(c) for c in cols]
        if cols:
            height = len(cols[0])
        else:
            height = rows or 0
        return Mat([[c[i] for c in cols] for i in range(height)], cols=len(cols))

    # -- access --------------------------------------------------------
    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def _integer_rows(self) -> tuple:
        """(den, rows): den is the lcm of the entries' denominators, and
        each row the (column, entry * den) pairs of its nonzero entries."""
        try:
            return self._integer
        except AttributeError:
            # the shared _ZERO is skipped by identity, sparing its __bool__
            den = math.lcm(*[
                x.denominator for row in self.entries for x in row if x is not _ZERO
            ])
            view = (den, tuple(
                tuple(
                    (j, x.numerator * (den // x.denominator))
                    for j, x in enumerate(row) if x is not _ZERO and x
                )
                for row in self.entries
            ))
            object.__setattr__(self, "_integer", view)
            return view

    # -- arithmetic ----------------------------------------------------
    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        da, arows = self._integer_rows()
        db, brows = other._integer_rows()
        den = math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        out = []
        for arow, brow in zip(arows, brows):
            acc = [0] * self.cols
            for j, a in arow:
                acc[j] = fa * a
            for j, b in brow:
                acc[j] += fb * b
            out.append(_fractions(acc, den))
        return Mat(out, cols=self.cols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __neg__(self) -> "Mat":
        return Mat([vscale(-_ONE, r) for r in self.entries], cols=self.cols)

    def scale(self, c) -> "Mat":
        c = q(c)
        return Mat([vscale(c, r) for r in self.entries], cols=self.cols)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        da, arows = self._integer_rows()
        db, brows = other._integer_rows()
        den = da * db
        out = []
        for arow in arows:
            acc = [0] * other.cols
            for k, a in arow:
                for j, b in brows[k]:
                    acc[j] += a * b
            out.append(_fractions(acc, den))
        return Mat(out, cols=other.cols)

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        den, rows = self._integer_rows()
        dv, w = _integer_row(v)
        out = []
        for row in rows:
            s = 0
            for j, a in row:
                s += a * w[j]
            out.append(s)
        return _fractions(out, den * dv)

    def transpose(self) -> "Mat":
        return Mat(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), _ZERO)

    def power(self, k: int) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        result = Mat.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        # the shared _ZERO is skipped by identity, sparing its __bool__
        return all(x is _ZERO or not x for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square() and self == Mat.identity(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{self.rows}x{self.cols}: {body}]"


# ---------------------------------------------------------------------------
# row echelon form: the one elimination kernel

def _integer_row(v) -> tuple:
    """(den, w): den is the lcm of v's denominators and w = v * den, as a
    list of ints."""
    # most zeros are the shared _ZERO: skipping it by identity spares two
    # property calls per entry; any other zero takes the general path
    den = math.lcm(*[x.denominator for x in v if x is not _ZERO])
    if den == 1:
        return den, [0 if x is _ZERO else x.numerator for x in v]
    return den, [0 if x is _ZERO else x.numerator * (den // x.denominator) for x in v]


def _fractions(ints, den: int) -> tuple:
    """The integers divided by den, as exact Fractions; zeros are the
    shared _ZERO."""
    if den == 1:
        return tuple([Fraction(x) if x else _ZERO for x in ints])
    return tuple([Fraction(x, den) if x else _ZERO for x in ints])


class Echelon:
    """Incremental fraction-free row echelon form over Q.

    Rows go in one at a time through `add`, which scales each to integers
    by the lcm of its denominators, or through `add_integer`, for a row a
    caller has built in integers and which meets no Fraction on the way.
    Each is reduced against the rows already stored and kept only when it
    is independent of them.  A stored row is a
    primitive integer tuple (its entries have gcd 1) with a positive
    pivot entry; it is zero before its pivot and at the pivots of the rows
    stored before it, so reducing in storage order clears every pivot.
    Next to each row, `support` keeps the columns of its nonzero entries
    after the pivot, so a reduction touches only those.  Reduction is
    fraction-free: against a row with pivot entry a, a vector w with entry
    c at that column becomes (a/g) w - (c/g) row with g = gcd(a, c), and
    a step that scaled w (a/g != 1) then divides w by the gcd of its
    entries, so residuals keep the size of the stored rows rather than
    swelling step by step.  `reduced_rows` back-substitutes
    in integers to the unique reduced echelon form of the row span;
    `subspace` divides those rows by their pivot entries and is the one
    place that builds Fractions, once per nonzero entry of the basis,
    which is what makes Subspace comparison a plain tuple comparison.
    Null spaces and solutions are read off the integer reduced rows.
    Every elimination in the package runs here.
    """

    __slots__ = ("width", "rows", "pivots", "support")

    def __init__(self, width: int, rows: Iterable[Sequence] = ()):
        self.width = width
        self.rows: list = []
        self.pivots: list = []
        self.support: list = []
        for r in rows:
            self.add(r)

    def residual(self, v) -> list:
        """An integer row: a nonzero multiple of v minus the combination of
        stored rows that clears every pivot; all zero exactly when v is in
        the span of the rows."""
        return self._reduce(_integer_row(v)[1])

    def _reduce(self, w: list) -> list:
        """The integer row w reduced fraction-free at every stored pivot."""
        for row, p, cols in zip(self.rows, self.pivots, self.support):
            c = w[p]
            if c:
                a = row[p]
                if a != 1:
                    g = math.gcd(a, c)
                    a //= g
                    c //= g
                    if a != 1:
                        w = [a * x for x in w]
                w[p] = 0
                for j in cols:
                    w[j] -= c * row[j]
                if a != 1:
                    # a scaled step: divide out the content it may have left
                    g = math.gcd(*w)
                    if g > 1:
                        w = [x // g for x in w]
        return w

    def add(self, v) -> Optional[tuple]:
        """Store v's residual as a primitive integer row with a positive
        pivot entry and return it: a nonzero multiple of v reduced.

        Returns None, storing nothing, when v is in the span of the rows.
        """
        return self.add_integer(_integer_row(v)[1])

    def add_integer(self, w: list) -> Optional[tuple]:
        """`add` for a row already in integers: w is a list of ints, which
        the reduction may overwrite."""
        if len(self.rows) == self.width:
            return None
        w = self._reduce(w)
        if not any(w):
            return None
        return self._store(w)

    def _store(self, w: list) -> tuple:
        """Append the nonzero integer row w, divided by the gcd of its
        entries and signed so that its pivot entry is positive."""
        cols = [j for j, x in enumerate(w) if x]
        g = math.gcd(*w)
        if w[cols[0]] < 0:
            g = -g
        if g != 1:
            w = [x // g for x in w]
        row = tuple(w)
        self.rows.append(row)
        self.pivots.append(cols[0])
        self.support.append(tuple(cols[1:]))
        return row

    def reduced_rows(self) -> tuple:
        """(rows, pivots) of the row span's reduced echelon form, sorted by
        pivot, each row a primitive integer tuple with a positive pivot
        entry and zero at every other pivot.

        Rows are taken from the last pivot back, each cleared at the
        pivots of the rows already done; those are zero before their own
        pivots, so the pivot stays where it is.
        """
        done = Echelon(self.width)
        for _, row in sorted(zip(self.pivots, self.rows), reverse=True):
            done._store(done._reduce(list(row)))
        return done.rows[::-1], done.pivots[::-1]

    def subspace(self) -> "Subspace":
        """The row span as a Subspace: each reduced row divided by its
        pivot entry into exact Fractions."""
        rows, pivots = self.reduced_rows()
        return Subspace(
            self.width,
            tuple(_fractions(row, row[p]) for row, p in zip(rows, pivots)),
            tuple(pivots),
        )


class Subspace:
    """A linear subspace stored as its unique reduced-echelon basis.

    Two Subspace objects are equal exactly when they are the same
    subspace of the same ambient space; no tolerance is involved.  The
    basis entries are exact Fractions.  The `Echelon` rows of the basis
    (each basis row times the lcm of its denominators, which is primitive
    with a positive pivot entry) and their `support` are kept in a private
    slot, built by the first `echelon()`: most subspaces never need them.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_integer")

    def __init__(self, ambient_dim, basis, pivots):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = []
        for v in vectors:
            t = _exact(tuple(v))
            if len(t) != ambient_dim:
                raise ValueError("vector does not live in the ambient space")
            rows.append(t)
        return Echelon(ambient_dim, rows).subspace()

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.span(ambient_dim, [unit_vec(ambient_dim, i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def echelon(self) -> Echelon:
        """A builder holding this basis, ready to take more rows."""
        ech = Echelon(self.ambient_dim)
        try:
            rows, support = self._integer
        except AttributeError:
            for b in self.basis:
                ech._store(_integer_row(b)[1])
            object.__setattr__(self, "_integer", (tuple(ech.rows), tuple(ech.support)))
            return ech
        ech.rows += rows
        ech.pivots += self.pivots
        ech.support += support
        return ech

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector does not live in the ambient space")
        return not any(self.echelon().residual(v))

    def coordinates_of(self, v) -> Optional[tuple]:
        """Coefficients of v in this basis, or None when v is outside.

        For a reduced-echelon basis the coefficient of basis row j is just
        the entry of v at pivot j; membership is verified exactly against
        the basis' integer echelon rows.
        """
        v = _exact(tuple(v))
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def vector(self, coords) -> tuple:
        """The vector with these coefficients in this basis; the inverse
        of `coordinates_of`."""
        if len(coords) != self.dim:
            raise ValueError("need one coefficient per basis vector")
        v = [_ZERO] * self.ambient_dim
        for c, row in zip(coords, self.basis):
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] += c * x
        return tuple(v)

    def matrix_of(self, f) -> Optional[Mat]:
        """Matrix, in this basis, of a linear map f (a function on ambient
        vectors) that preserves the subspace; None when f sends a basis
        vector outside it."""
        cols = []
        for b in self.basis:
            coords = self.coordinates_of(f(b))
            if coords is None:
                return None
            cols.append(coords)
        return Mat.from_cols(cols, rows=self.dim)

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        ech = self.echelon()
        return not any(any(ech.residual(v)) for v in other.basis)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        ech = self.echelon()
        for v in other.basis:
            ech.add(v)
        return ech.subspace()

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of [U^T | -W^T]."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        du, dw = self.dim, other.dim
        rows = []
        for i in range(self.ambient_dim):
            row = [self.basis[a][i] for a in range(du)]
            row += [-other.basis[b][i] for b in range(dw)]
            rows.append(row)
        combos = kernel(Mat(rows, cols=du + dw))
        return Subspace.span(
            self.ambient_dim, [self.vector(c[:du]) for c in combos.basis]
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def _null_space(rows, pivots, cols: int) -> Subspace:
    """Solutions of the system whose integer reduced echelon rows (from
    `Echelon.reduced_rows`) are `rows`, in its first `cols` coordinates
    (every pivot lies among them).

    For each free column f the solution is built in integers: L at f and
    -row[f] L / row[p] at the pivot p of each row, L the lcm of those
    rows' pivot entries.
    """
    pivot_set = set(pivots)
    ech = Echelon(cols)
    for f in range(cols):
        if f in pivot_set:
            continue
        hits = [(row[f], row[p], p) for row, p in zip(rows, pivots) if row[f]]
        lcm = math.lcm(*[a for _, a, _ in hits])
        v = [0] * cols
        v[f] = lcm
        for c, a, p in hits:
            v[p] = -c * (lcm // a)
        ech.add_integer(v)
    return ech.subspace()


def _integer_echelon(width: int, rows: Iterable[Sequence]) -> Echelon:
    """An Echelon holding integer rows, each given as the (column, entry)
    pairs of its nonzero entries, as in `Mat._integer_rows`."""
    ech = Echelon(width)
    for row in rows:
        w = [0] * width
        for j, x in row:
            w[j] = x
        ech.add_integer(w)
    return ech


def _integer_kernel(width: int, rows: Iterable[Sequence]) -> Subspace:
    """Null space of a system given as sparse integer rows."""
    return _null_space(*_integer_echelon(width, rows).reduced_rows(), width)


def kernel(m: Mat) -> Subspace:
    """Null space {v : m v = 0}, as a canonical Subspace of Q^cols."""
    return _integer_kernel(m.cols, m._integer_rows()[1])


def rank(m: Mat) -> int:
    return len(_integer_echelon(m.cols, m._integer_rows()[1]).rows)


class SolveResult:
    __slots__ = ("particular", "kernel")

    def __init__(self, particular, kern):
        object.__setattr__(self, "particular", particular)
        object.__setattr__(self, "kernel", kern)

    def __setattr__(self, name, value):
        raise AttributeError("SolveResult is immutable")

    def __iter__(self):
        return iter((self.particular, self.kernel))


def solve(m: Mat, b: Sequence) -> Optional[SolveResult]:
    """Solve m x = b exactly.

    Returns None when the system is inconsistent, otherwise one particular
    solution together with the kernel describing the full solution set.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    n = m.cols
    augmented = [row + (q(x),) for row, x in zip(m.entries, b)]
    reduced, pivots = Echelon(n + 1, augmented).reduced_rows()
    if n in pivots:
        return None
    x = list(zero_vec(n))
    for row, p in zip(reduced, pivots):
        if row[n]:
            x[p] = Fraction(row[n], row[p])
    return SolveResult(tuple(x), _null_space(reduced, pivots, n))


def inverse(m: Mat) -> Mat:
    if not m.is_square():
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    augmented = [row + unit_vec(n, i) for i, row in enumerate(m.entries)]
    reduced = Echelon(2 * n, augmented).subspace()
    if reduced.pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Mat([row[n:] for row in reduced.basis], cols=n)


# ---------------------------------------------------------------------------
# polynomials over Q

class Poly:
    """Polynomial with exact rational coefficients, low degree first.

    The zero polynomial has empty coefficients and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [q(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((_ONE,))

    @staticmethod
    def x() -> "Poly":
        return Poly((_ZERO, _ONE))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading
        if lead == 1:
            return self
        return Poly(tuple(c / lead for c in self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [_ZERO] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a)

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [_ZERO] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] -= c
        return Poly(a)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = q(c)
        return Poly(tuple(c * x for x in self.coeffs))

    def divmod_by(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading
        quot = [_ZERO] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = c / lead
            quot[i - d] = f
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= f * b
        return Poly(quot), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod_by(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod_by(other)[0]

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def __call__(self, x):
        x = q(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" if i == 1 else f"{mag}t^{i}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_xgcd(a: Poly, b: Poly):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    u0, u1 = Poly.one(), Poly.zero()
    v0, v1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        quot, rem = r0.divmod_by(r1)
        r0, r1 = r1, rem
        u0, u1 = u1, u0 - quot * u1
        v0, v1 = v1, v0 - quot * v1
    if r0.is_zero():
        return r0, u0, v0
    lead = r0.leading
    inv = _ONE / lead
    return r0.monic(), u0.scale(inv), v0.scale(inv)


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero()
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), monic.  Has the same roots, all simple."""
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return (p // g).monic()


def is_squarefree(p: Poly) -> bool:
    if p.is_zero():
        return False
    return poly_gcd(p, p.derivative()).degree == 0


# ---------------------------------------------------------------------------
# matrix polynomials, characteristic and minimal polynomials

def matrix_poly(p: Poly, m: Mat) -> Mat:
    """Evaluate p at a square matrix by Horner's rule."""
    if not m.is_square():
        raise ValueError("polynomial of non-square matrix")
    n = m.rows
    acc = Mat.zeros(n, n)
    ident = Mat.identity(n)
    for c in reversed(p.coeffs):
        acc = acc @ m
        if c:
            acc = acc + ident.scale(c)
    return acc


def char_poly(m: Mat) -> Poly:
    """Characteristic polynomial det(tI - m) by the Faddeev-LeVerrier recursion."""
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    coeffs = [_ZERO] * (n + 1)
    coeffs[n] = _ONE
    mk = Mat.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        c = -mk.trace() / k
        coeffs[n - k] = c
        if k < n:
            mk = mk + Mat.identity(n).scale(c)
    return Poly(coeffs)


def _poly_apply(p: Poly, m: Mat, v: Sequence) -> tuple:
    """p(m) v without forming the matrix p(m)."""
    acc = zero_vec(len(v))
    for c in reversed(p.coeffs):
        acc = m.apply(acc)
        if c:
            acc = vadd(acc, vscale(c, v))
    return acc


def min_poly(m: Mat) -> Poly:
    """Minimal polynomial via Krylov sequences of the standard basis vectors.

    For each seed e_i the first linear dependence among e_i, m e_i, m^2 e_i,
    ... yields the monic annihilator of e_i; the minimal polynomial is the
    lcm of these, and the scan stops early once its degree reaches n.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of non-square matrix")
    n = m.rows
    if n == 0:
        return Poly.one()
    result = Poly.one()
    for i in range(n):
        if result.degree == n:
            break
        seed = unit_vec(n, i)
        if _poly_apply(result, m, seed) == zero_vec(n):
            continue
        # rows [m^k e_i | e_k]: the first whose residual vanishes on the
        # first n coordinates holds the coefficients of the annihilator
        krylov = Echelon(2 * n + 1)
        v = seed
        for k in range(n + 1):
            row = krylov.add(v + unit_vec(n + 1, k))
            if krylov.pivots[-1] >= n:
                result = poly_lcm(result, Poly(row[n:]).monic())
                break
            v = m.apply(v)
    return result


def _compose_mod(p: Poly, x: Poly, mod: Poly) -> Poly:
    """p(x) reduced mod `mod`, by Horner's rule in the quotient ring."""
    acc = Poly.zero()
    for c in reversed(p.coeffs):
        acc = (acc * x) % mod
        if c:
            acc = acc + Poly((c,))
    return acc


def sn_decomposition(m: Mat):
    """Split m = S + N with S semisimple, N nilpotent, [S, N] = 0.

    Both parts are polynomials in m, which is what forces them to commute
    with m and with each other.  The construction is the Newton iteration
    x <- x - f(x) u(x) on the squarefree part f of the characteristic
    polynomial chi, with u from the Bezout identity u f' + v f = 1; each
    step squares the order of vanishing of f(x), so ceil(log2 n) + 1
    steps reach f(x) = 0.  The iteration runs on polynomials in the
    quotient ring Q[t]/(chi) and only the final result is evaluated at m.
    """
    if not m.is_square():
        raise ValueError("sn_decomposition of non-square matrix")
    n = m.rows
    if n == 0:
        return m, m
    chi = char_poly(m)
    f = squarefree_part(chi)
    g, u, _ = poly_xgcd(f.derivative(), f)
    if g != Poly.one():
        raise ArithmeticError("squarefree part not coprime with its derivative")
    x = Poly.x() % chi
    steps = n.bit_length() + 1
    for _ in range(steps):
        fx = _compose_mod(f, x, chi)
        if fx.is_zero():
            break
        x = (x - fx * _compose_mod(u, x, chi)) % chi
    else:
        if not _compose_mod(f, x, chi).is_zero():
            raise ArithmeticError("Newton iteration failed to converge")
    s = matrix_poly(x, m)
    return s, m - s


def is_semisimple(m: Mat) -> bool:
    """True when the minimal polynomial is squarefree.

    Squarefreeness is a gcd condition, so the answer over Q agrees with
    the answer over any extension field including the reals.
    """
    return is_squarefree(min_poly(m))


def is_nilpotent(m: Mat) -> bool:
    mp = min_poly(m)
    return all(not c for c in mp.coeffs[:-1])


def polynomial_in(m: Mat, target: Mat) -> Optional[tuple]:
    """Coefficients c with target = sum c_k m^k (k < n), or None.

    Used to certify that computed parts lie in the Krylov span of m.
    """
    if not m.is_square() or not target.is_square() or m.rows != target.rows:
        raise ValueError("shape mismatch")
    n = m.rows
    if n == 0:
        return ()
    powers = []
    acc = Mat.identity(n)
    for _ in range(n):
        powers.append(acc)
        acc = acc @ m
    cols = [
        tuple(p.entries[i][j] for i in range(n) for j in range(n)) for p in powers
    ]
    flat_target = tuple(target.entries[i][j] for i in range(n) for j in range(n))
    res = solve(Mat.from_cols(cols), flat_target)
    return None if res is None else res.particular


def sqrt_rational(x) -> Optional[Fraction]:
    """Exact nonnegative square root of a rational, or None if irrational."""
    x = q(x)
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
