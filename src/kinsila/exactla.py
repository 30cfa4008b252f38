"""Exact linear algebra over the rationals.

Matrices, one incremental echelon builder with the echelon-form
subspaces, kernels and solvers built on it, polynomial arithmetic, and
the semisimple plus nilpotent splitting of a square matrix.  Every
scalar a caller gets back is an exact `fractions.Fraction`; inside,
the hot loops run on integers.  A `Mat` is its integer view, a common
denominator and the nonzero entries of each row scaled by it: products,
sums and `apply` accumulate in ints and build the next view directly,
and the Fraction entries are built lazily, only at the boundary
(reports, fault payloads, `m[i, j]`).  `Echelon` eliminates on integer
rows, and a `Subspace` is its integer reduced echelon rows: spans,
sums, embeddings, containment and `matrix_of` work on
them, and its Fraction `basis` is likewise built lazily, on first read.
Kernels and ranks feed `Echelon` the integer view of their matrix,
systems built in integers (`repth.hom_space`, `LieAlgebra.bracket_span`,
the entrywise equations of `solve_combination`) reach it without any
Fraction, and null spaces, inverses and solutions are read off its
integer reduced rows.
Nothing here rounds, samples, or depends on floating point.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import compress
from typing import Iterable, NamedTuple, Optional, Sequence

__all__ = [
    "q",
    "zero_vec",
    "unit_vec",
    "Mat",
    "Echelon",
    "Subspace",
    "kernel",
    "rank",
    "solve",
    "solve_combination",
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

_ZERO = Fraction(0)
_ONE = Fraction(1)
_FRACTION_ONLY = frozenset((Fraction,))


@contextmanager
def _unlimited_digits():
    """Lift the interpreter's limit on the digits of an int read from or
    written as text for the block, and put it back after: exact values
    have any size.  A limit of 0 is none, as before Python 3.11."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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


# ---------------------------------------------------------------------------
# matrices

class Mat:
    """Exact-rational matrix, immutable, stored as its integer view.

    The view is a positive denominator den and, per row, the (column,
    entry * den) pairs of the nonzero entries in column order, with den
    the lcm of the entries' denominators, so that gcd(den, entries) = 1
    and equal matrices have equal views.  `==`, `hash`, `is_zero` and
    `trace` read the view; products, sums, differences, negation,
    `scale`, `transpose`, `zeros` and `identity` accumulate in ints and
    build their result's view directly (`_integer_mat`), and `apply`
    has an integer core.  `__init__` takes Fractions and ints; the
    Fraction `entries` are built lazily, on the first read of `entries`
    or of `m[i, j]`, for reports and fault payloads.  Rows and columns
    may be zero; a 0 x n or n x 0 matrix is legal and behaves as
    expected under products and transposition.
    """

    __slots__ = ("rows", "cols", "_integer", "_entries")

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
        # the shared _ZERO is skipped by identity, sparing its __bool__
        den = math.lcm(*[x.denominator for row in rows for x in row if x is not _ZERO])
        view = tuple(
            tuple([
                (j, x.numerator * (den // x.denominator))
                for j, x in enumerate(row) if x is not _ZERO and x
            ])
            for row in rows
        )
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_integer", (den, view))

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors --------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return _integer_mat(cols, 1, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "Mat":
        return _integer_mat(n, 1, tuple(((i, 1),) for i in range(n)))

    # -- access --------------------------------------------------------
    @property
    def entries(self) -> tuple:
        """The rows as tuples of exact Fractions, built on first read."""
        try:
            return self._entries
        except AttributeError:
            den, view = self._integer
            out = []
            for row in view:
                r = [_ZERO] * self.cols
                for j, x in row:
                    r[j] = Fraction(x, den)
                out.append(tuple(r))
            entries = tuple(out)
            object.__setattr__(self, "_entries", entries)
            return entries

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    # -- arithmetic ----------------------------------------------------
    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        da, arows = self._integer
        db, brows = other._integer
        den = math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        out = []
        for arow, brow in zip(arows, brows):
            acc = [0] * self.cols
            for j, a in arow:
                acc[j] = fa * a
            for j, b in brow:
                acc[j] += fb * b
            out.append(_sparse(acc))
        return _integer_mat(self.cols, den, tuple(out))

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __neg__(self) -> "Mat":
        den, rows = self._integer
        return _integer_mat(
            self.cols, den, tuple(tuple([(j, -x) for j, x in row]) for row in rows)
        )

    def scale(self, c) -> "Mat":
        c = q(c)
        den, rows = self._integer
        f = c.numerator
        if not f:
            return Mat.zeros(self.rows, self.cols)
        return _integer_mat(
            self.cols,
            den * c.denominator,
            tuple(tuple([(j, f * x) for j, x in row]) for row in rows),
        )

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        da, arows = self._integer
        db, brows = other._integer
        out = []
        for arow in arows:
            acc = [0] * other.cols
            for k, a in arow:
                for j, b in brows[k]:
                    acc[j] += a * b
            out.append(_sparse(acc))
        return _integer_mat(other.cols, da * db, tuple(out))

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        dv, w = _integer_row(v)
        return _fractions(self._integer_apply(w), self._integer[0] * dv)

    def _integer_apply(self, w: Sequence) -> list:
        """den * (self w) for an integer vector w, as a list of ints."""
        out = []
        for row in self._integer[1]:
            s = 0
            for j, a in row:
                s += a * w[j]
            out.append(s)
        return out

    def transpose(self) -> "Mat":
        den, rows = self._integer
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(rows):
            for j, x in row:
                out[j].append((i, x))
        return _integer_mat(self.rows, den, tuple(map(tuple, out)))

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        den, rows = self._integer
        return Fraction(sum(x for i, row in enumerate(rows) for j, x in row if j == i), den)

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
        return not any(self._integer[1])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.cols == other.cols
            and self._integer == other._integer
        )

    def __hash__(self):
        return hash((self.cols, self._integer))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{self.rows}x{self.cols}: {body}]"


def _sparse(ints) -> tuple:
    """The (column, entry) pairs of the nonzero entries of an int list."""
    return tuple([(j, x) for j, x in enumerate(ints) if x])


def _dense(pairs, width: int) -> list:
    """The int list of length width with these (column, entry) pairs."""
    w = [0] * width
    for j, x in pairs:
        w[j] = x
    return w


def _flat(m: Mat) -> list:
    """The matrix m flattened row by row, times its denominator."""
    n = m.cols
    w = [0] * (m.rows * n)
    for r, row in enumerate(m._integer[1]):
        for c, x in row:
            w[r * n + c] = x
    return w


def _unflat(w: Sequence[int], den: int, rows: int, cols: int) -> Mat:
    """The rows x cols Mat read row by row from the integer vector w / den."""
    return _integer_mat(cols, den, tuple(
        _sparse(w[r * cols:(r + 1) * cols]) for r in range(rows)
    ))


def _integer_mat(cols: int, den: int, rows: tuple) -> Mat:
    """The Mat whose integer view is (den, rows) once den and the entries
    are divided by their gcd; every integer result is built here."""
    if den != 1:
        g = math.gcd(den, *[x for row in rows for _, x in row])
        if g != 1:
            den //= g
            rows = tuple(tuple([(j, x // g) for j, x in row]) for row in rows)
    m = object.__new__(Mat)
    object.__setattr__(m, "rows", len(rows))
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "_integer", (den, rows))
    return m


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

    Integer rows go in one at a time through `add_integer`; a caller
    holding a Fraction vector scales it by the lcm of its denominators
    first (`_integer_row`), as `Subspace.span` does.  Each is reduced
    against the rows already stored and kept only when it is independent
    of them.  A stored row is a
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
    in integers to the unique reduced echelon form of the row span, with
    each row primitive and its pivot entry positive; `subspace` hands
    those rows to a Subspace as they are, which is what makes Subspace
    comparison a plain comparison of integer tuples.  Null spaces,
    inverses and solutions are read off the integer reduced rows.  Every
    elimination in the package runs here.
    """

    __slots__ = ("width", "rows", "pivots", "support")

    def __init__(self, width: int):
        self.width = width
        self.rows: list = []
        self.pivots: list = []
        self.support: list = []

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

    def add_integer(self, w: list) -> Optional[tuple]:
        """Store the residual of w, a list of ints that the reduction may
        overwrite, as a primitive integer row with a positive pivot entry
        and return it: a nonzero multiple of w reduced.

        Returns None, storing nothing, when w is in the span of the rows.
        """
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
        done = self._reduced()
        return done.rows[::-1], done.pivots[::-1]

    def _reduced(self) -> "Echelon":
        """The reduced rows of `reduced_rows`, stored last pivot first."""
        done = Echelon(self.width)
        for _, row in sorted(zip(self.pivots, self.rows), reverse=True):
            done._store(done._reduce(list(row)))
        return done

    def subspace(self) -> "Subspace":
        """The row span as a Subspace, which takes the primitive reduced rows
        and the supports `_store` found for them as they are; no Fraction is built."""
        done = self._reduced()
        space = object.__new__(Subspace)
        space._set(self.width, *(tuple(x[::-1]) for x in (done.rows, done.pivots, done.support)))
        return space


class Subspace:
    """A linear subspace stored as its integer reduced echelon rows.

    `rows` are the primitive integer rows of the unique reduced echelon
    basis (each basis vector times the lcm of its denominators, which is
    its pivot entry), as `Echelon.reduced_rows` returns them, and
    `pivots` their pivot columns.  Two Subspace objects are equal exactly
    when they are the same subspace of the same ambient space, and `==`,
    `hash`, `dim`, spans, sums and containment all read
    those rows; no tolerance is involved.  `basis`, the reduced echelon
    basis in exact Fractions, is the boundary for reports and callers
    outside the package: it is built on first read and kept.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_support", "_basis")

    def __init__(self, ambient_dim: int, rows: tuple, pivots: tuple):
        self._set(ambient_dim, rows, pivots, tuple(
            tuple(compress(range(p + 1, ambient_dim), row[p + 1:]))
            for row, p in zip(rows, pivots)
        ))

    def _set(self, *values) -> None:
        """Fill ambient_dim, rows, pivots and _support, the nonzero columns after each pivot."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        ech = Echelon(ambient_dim)
        for v in vectors:
            t = _exact(tuple(v))
            if len(t) != ambient_dim:
                raise ValueError("vector does not live in the ambient space")
            ech.add_integer(_integer_row(t)[1])
        return ech.subspace()

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.coordinate(ambient_dim, range(ambient_dim))

    @staticmethod
    def coordinate(ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """The span of the basis vectors at `indices`: their unit rows,
        in index order, are already its reduced echelon rows."""
        pivots = tuple(sorted(indices))
        zeros = (0,) * ambient_dim
        rows = tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in pivots)
        return Subspace(ambient_dim, rows, pivots)

    @property
    def basis(self) -> tuple:
        """The reduced echelon basis in exact Fractions, built on first
        read: each integer row divided by its pivot entry."""
        try:
            return self._basis
        except AttributeError:
            basis = tuple(_fractions(row, row[p]) for row, p in zip(self.rows, self.pivots))
            object.__setattr__(self, "_basis", basis)
            return basis

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def is_full(self) -> bool:
        return len(self.pivots) == self.ambient_dim

    def echelon(self) -> Echelon:
        """A builder holding the integer rows, ready to take more."""
        ech = Echelon(self.ambient_dim)
        ech.rows += self.rows
        ech.pivots += self.pivots
        ech.support += self._support
        return ech

    def basis_mat(self) -> Mat:
        """The basis as the rows of a Mat, built in integers: its view is
        the lcm L of the pivot entries and the rows scaled to L times the
        basis vectors."""
        lcm = math.lcm(*[row[p] for row, p in zip(self.rows, self.pivots)])
        return _integer_mat(self.ambient_dim, lcm, tuple(
            _sparse([x * (lcm // row[p]) for x in row]) for row, p in zip(self.rows, self.pivots)
        ))

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector does not live in the ambient space")
        # v times the lcm of its denominators, reduced fraction-free: it
        # vanishes exactly when v is in the span of the rows
        return not any(self.echelon()._reduce(_integer_row(v)[1]))

    def embed(self, sub: "Subspace") -> "Subspace":
        """`sub`, a subspace of the coordinate space of this basis, as a
        subspace of the ambient space: the span of the vectors whose
        coefficients are sub's rows, combined in integers.  When this is
        a coordinate subspace (its rows are unit vectors), sub's rows
        with each entry moved to its basis vector's index are already
        reduced, and are taken as they are."""
        if sub.ambient_dim != self.dim:
            raise ValueError("need one coordinate per basis vector")
        if any(self._support):
            return self._image(sub.rows)
        n, at = self.ambient_dim, self.pivots
        rows = []
        for row in sub.rows:
            w = [0] * n
            for i, x in zip(at, row):
                w[i] = x
            rows.append(tuple(w))
        return Subspace(n, tuple(rows), tuple(at[p] for p in sub.pivots))

    def _image(self, coord_rows: Iterable[Sequence]) -> "Subspace":
        """The span of the vectors with these integer coefficients in
        this basis."""
        scaled = self.basis_mat()._integer[1]
        ech = Echelon(self.ambient_dim)
        for coords in coord_rows:
            w = [0] * self.ambient_dim
            for c, row in zip(coords, scaled):
                if c:
                    for j, x in row:
                        w[j] += c * x
            ech.add_integer(w)
        return ech.subspace()

    def matrix_of(self, m: Mat) -> Optional[Mat]:
        """Matrix, in this basis, of the linear map m (a square Mat in
        ambient coordinates) that preserves the subspace; None when m
        sends a basis vector outside it.

        m is applied in integers to the integer echelon rows of the basis.
        Each image is tested for membership by one fraction-free reduction
        against those rows, and its coordinates are read at the pivots,
        all over one common denominator.
        """
        if m.rows != self.ambient_dim or m.cols != self.ambient_dim:
            raise ValueError("the map does not act on the ambient space")
        ech = self.echelon()
        heads = [row[p] for row, p in zip(ech.rows, self.pivots)]
        lcm = math.lcm(*heads)
        cols = []
        for row, head in zip(ech.rows, heads):
            # m b = w / (den * head) for b = row / head
            w = m._integer_apply(row)
            f = lcm // head
            cols.append([w[p] * f for p in self.pivots])
            if any(ech._reduce(w)):
                return None
        rows = tuple(_sparse([c[k] for c in cols]) for k in range(self.dim))
        return _integer_mat(self.dim, m._integer[0] * lcm, rows)

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        ech = self.echelon()
        return not any(any(ech._reduce(list(row))) for row in other.rows)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        ech = self.echelon()
        for row in other.rows:
            ech.add_integer(list(row))
        return ech.subspace()

    def direct_sum(self, other: "Subspace") -> "Subspace":
        """The sum with a subspace whose rows vanish at every index where
        a row of this one does not (ValueError otherwise), as for the
        parts of a space in the two eigenspaces of a +-1 diagonal map.
        Each row of either is then zero at the other's pivots, so the
        union of the two reduced echelon bases, sorted by pivot, is the
        sum's: no elimination is run."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        used = set(self.pivots).union(*self._support)
        if any(p in used or used.intersection(cols)
               for p, cols in zip(other.pivots, other._support)):
            raise ValueError("the two subspaces share a coordinate")
        merged = sorted(zip(self.pivots + other.pivots, self.rows + other.rows))
        return Subspace(self.ambient_dim, tuple(r for _, r in merged),
                        tuple(p for p, _ in merged))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

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
    pairs of its nonzero entries, as in a `Mat`'s integer view; once it
    is full, no further row is read."""
    ech = Echelon(width)
    for row in rows:
        if len(ech.rows) == width:
            break
        ech.add_integer(_dense(row, width))
    return ech


def _integer_kernel(width: int, rows: Iterable[Sequence]) -> Subspace:
    """Null space of a system given as sparse integer rows."""
    return _null_space(*_integer_echelon(width, rows).reduced_rows(), width)


def kernel(m: Mat) -> Subspace:
    """Null space {v : m v = 0}, as a canonical Subspace of Q^cols."""
    return _integer_kernel(m.cols, m._integer[1])


def rank(m: Mat) -> int:
    return len(_integer_echelon(m.cols, m._integer[1]).rows)


class SolveResult(NamedTuple):
    particular: tuple
    kernel: Subspace


def solve(m: Mat, b: Sequence) -> Optional[SolveResult]:
    """Solve m x = b exactly.

    Returns None when the system is inconsistent, otherwise one particular
    solution together with the kernel describing the full solution set.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    n = m.cols
    den, rows = m._integer
    db, w = _integer_row(_exact(tuple(b)))
    # [T | w] of m = T / den and b = w / db, over their common denominator
    lcm = math.lcm(den, db)
    fm, fb = lcm // den, lcm // db
    return _solve(n, (
        [(j, fm * x) for j, x in row] + ([(n, fb * y)] if y else [])
        for row, y in zip(rows, w)
    ))


def _solve(n: int, rows: Iterable[Sequence]) -> Optional[SolveResult]:
    """`solve` for the system whose augmented matrix [T | w] is given as
    sparse integer rows, as in a `Mat`'s integer view, of width n + 1."""
    reduced, pivots = _integer_echelon(n + 1, rows).reduced_rows()
    if n in pivots:
        return None
    x = list(zero_vec(n))
    for row, p in zip(reduced, pivots):
        if row[n]:
            x[p] = Fraction(row[n], row[p])
    return SolveResult(tuple(x), _null_space(reduced, pivots, n))


def solve_combination(mats: Sequence[Mat], target: Optional[Mat] = None) -> Optional[SolveResult]:
    """Solve sum c_i mats[i] = target for c, target zero when None.

    Returns None when no combination reaches target, otherwise one
    particular c with the kernel {c : sum c_i mats[i] = 0}.  Each entry
    gives one equation, written over one common denominator of all the
    matrices, so the system reaches `_solve` in integers.
    """
    given = list(mats) if target is None else [*mats, target]
    if len({(m.rows, m.cols) for m in given}) > 1:
        raise ValueError("shape mismatch")
    den = math.lcm(*[m._integer[0] for m in given])
    flats = [[x * (den // m._integer[0]) for x in _flat(m)] for m in given]
    # the target's entry, when there is one, lands in column len(mats);
    # an entry where every matrix is zero gives no equation
    return _solve(len(mats), filter(None, map(_sparse, zip(*flats))))


def inverse(m: Mat) -> Mat:
    """m^-1 for m = T / den: [T | I] reduces to the rows h_i [e_i | row i
    of T^-1], and m^-1 = den T^-1, all in integers."""
    if not m.is_square():
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    den, rows = m._integer
    reduced, pivots = _integer_echelon(
        2 * n, (row + ((n + i, 1),) for i, row in enumerate(rows))
    ).reduced_rows()
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    lcm = math.lcm(*[row[i] for i, row in enumerate(reduced)])
    return _integer_mat(n, lcm, tuple(
        _sparse([den * (lcm // row[i]) * x for x in row[n:]])
        for i, row in enumerate(reduced)
    ))


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


def _poly_apply(p: Poly, m: Mat, w: list) -> list:
    """A nonzero integer multiple of p(m) w for an integer vector w,
    without forming the matrix p(m).

    With m = M / den and L p = sum C_j t^j in integers, Horner's rule
    acc <- M acc + C_j den^(deg - j) w ends at den^deg L p(m) w.
    """
    den = m._integer[0]
    _, cs = _integer_row(p.coeffs)
    acc = [0] * len(w)
    scale = 1
    for c in reversed(cs):
        acc = m._integer_apply(acc)
        if c:
            f = c * scale
            acc = [x + f * y for x, y in zip(acc, w)]
        scale *= den
    return acc


def min_poly(m: Mat) -> Poly:
    """Minimal polynomial via Krylov sequences of the standard basis vectors.

    For each seed e_i the first linear dependence among e_i, m e_i, m^2 e_i,
    ... yields the monic annihilator of e_i; the minimal polynomial is the
    lcm of these, and the scan stops early once its degree reaches n.
    The sequence runs in integers: with m = M / den, the k-th Krylov row
    is (M^k e_i | den^k e_k) = den^k (m^k e_i | e_k), divided by the
    common factors of its entries as they arise.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of non-square matrix")
    n = m.rows
    if n == 0:
        return Poly.one()
    den = m._integer[0]
    result = Poly.one()
    for i in range(n):
        if result.degree == n:
            break
        seed = [0] * n
        seed[i] = 1
        if not any(_poly_apply(result, m, seed)):
            continue
        # rows [m^k e_i | e_k]: the first whose residual vanishes on the
        # first n coordinates holds the coefficients of the annihilator
        krylov = Echelon(2 * n + 1)
        w, tag = seed, 1
        for k in range(n + 1):
            row = krylov.add_integer(w + [0] * k + [tag] + [0] * (n - k))
            if krylov.pivots[-1] >= n:
                result = poly_lcm(result, Poly(row[n:]).monic())
                break
            w = m._integer_apply(w)
            tag *= den
            g = math.gcd(tag, *w)
            if g > 1:
                w = [x // g for x in w]
                tag //= g
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

    Used to certify that computed parts lie in the Krylov span of m.  The
    system [I, m, ..., m^(n-1) | target] reaches `solve` in integers.
    """
    if not m.is_square() or not target.is_square() or m.rows != target.rows:
        raise ValueError("shape mismatch")
    n = m.rows
    if n == 0:
        return ()
    mats = [Mat.identity(n)]
    while len(mats) < n:
        mats.append(mats[-1] @ m)
    mats.append(target)
    den = math.lcm(*[a._integer[0] for a in mats])
    *flats, b = [[x * (den // a._integer[0]) for x in _flat(a)] for a in mats]
    res = solve(_integer_mat(n, 1, tuple(map(_sparse, zip(*flats)))), b)
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
