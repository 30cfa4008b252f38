"""Catalog of classical kinematical Lie algebras.

No structure constant in this file is written down by hand.  Each family
is realized by explicit integer matrices; commutators are sparse integer
products, their coordinates in the generator span are read off their
entries at the pivots, and the expansion is re-verified entry by entry
before it becomes a structure constant.  The constants stay integers over
one denominator, the form in which `LieAlgebra` holds its table, and no
Fraction is built (`LieAlgebra._from_integers`, which checks Jacobi).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from .errors import InternalFault
from .exactla import _integer_echelon, _integer_mat, _sparse, Mat, inverse
from .liecore import LieAlgebra

FAMILIES = (
    "static",
    "galilei",
    "newton_hooke_plus",
    "newton_hooke_minus",
    "carroll",
    "poincare",
    "de_sitter",
    "anti_de_sitter",
)

# what the classifier is expected to say, for d >= 4
EXPECTED_LABEL = {
    "static": "flat-rad-equals-P",
    "galilei": "flat-rad-equals-P",
    "newton_hooke_plus": "flat-rad-equals-P",
    "newton_hooke_minus": "flat-rad-equals-P",
    "carroll": "flat-other",
    "poincare": "poincare-type",
    "de_sitter": "three-graded-para-kahler",
    "anti_de_sitter": "pseudo-kahler",
}


def dim_formula(d: int) -> int:
    return d * (d - 1) // 2 + 2 * d + 1


class CatalogEntry:
    """A named algebra with its basis roles and expected classification."""

    def __init__(self, family, d, algebra, z_label, s_labels, p_labels):
        self.family = family
        self.d = d
        self.algebra = algebra
        self.z_label = z_label
        self.s_labels = tuple(s_labels)
        self.p_labels = tuple(p_labels)
        self.expected_label = EXPECTED_LABEL[family]

    def roles(self) -> Tuple[Tuple[int, ...], ...]:
        """(z, s, p): the basis indices of each role's labels."""
        index = self.algebra.labels.index
        return (
            (index(self.z_label),),
            tuple(map(index, self.s_labels)),
            tuple(map(index, self.p_labels)),
        )

    def __repr__(self):
        return f"CatalogEntry({self.family}, d={self.d})"


def _empty(n: int) -> List[List[int]]:
    return [[0] * n for _ in range(n)]


def _mat(rows: List[List[int]]) -> Mat:
    """The square Mat with these int rows."""
    return _integer_mat(len(rows), 1, tuple(map(_sparse, rows)))


def _summed(terms) -> dict:
    """{position: sum} of (position, value) terms, without the zero sums."""
    acc: Dict[int, int] = {}
    for p, x in terms:
        acc[p] = acc.get(p, 0) + x
    return {p: x for p, x in acc.items() if x}


def _pair_labels(d: int) -> List[str]:
    return [f"J{a}_{b}" for a in range(1, d + 1) for b in range(a + 1, d + 1)]


def _so_block(rows, a, b, offset):
    """Write E_ab - E_ba (1-based a < b) into a block starting at offset."""
    rows[offset + a - 1][offset + b - 1] += 1
    rows[offset + b - 1][offset + a - 1] -= 1


def _realization(family: str, d: int) -> Tuple[List[Mat], int]:
    """Generator matrices in basis order (J.., B.., P.., H)."""
    mats = []
    if family in ("poincare", "carroll", "de_sitter", "anti_de_sitter"):
        n = d + 2
        for a in range(1, d + 1):
            for b in range(a + 1, d + 1):
                rows = _empty(n)
                _so_block(rows, a, b, 1)
                mats.append(_mat(rows))
        for i in range(1, d + 1):  # boosts
            rows = _empty(n)
            rows[0][i] += 1
            if family != "carroll":
                rows[i][0] += 1
            mats.append(_mat(rows))
        for i in range(1, d + 1):  # spatial translations
            rows = _empty(n)
            rows[i][d + 1] += 1
            if family == "de_sitter":
                rows[d + 1][i] -= 1
            elif family == "anti_de_sitter":
                rows[d + 1][i] += 1
            mats.append(_mat(rows))
        rows = _empty(n)  # time translation
        rows[0][d + 1] += 1
        if family == "de_sitter":
            rows[d + 1][0] += 1
        elif family == "anti_de_sitter":
            rows[d + 1][0] -= 1
        mats.append(_mat(rows))
        return mats, n

    # the four flat families share one affine realization, parametrized by
    # how time translation rotates boosts into momenta and back
    coeffs = {
        "static": (0, 0),
        "galilei": (1, 0),
        "newton_hooke_plus": (1, -1),
        "newton_hooke_minus": (1, 1),
    }
    if family not in coeffs:
        raise ValueError(f"unknown family {family!r}")
    c_b, c_p = coeffs[family]
    n = 2 * d + 3
    for a in range(1, d + 1):
        for b in range(a + 1, d + 1):
            rows = _empty(n)
            _so_block(rows, a, b, 0)
            _so_block(rows, a, b, d)
            mats.append(_mat(rows))
    for i in range(1, d + 1):
        rows = _empty(n)
        rows[i - 1][2 * d] += 1
        mats.append(_mat(rows))
    for i in range(1, d + 1):
        rows = _empty(n)
        rows[d + i - 1][2 * d] += 1
        mats.append(_mat(rows))
    rows = _empty(n)
    for i in range(1, d + 1):
        if c_p:
            rows[i - 1][d + i - 1] += c_p
        if c_b:
            rows[d + i - 1][i - 1] -= c_b
    # a decoupled nilpotent corner keeps H nonzero even when both
    # coefficients vanish (the static family)
    rows[2 * d + 1][2 * d + 2] += 1
    mats.append(_mat(rows))
    return mats, n


@lru_cache(maxsize=None)
def make(family: str, d: int) -> CatalogEntry:
    """Build one catalog algebra with verified structure constants."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if d < 1:
        raise ValueError("spatial dimension must be at least 1")
    mats, n = _realization(family, d)
    g = len(mats)
    if g != dim_formula(d):
        raise InternalFault(
            "realization has the wrong number of generators",
            {"family": family, "d": d, "got": g},
        )
    # the matrices and their commutators are integral and sparse: entries
    # lists (r, k, x) for each nonzero entry x at row r, column k, and a
    # flat is the {r * n + k: x} dict of the same entries
    views = [m._integer[1] for m in mats]
    entries = [[(r, k, x) for r, row in enumerate(v) for k, x in row] for v in views]
    flat = [{r * n + k: x for r, k, x in e} for e in entries]
    span = _integer_echelon(n * n, (f.items() for f in flat))
    if len(span.rows) != g:
        raise InternalFault(
            "realization generators are linearly dependent",
            {"family": family, "d": d},
        )
    # the generators' entries at the pivot columns form an invertible
    # minor, whose inverse T / den reads coordinates off those entries
    piv = span.pivots
    small_inv = inverse(
        _integer_mat(g, 1, tuple(_sparse([f.get(p, 0) for f in flat]) for p in piv))
    )
    den = small_inv._integer[0]
    t_cols = dict(zip(piv, small_inv.transpose()._integer[1]))  # by pivot position

    pairs: Dict[Tuple[int, int], tuple] = {}
    for i in range(g):
        for j in range(i + 1, g):
            # the flat of [X_i, X_j] = X_i X_j - X_j X_i
            comm = _summed(
                (r * n + c, sign * x * y)
                for sign, a, b in ((1, i, j), (-1, j, i))
                for r, k, x in entries[a] for c, y in views[b][k]
            )
            if not comm:
                continue
            # the coordinates are T w / den, for w the entries at the pivots
            coords = _summed(
                (k, a * x) for p, x in comm.items() for k, a in t_cols.get(p, ())
            )
            rebuilt = _summed(
                (p, a * x) for k, a in coords.items() for p, x in flat[k].items()
            )
            if rebuilt != {p: den * x for p, x in comm.items()}:
                raise InternalFault(
                    "commutator is not in the generator span",
                    {"family": family, "d": d, "pair": (i, j)},
                )
            pairs[(i, j)] = tuple(sorted(coords.items()))

    s_labels = _pair_labels(d)
    b_labels = [f"B{i}" for i in range(1, d + 1)]
    p_labels = [f"P{i}" for i in range(1, d + 1)]
    labels = s_labels + b_labels + p_labels + ["H"]
    algebra = LieAlgebra._from_integers(labels, den, pairs)
    return CatalogEntry(
        family, d, algebra,
        z_label="H",
        s_labels=s_labels,
        p_labels=b_labels + p_labels,
    )

