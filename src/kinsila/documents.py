"""Reading and writing algebra documents.

A document is a JSON object naming a basis, the brackets of basis pairs,
and the role assignment splitting the basis into the central line, the
rotations, and the momenta.  Coefficients are exact: integers or strings
matching p/q.  The formal contract lives in data/input_document.schema.json;
the parser here enforces the same constraints with located error messages
and refuses anything inexact.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .errors import DocumentError
from .exactla import _unlimited_digits, zero_vec
from .liecore import LieAlgebra

RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

_TOP_KEYS = {"name", "basis", "brackets", "roles"}
_ROLE_KEYS = {"Z", "s", "P"}


class ParsedInput(NamedTuple):
    name: str
    algebra: LieAlgebra
    z_indices: Tuple[int, ...]
    s_indices: Tuple[int, ...]
    p_indices: Tuple[int, ...]


def _coeff(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError("coefficient must be an integer or a p/q string",
                            location=where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(
            f"floating point coefficient {value!r} is not exact; use p/q form",
            location=where,
        )
    if isinstance(value, str):
        if not RATIONAL_RE.match(value):
            raise DocumentError(
                f"coefficient {value!r} does not match p/q form",
                location=where,
            )
        return Fraction(value)
    raise DocumentError(
        f"coefficient must be an integer or a p/q string, got {type(value).__name__}",
        location=where,
    )


def _string_list(value, where: str) -> List[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError("expected an array of strings", location=where)
    return value


@_unlimited_digits()
def parse_document(obj) -> ParsedInput:
    """Turn a decoded JSON object into an algebra plus role indices.

    Raises DocumentError for anything malformed.  Jacobi failures
    propagate from the algebra constructor; they are a property of the
    input, not of its encoding.
    """
    if not isinstance(obj, dict):
        raise DocumentError("top level must be a JSON object")
    extra = set(obj) - _TOP_KEYS
    if extra:
        raise DocumentError(f"unknown keys {sorted(extra)}")
    for key in ("basis", "brackets", "roles"):
        if key not in obj:
            raise DocumentError(f"missing required key {key!r}")
    name = obj.get("name", "unnamed")
    if not isinstance(name, str):
        raise DocumentError("name must be a string", location="name")

    basis = _string_list(obj["basis"], "basis")
    if not basis:
        raise DocumentError("basis must be nonempty", location="basis")
    if len(set(basis)) != len(basis):
        raise DocumentError("basis labels must be distinct", location="basis")
    if any(not lbl for lbl in basis):
        raise DocumentError("basis labels must be nonempty strings",
                            location="basis")
    index = {lbl: i for i, lbl in enumerate(basis)}
    n = len(basis)

    if not isinstance(obj["brackets"], list):
        raise DocumentError("expected an array", location="brackets")
    pairs: Dict[Tuple[int, int], tuple] = {}
    for k, item in enumerate(obj["brackets"]):
        where = f"brackets[{k}]"
        if not isinstance(item, dict):
            raise DocumentError("expected an object", location=where)
        if set(item) != {"x", "y", "result"}:
            raise DocumentError("expected exactly the keys x, y, result",
                                location=where)
        for side in ("x", "y"):
            lbl = item[side]
            if not isinstance(lbl, str) or lbl not in index:
                raise DocumentError(f"unknown basis label {lbl!r}",
                                    location=f"{where}.{side}")
        ix, iy = index[item["x"]], index[item["y"]]
        if ix == iy:
            raise DocumentError(
                "bracket of a generator with itself is zero; omit it",
                location=where,
            )
        if not isinstance(item["result"], list):
            raise DocumentError("expected an array", location=f"{where}.result")
        vec = list(zero_vec(n))
        seen = set()
        for m, term in enumerate(item["result"]):
            twhere = f"{where}.result[{m}]"
            if not isinstance(term, dict) or set(term) != {"basis", "coeff"}:
                raise DocumentError(
                    "expected an object with exactly the keys basis, coeff",
                    location=twhere,
                )
            lbl = term["basis"]
            if not isinstance(lbl, str) or lbl not in index:
                raise DocumentError(f"unknown basis label {lbl!r}",
                                    location=f"{twhere}.basis")
            if lbl in seen:
                raise DocumentError(f"coefficient for {lbl!r} given twice",
                                    location=twhere)
            seen.add(lbl)
            vec[index[lbl]] = _coeff(term["coeff"], f"{twhere}.coeff")
        key = (ix, iy) if ix < iy else (iy, ix)
        if key in pairs:
            raise DocumentError(
                f"bracket for the pair ({item['x']!r}, {item['y']!r}) given twice",
                location=where,
            )
        if ix < iy:
            pairs[key] = tuple(vec)
        else:
            pairs[key] = tuple(-c for c in vec)

    roles = obj["roles"]
    if not isinstance(roles, dict) or set(roles) != _ROLE_KEYS:
        raise DocumentError("roles must be an object with exactly the keys "
                            "Z, s, P", location="roles")
    out = {}
    for key in ("Z", "s", "P"):
        labels = _string_list(roles[key], f"roles.{key}")
        idx = []
        for lbl in labels:
            if lbl not in index:
                raise DocumentError(f"unknown basis label {lbl!r}",
                                    location=f"roles.{key}")
            idx.append(index[lbl])
        out[key] = tuple(idx)

    algebra = LieAlgebra(n, pairs, labels=list(basis))
    return ParsedInput(
        name=name,
        algebra=algebra,
        z_indices=out["Z"],
        s_indices=out["s"],
        p_indices=out["P"],
    )


@_unlimited_digits()
def parse_text(text: str) -> ParsedInput:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nested too deeply") from exc
    return parse_document(obj)


def to_document(name: str, algebra: LieAlgebra, z_indices, s_indices,
                p_indices) -> dict:
    """Serialize an algebra with roles; parse_document inverts this."""
    n = algebra.dim
    labels = algebra.labels or [f"e{i}" for i in range(n)]
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            vec = algebra.structure_constant(i, j)
            terms = [
                {"basis": labels[k], "coeff": str(c)}
                for k, c in enumerate(vec) if c
            ]
            if terms:
                brackets.append({"x": labels[i], "y": labels[j],
                                 "result": terms})
    return {
        "name": name,
        "basis": list(labels),
        "brackets": brackets,
        "roles": {
            "Z": [labels[i] for i in z_indices],
            "s": [labels[i] for i in s_indices],
            "P": [labels[i] for i in p_indices],
        },
    }


def entry_to_document(entry) -> dict:
    """Serialize a catalog entry."""
    return to_document(f"{entry.family}_d{entry.d}", entry.algebra, *entry.roles())
