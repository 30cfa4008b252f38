"""Validation and symplectic classification of kinematical Lie algebras.

The pipeline: validate the decomposition against the defining conditions,
build the canonical involution, extract the central-component two-form
and its radical, measure holonomy of the transvection algebra, split the
action of the central element into semisimple and nilpotent parts, and
classify.  Statements that are theorems for validated inputs are still
re-checked; their failure raises InternalFault, never a validation error.
The exceptions are the Jacobi identity, checked when the LieAlgebra was
built, on s (its s x s block once s closes) and on the action of s on P
(the bracket condition, once ad s maps P into P): neither is checked a
second time.  Nor are these, each established before it is used:
  - V is simple (step 6): step 5 recorded its proof as `Rep.simplicity`;
  - the two-form is antisymmetric: every `LieAlgebra` constructor fills
    its table antisymmetrically;
  - the radical of the two-form brackets P into s: step 10 puts [P, P]
    in Z + s, and its Z coordinate is the two-form;
  - a radical of half of P is a copy of V: an s-submodule, the form being
    invariant, of V + V (step 5) of the dimension of V;
  - the grading in `kahler_split`: [g0, g0] in g0 is steps 2 and 3,
    [g0, g+-] in g+- its stable-under-fixed-part check, and [g+, g-] in
    g0 the step-10 grading; only [g+, g+] and [g-, g-] are bracketed;
  - a = ad(Z)|P commutes with the action of s, by Jacobi and step 3;
  - a semisimple central action has a nonzero square (`z_action_split`);
  - faithfulness on V (step 7): it is asked of P, whose matrices are
    read off the table, as ker rho_P = ker rho_V meet ker rho_W and W is
    a copy of V (step 5), so ker rho_W = ker rho_V.
Invariance and intertwining are asked of the Lie generators of s only:
a subspace or map compatible with rho(x) and rho(y) is compatible with
rho([x, y]).

sigma, -1 on P and +1 on h = Z + s, is an automorphism (step 10), so
every subspace built from brackets is graded by it.  The Killing form
has K(h, P) = 0, as K(sigma x, sigma y) = K(x, y), and [g, g] and rad g
are each an h part plus a P part, so the Poincare certificate's radical
is computed on the two blocks apart (`LieAlgebra.solvable_radical` with
sigma's signs).  Two subspaces whose rows live on disjoint sets of
indices, such as h's and P's, are added by putting their rows together
(`Subspace.direct_sum`): T = [P, P] + P, [T, T] = [P, P] + (ad u)P, the
Levi factor s + L, and g0 = Z + s in `kahler_split`.

A document assigns its roles to basis vectors, so Z, s and P are
coordinate subspaces, and the reduced echelon basis of each is its basis
vectors in index order.  Every stage reads role-level facts straight from
blocks of the structure-constant table over the sorted role indices: s
as a Lie algebra from the s x s block (step 2), the brackets of Z with s
from Z's row (step 3), the action of s on P from the s x P block (step
4), the grading from the support of every nonzero structure constant
(step 10), a = ad(Z)|P from the Z x P block, the two-form from the P x P
block at Z, [P, P] from the P x P rows, [T, T] and the centralizer of P
in [P, P] from a and the action of s on P, the ideal test of P + Z from
supports, P's meet with the radical from the radical's rows that lie in
P, and the sigma-stable Levi factor through s as s plus an invariant
complement of that meet in P on which the two-form vanishes, from one
solve over Hom_s (`_levi_factor`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    DecompositionError,
    InternalFault,
    SimplicityUndecided,
    ValidationError,
)
from .exactla import (
    _ZERO,
    _flat,
    _integer_echelon,
    _integer_kernel,
    _integer_mat,
    _sparse,
    _unlimited_digits,
    Echelon,
    Mat,
    Subspace,
    is_nilpotent,
    is_semisimple,
    kernel,
    rank,
    sn_decomposition,
    solve_combination,
    sqrt_rational,
)
from .liecore import LieAlgebra, _sign_parts
from .repth import (
    Rep,
    _combination,
    _generator_mats,
    certify_copy,
    hom_space,
    invariant_complement,
    is_faithful,
    nondegenerate_invariant_form,
    rep_on_subspace,
    simple_decomposition,
    wedge_square,
)

LABELS = frozenset({
    "flat-rad-equals-P",
    "flat-heisenberg",
    "flat-other",
    "three-graded-para-kahler",
    "pseudo-kahler",
    "poincare-type",
    "unclassified",
})


class KinStructure(NamedTuple):
    """A validated decomposition plus everything derived during validation."""

    algebra: LieAlgebra
    z_space: Subspace
    s_space: Subspace
    p_space: Subspace
    s_algebra: LieAlgebra
    p_rep: Rep                    # action of s on P, in P coordinates
    a_matrix: Mat                 # ad of the central vector on P, P coordinates
    parts: List[Subspace]         # two simple summands of P, in P coordinates
    v_rep: Rep                    # action on parts[0] in its echelon basis
    invariant_form: Optional[Mat]
    sigma: Mat
    items: Tuple[Tuple[str, bool], ...]


class SymplecticData(NamedTuple):
    omega: Mat                    # in P coordinates
    radical: Subspace             # in P coordinates
    radical_case: str             # "zero" | "module" | "all"


class TransvectionData(NamedTuple):
    pp: Subspace                  # [P, P], ambient
    transvection: Subspace        # [P, P] + P, ambient
    derived: Subspace             # [T, T] for T the transvection algebra, ambient
    centralizer: Subspace         # elements of [P, P] commuting with P, ambient
    holonomy_dim: int
    flat: bool


class ZActionData(NamedTuple):
    a_matrix: Mat                 # ad of the central vector on P, P coordinates
    s_part: Mat
    n_part: Mat
    kind: str                     # "zero" | "nilpotent" | "semisimple" | "mixed"
    square: Mat                   # a_matrix @ a_matrix
    mu: Fraction                  # trace(square) / dim P: the scalar, if square is one


class KahlerData(NamedTuple):
    label: str
    mu: Fraction
    certificates: Dict[str, object]
    notes: List[str]


class PoincareData(NamedTuple):
    passed: bool
    items: List[Tuple[str, bool, str]]
    levi: Optional[Subspace] = None   # the sigma-stable Levi factor through s, ambient


class ClassificationResult(NamedTuple):
    label: str
    validation_items: Tuple[Tuple[str, bool], ...]
    radical_case: str
    radical_dim: int
    z_action: str
    holonomy_dim: int
    flat: bool
    indecomposable: Optional[bool]
    certificates: Dict[str, object]
    notes: List[str]
    omega: Optional[Mat] = None
    mu: Optional[Fraction] = None
    poincare_items: Optional[List[Tuple[str, bool, str]]] = None

    @_unlimited_digits()
    def to_dict(self) -> dict:
        def enc(x):
            if isinstance(x, Fraction):
                return str(x)
            if isinstance(x, Mat):
                return [[str(c) for c in row] for row in x.entries]
            if isinstance(x, Subspace):
                return [[str(c) for c in row] for row in x.basis]
            if isinstance(x, (list, tuple)):
                return [enc(y) for y in x]
            if isinstance(x, dict):
                return {k: enc(v) for k, v in x.items()}
            return x

        out = {
            "label": self.label,
            "validation": [[name, ok] for name, ok in self.validation_items],
            # validate raised unless sigma is an involutive automorphism
            "sigma_check": {"involutive": True, "automorphism": True},
            "radical_case": self.radical_case,
            "radical_dim": self.radical_dim,
            "z_action": self.z_action,
            "holonomy_dim": self.holonomy_dim,
            "flat": self.flat,
            "indecomposable": (
                self.indecomposable
                if self.indecomposable is not None
                else "not determined"
            ),
            "notes": list(self.notes),
        }
        if self.omega is not None:
            out["omega"] = enc(self.omega)
        if self.mu is not None:
            out["mu"] = str(self.mu)
            out["mu_sign"] = 1 if self.mu > 0 else -1
        if self.certificates:
            out["certificates"] = enc(self.certificates)
        if self.poincare_items is not None:
            out["poincare_certificate"] = [
                [name, ok, note] for name, ok, note in self.poincare_items
            ]
        return out


# ---------------------------------------------------------------------------
# validation

_CHECKS = (
    ("partition", "NOT_A_PARTITION"),
    ("z-line", "Z_NOT_LINE"),
    ("s-subalgebra", "S_NOT_SUBALGEBRA"),
    ("z-centralizes-s", "Z_NOT_CENTRALIZING"),
    ("p-module", "P_NOT_MODULE"),
    ("p-two-simple-copies", "P_NOT_TWO_COPIES"),
    ("v-simple", "V_NOT_SIMPLE"),
    ("v-faithful", "V_NOT_FAITHFUL"),
    ("wedge-condition", "WEDGE_CONDITION_FAILS"),
    ("invariant-form", "NO_INVARIANT_FORM"),
    ("sigma-involution", "SIGMA_NOT_AUTOMORPHISM"),
)


def canonical_involution(algebra: LieAlgebra, p_indices: Sequence[int]) -> Mat:
    """The map negating the momenta and fixing every other basis vector
    (the central line and the rotations, once the roles partition the
    basis).

    Verified (not assumed) to be an involutive automorphism, by the
    support of the structure constants (`LieAlgebra._graded`); when the
    input brackets break the grading this raises a validation error with
    code SIGMA_NOT_AUTOMORPHISM.
    """
    p_set = set(p_indices)
    sign = [-1 if i in p_set else 1 for i in range(algebra.dim)]
    if not algebra._graded(sign):
        raise ValidationError(
            "SIGMA_NOT_AUTOMORPHISM",
            "the grading involution is not an automorphism of the bracket",
        )
    return _integer_mat(algebra.dim, 1, tuple(((i, e),) for i, e in enumerate(sign)))


def _ad_block(
    algebra: LieAlgebra, x: int, cols: Sequence[int], pos: Dict[int, int]
) -> Optional[Mat]:
    """ad e_x on the span of the basis vectors at the sorted indices
    `cols`, in their coordinates, read from the structure constants; None
    when a bracket has a component outside that span.  `pos` maps each
    index of `cols` to its place there."""
    si = algebra._struct[x]
    acc = [[] for _ in cols]
    for b, j in enumerate(cols):
        for m, c in si.get(j, ()):
            k = pos.get(m)
            if k is None:
                return None
            acc[k].append((b, c))
    return _integer_mat(len(cols), algebra._den, tuple(map(tuple, acc)))


def _coordinate_ideal(algebra: LieAlgebra, indices: Sequence[int]) -> bool:
    """Whether the basis vectors at `indices` span an ideal: every nonzero
    [e_i, e_j] with j among them has its support among them."""
    inside = set(indices)
    return all(m in inside for si in algebra._struct for j, row in si.items()
               if j in inside for m, _ in row)


def validate(
    algebra: LieAlgebra,
    z_indices: Sequence[int],
    s_indices: Sequence[int],
    p_indices: Sequence[int],
) -> KinStructure:
    """Check the defining conditions, in order, with a typed failure.

    Raises ValidationError carrying the code of the first failed check
    and the ordered (check, passed) pairs evaluated up to that point.
    Returns the structure object all later stages consume.
    """
    n = algebra.dim
    items: List[Tuple[str, bool]] = []

    def fail(pos: int, message: str):
        name, code = _CHECKS[pos]
        items.append((name, False))
        raise ValidationError(code, message, items)

    def ok(pos: int):
        items.append((_CHECKS[pos][0], True))

    # 0: the three role sets partition the basis
    all_idx = list(z_indices) + list(s_indices) + list(p_indices)
    if (
        len(set(all_idx)) != len(all_idx)
        or sorted(all_idx) != list(range(n))
        or not z_indices
        or not p_indices
    ):
        fail(0, "role indices must partition the basis, with z and p nonempty")
    ok(0)

    # 1: the marked center is a line
    if len(z_indices) != 1:
        fail(1, f"the central component must be one-dimensional, got {len(z_indices)}")
    ok(1)
    z_space = Subspace.coordinate(n, z_indices)
    s_space = Subspace.coordinate(n, s_indices)
    p_space = Subspace.coordinate(n, p_indices)
    (zi,), s_idx, p_idx = z_space.pivots, s_space.pivots, p_space.pivots
    s_pos = {i: k for k, i in enumerate(s_idx)}
    p_pos = {i: k for k, i in enumerate(p_idx)}
    struct = algebra._struct

    # 2: s closes under the bracket, so its block is a table that obeys Jacobi
    s_struct = [{} for _ in s_idx]
    for a, x in enumerate(s_idx):
        for y, row in struct[x].items():
            if y in s_pos:
                if any(m not in s_pos for m, _ in row):
                    fail(2, "the rotation component is not a subalgebra")
                s_struct[a][s_pos[y]] = tuple((s_pos[m], c) for m, c in row)
    s_algebra = LieAlgebra._from_block(algebra._den, s_struct)
    ok(2)

    # 3: the central line commutes with s
    if any(j in s_pos for j in struct[zi]):
        fail(3, "the central line does not commute with the rotation subalgebra")
    ok(3)

    # 4: P is an s-module
    p_mats = [_ad_block(algebra, x, p_idx, p_pos) for x in s_idx]
    if None in p_mats:
        fail(4, "the bracket of a rotation with a momentum leaves the momentum space")
    ok(4)
    # rho([x, y]) = [rho x, rho y] needs no check: it is the Jacobi identity,
    # checked when the algebra was built, with s closed (step 2) and ad x
    # mapping P into P (above)
    p_rep = Rep(s_algebra, p_mats, check=False, dim=p_space.dim)

    # 5: P is a sum of two isomorphic simple modules
    try:
        parts = simple_decomposition(p_rep)
    except DecompositionError as exc:
        fail(5, f"the momentum module does not split: {exc}")
    except SimplicityUndecided as exc:
        # V + V for a simple V has the commutant M_2(End_s V), of dimension
        # 4 dim End_s V; any other dimension proves P is not two copies.
        # is_simple(P) raises with dim End_s P, and a piece's raise does not
        commutant = exc.commutant if exc.module is p_rep else len(hom_space(p_rep, p_rep))
        if commutant % 4:
            fail(5, f"the momentum module has a commutant of dimension "
                    f"{commutant}, which two copies of a simple module never have")
        raise
    if len(parts) != 2 or parts[0].dim != parts[1].dim:
        fail(
            5,
            f"the momentum module splits into {len(parts)} simple pieces of "
            f"dimensions {[q.dim for q in parts]}, not two of equal dimension",
        )
    # the decomposition offered the second piece an intertwiner from the
    # first, so it is a copy of the first exactly when they are isomorphic
    v_rep, w_rep = parts.modules
    if w_rep.simplicity.source is not v_rep:
        fail(5, "the two simple pieces of the momentum module are not isomorphic")
    ok(5)

    # 6: the summand is simple, as proved by the decomposition (step 5)
    if v_rep.simplicity is None:
        raise InternalFault("validate step 6: V has no simplicity certificate")
    ok(6)

    # 7: the action on the summand is faithful, asked of P (module docstring)
    if not is_faithful(p_rep):
        fail(7, "the rotation subalgebra does not act faithfully on the summand")
    ok(7)

    # 8: no copy of the summand inside its own exterior square
    if v_rep.dim >= 2 and hom_space(v_rep, wedge_square(v_rep)):
        fail(
            8,
            "the exterior square of the summand contains a copy of the summand",
        )
    ok(8)

    # 9: an invariant nondegenerate symmetric form on the summand
    form = nondegenerate_invariant_form(v_rep)
    if form is None:
        fail(9, "no invariant nondegenerate symmetric form on the summand")
    ok(9)

    # 10: the grading involution is an involutive automorphism
    try:
        sigma = canonical_involution(algebra, p_indices)
    except ValidationError:
        fail(10, "the grading involution is not an automorphism of the bracket")
    ok(10)

    # never None: step 10 puts every component of [Z, P] in P
    a_matrix = _ad_block(algebra, zi, p_idx, p_pos)

    return KinStructure(
        algebra=algebra,
        z_space=z_space,
        s_space=s_space,
        p_space=p_space,
        s_algebra=s_algebra,
        p_rep=p_rep,
        a_matrix=a_matrix,
        parts=parts,
        v_rep=v_rep,
        invariant_form=form,
        sigma=sigma,
        items=tuple(items),
    )


# ---------------------------------------------------------------------------
# the central two-form

def omega_and_radical(structure: KinStructure) -> SymplecticData:
    """Two-form on P reading off the central component of brackets.

    Invariance under the fixed subalgebra and the radical trichotomy are
    theorems here, so violations raise InternalFault.
    """
    alg = structure.algebra
    struct = alg._struct
    zi = structure.z_space.pivots[0]
    p_idx = structure.p_space.pivots
    dp = len(p_idx)
    # omega(x, y) = [x, y] at Z: the P x P block of the structure constants at Z
    omega = _integer_mat(dp, alg._den, tuple(
        tuple([(b, c) for b, y in enumerate(p_idx)
               for m, c in struct[x].get(y, ()) if m == zi])
        for x in p_idx
    ))

    # invariance under z and the s generators: rho(x), rho(y) give rho([x, y])
    actors = [("z", structure.a_matrix)]
    actors += [(f"s{k}", structure.p_rep.mats[k])
               for k in structure.s_algebra.generators()]
    for name, m in actors:
        if not (m.transpose() @ omega + omega @ m).is_zero():
            raise InternalFault(
                "central two-form is not invariant",
                {"actor": name, "matrix": m.entries},
            )

    rad = kernel(omega)
    if rad.dim == 0:
        case = "zero"
    elif rad.dim == dp:
        case = "all"
    else:
        if 2 * rad.dim != dp:
            raise InternalFault(
                "two-form radical breaks the trichotomy",
                {"radical_dim": rad.dim, "p_dim": dp},
            )
        case = "module"
    return SymplecticData(omega=omega, radical=rad, radical_case=case)


# ---------------------------------------------------------------------------
# transvection algebra and holonomy

def transvection_and_holonomy(structure: KinStructure) -> TransvectionData:
    """[P, P] + P with the dimension of its action modulo the inert part.

    Step 10 of `validate` grades g, so [P, P] lies in h = Z + s, and for u
    = u_Z z + sum_k u_k s_k there ad u restricted to P is u_Z a + sum_k
    u_k rho(s_k), read from the matrices validation built; a row of [P, P]
    with a component in P raises InternalFault.  No ambient bracket is
    taken:
      - [T, T] for T = [P, P] + P is [P, P] + the span of the (ad u)P,
        since [[P, P], [P, P]] lies in [P, P] by the Jacobi identity,
        checked when the algebra was built, and [h, P] in P, and the two
        parts meet in zero; so [T, T] lies in T by construction, and T is
        a subalgebra with no further check;
      - the centralizer of P in [P, P] is the kernel of u -> ad u|P.
    """
    alg = structure.algebra
    p_idx = structure.p_space.pivots
    dp = len(p_idx)
    # [P, P]: the span of the P x P rows of the structure constants
    pp = _integer_echelon(alg.dim, (
        alg._struct[x][y] for a, x in enumerate(p_idx) for y in p_idx[a + 1:]
        if y in alg._struct[x]
    )).subspace()
    # ad of each basis vector of h on P, flattened row by row over one
    # denominator; the coordinates of u are integers, so ad u|P = sum u_i M_i
    acting = dict(zip(structure.s_space.pivots, structure.p_rep.mats))
    acting[structure.z_space.pivots[0]] = structure.a_matrix
    den = math.lcm(*[m._integer[0] for m in acting.values()])
    flats = {i: [(j, x * (den // m._integer[0])) for j, x in enumerate(_flat(m)) if x]
             for i, m in acting.items()}
    ads = []
    for u in pp.rows:
        w = [0] * (dp * dp)
        for i, c in enumerate(u):
            if c:
                f = flats.get(i)
                if f is None:
                    raise InternalFault("a bracket of momenta has a component in P",
                                        {"row": u})
                for j, x in f:
                    w[j] += c * x
        ads.append(w)
    # the columns of each ad u|P are the (ad u) e_p, in P coordinates
    moved = Echelon(dp)
    for w in ads:
        for col in range(dp):
            if len(moved.rows) < dp:
                moved.add_integer(w[col::dp])
    transvection = pp.direct_sum(structure.p_space)
    derived = pp.direct_sum(structure.p_space.embed(moved.subspace()))
    cent = pp.embed(_integer_kernel(len(ads), (
        _sparse([w[j] for w in ads]) for j in range(dp * dp)
    )))
    hol = pp.dim - cent.dim
    return TransvectionData(
        pp=pp,
        transvection=transvection,
        derived=derived,
        centralizer=cent,
        holonomy_dim=hol,
        flat=(hol == 0),
    )


# ---------------------------------------------------------------------------
# the action of the central element on P

def z_action_split(structure: KinStructure) -> ZActionData:
    """Split a = ad(Z0)|P into commuting semisimple and nilpotent parts.

    The kind is read off a and its square a² in three implications:
    a² = mu·1 with mu != 0 makes a semisimple, because t² - mu is
    squarefree and annihilates a; a² = 0 makes a nilpotent; and a
    nilpotent a has a² = 0, because a commutes with s and so is a 2 x 2
    matrix over the division algebra End_s(V), where a nilpotent map of
    a plane squares to zero.  So only when a² is neither 0 nor a scalar
    is the Jordan-Chevalley split computed: a nilpotent result there
    raises InternalFault, and a result with both parts nonzero is kind
    "mixed", which `classify` accepts only when the two-form vanishes
    (with a nondegenerate form a lies in sl2 ⊗ 1 when End_s(V) = Q, so
    a² is a scalar).
    """
    a = structure.a_matrix
    if a.is_zero():
        return ZActionData(a, a, a, "zero", square=a, mu=_ZERO)
    dp = a.rows
    square = a @ a
    zero = Mat.zeros(dp, dp)
    if square.is_zero():
        return ZActionData(a, zero, a, "nilpotent", square=square, mu=_ZERO)
    mu = square.trace() / dp
    if square == Mat.identity(dp).scale(mu):
        return ZActionData(a, a, zero, "semisimple", square=square, mu=mu)
    s_part, n_part = sn_decomposition(a)
    if n_part.is_zero():
        kind = "semisimple"
    elif s_part.is_zero():
        raise InternalFault(
            "nilpotent central action does not square to zero",
            {"a": a.entries},
        )
    else:
        kind = "mixed"
    if not is_semisimple(s_part) or not is_nilpotent(n_part):
        raise InternalFault("split parts fail their defining properties", {})
    return ZActionData(a, s_part, n_part, kind, square=square, mu=mu)


# ---------------------------------------------------------------------------
# semisimple branch

def _lagrangian_pair(
    omega: Mat, first: Subspace, second: Subspace
) -> Tuple[bool, bool]:
    """Whether omega vanishes on each of the two subspaces of P, and
    whether it pairs them with rank half of dim P.

    The Gram matrices are products of the bases' matrices with omega."""

    m1, m2 = first.basis_mat(), second.basis_mat()
    lagrangian = all((m @ omega @ m.transpose()).is_zero() for m in (m1, m2))
    return lagrangian, rank(m1 @ omega @ m2.transpose()) == omega.rows // 2


def kahler_split(
    structure: KinStructure,
    zdata: ZActionData,
    sym: SymplecticData,
) -> KahlerData:
    """Classify a semisimple central action on P.

    The square of the action is a scalar; a positive square with rational
    root gives the two eigenspace certificates, a positive non-square is
    certified symbolically, and a negative scalar gives the complex-like
    structure.
    """
    if zdata.kind != "semisimple":
        raise ValueError("split asked for a non-semisimple action")
    a = zdata.a_matrix
    dp = a.rows
    mu = zdata.mu
    if zdata.square != Mat.identity(dp).scale(mu):
        raise InternalFault(
            "square of the semisimple central action is not scalar",
            {"a_squared": zdata.square.entries},
        )
    certificates: Dict[str, object] = {"a_squared_scalar": mu}
    notes: List[str] = [
        "the scalar square rescales by lambda^2 when the marked central "
        "generator is rescaled by lambda; only its sign is invariant"
    ]
    if mu < 0:
        certificates["complex_like_structure"] = a
        notes.append(
            f"the action squares to {mu} < 0; the normalized structure "
            f"divides by the irrational sqrt({-mu}) and is kept symbolic"
        )
        return KahlerData("pseudo-kahler", mu, certificates, notes)
    root = sqrt_rational(mu)
    if root is None:
        notes.append(
            f"the action squares to {mu} > 0 with irrational root; the "
            f"eigenspace split exists over the extension field and is "
            f"certified here only by the scalar square"
        )
        return KahlerData("three-graded-para-kahler", mu, certificates, notes)
    ident = Mat.identity(dp)
    lpos = kernel(a - ident.scale(root))
    lneg = kernel(a + ident.scale(root))
    checks = {}
    checks["half-dimensions"] = lpos.dim == dp // 2 and lneg.dim == dp // 2
    checks["stable-under-fixed-part"] = all(
        space.matrix_of(m) is not None
        for m in _generator_mats(structure.p_rep) + [a]
        for space in (lpos, lneg)
    )
    g_plus = structure.p_space.embed(lpos)
    g_minus = structure.p_space.embed(lneg)
    checks["eigenspaces-abelian"] = all(
        structure.algebra.is_abelian_space(g) for g in (g_plus, g_minus)
    )
    lagrangian, pairing_ok = _lagrangian_pair(sym.omega, lpos, lneg)
    checks["eigenspaces-lagrangian"] = lagrangian
    checks["duality-pairing-full-rank"] = pairing_ok
    if not all(checks.values()):
        raise InternalFault(
            "eigenspace certificates failed for a semisimple positive square",
            {"checks": checks},
        )
    # the other degrees of the grading are facts already checked:
    # [g0, g0] in g0 is validate steps 2 and 3, [g0, g+-] in g+- is
    # stable-under-fixed-part, and [g+, g-] in g0 is the step-10 grading
    g_zero = structure.z_space.direct_sum(structure.s_space)
    grading = {"-1": g_minus, "0": g_zero, "1": g_plus}
    certificates.update({
        "eigenvalue": root,
        "l_basis": lpos,
        "l_bar_basis": lneg,
        "grading": grading,
        "checks": {k: bool(v) for k, v in checks.items()},
    })
    return KahlerData("three-graded-para-kahler", mu, certificates, notes)


# ---------------------------------------------------------------------------
# nilpotent branch

def _levi_factor(
    structure: KinStructure, omega: Mat, rad: Subspace
) -> Tuple[Optional[Subspace], Subspace, Optional[Subspace], Optional[Rep]]:
    """(l, pr, L, the action on pr) for an abelian radical R and a
    nondegenerate two-form: l is the sigma-stable Levi factor through s,
    or None when none exists; pr = P meet R and L = P meet l, both in P
    coordinates; the action on pr is None unless l is found, and then
    carries pr's certificate as a copy of L0 below.

    The grading splits the ideal R as R_h + pr, R_h = R meet h for
    h = Z + s (`_p_part`), with [P, pr] in R_h.  R = 0 gives l = g.
    R_h = 0 would put pr in the radical of omega, hence R = 0
    (InternalFault otherwise).  A graded l through s meets h in a
    complement of R_h holding s, and dim h = dim s + 1, so l exists only
    when R_h is a line outside s, and is then s + L for an s-invariant
    complement L of pr: a subalgebra exactly when omega vanishes on L,
    since [s, s] lies in s (`validate` step 2) and [L, L] in h with Z
    coordinate omega.  pr is an s-submodule of V + V on which omega
    vanishes ([R, R] = 0), so it is 0, which leaves L = P where omega is
    nondegenerate, or a copy of V.  Then a summand L0 of
    `structure.parts` meeting pr in zero is one such complement, every
    other is the graph of some phi in Hom_s(L0, pr), and as
    omega(phi x, phi y) = 0 the condition omega(x + phi x, y + phi y) = 0
    on pairs of L0's basis is linear in phi: omega|L0 + beta - beta^T = 0
    for beta(x, y) = omega(x, phi y), one solve of the whole antisymmetric
    matrix equation (`solve_combination`).  It always has a solution:
    pr is isotropic of half the dimension of P, so Lagrangian, and omega
    is nondegenerate and s-invariant (`omega_and_radical`), so c ->
    omega(-, c)|L0 is an s-isomorphism of pr onto the dual of L0, and
    phi -> beta identifies Hom_s(L0, pr) with the s-invariant bilinear
    forms on L0, among which beta = -omega|L0 / 2 solves.  A failed solve
    is a failed theorem and raises InternalFault; so once R_h is a line
    outside s and pr is nonzero, l exists.  Hom_s(L0, pr) is solved by
    `certify_copy`, which, pr having L0's dimension, certifies pr as a copy
    of L0 by its first element (Schur's lemma).  That L meets pr in zero,
    is invariant under the generators' matrices and has omega = 0 on it is
    re-checked; a failure raises InternalFault.
    """
    n, dp = structure.algebra.dim, structure.p_space.dim
    meet, pr = _p_part(structure, rad)
    if rad.is_zero():
        return Subspace.full(n), pr, Subspace.full(dp), None
    if meet == rad:
        raise InternalFault("the radical meets h in zero but not P", {"radical_basis": rad.basis})
    # R's rows off P span R_h, which lies in s exactly when they vanish at Z
    zi = structure.z_space.pivots[0]
    if rad.dim - meet.dim != 1 or not any(row[zi] for row in rad.rows) or pr.is_zero():
        return None, pr, None, None
    pr_rep = rep_on_subspace(structure.p_rep, pr)
    for base, base_rep in zip(structure.parts, structure.parts.modules):
        if base.dim + pr.dim == dp and base.sum_with(pr).is_full():
            break
    else:
        raise InternalFault("no summand of P complements its meet with the radical",
                            {"pr_dim": pr.dim})
    homs = certify_copy(base_rep, pr_rep)
    b, c = base.basis_mat(), pr.basis_mat()
    w = b @ omega
    # sum_h x_h (M_h - M_h^T) = -(omega(b_i, b_j)) for M_h = (omega(b_i, c_r)) h,
    # c_r the basis of pr
    w_pr = w @ c.transpose()
    found = solve_combination([m - m.transpose() for m in (w_pr @ h for h in homs)],
                              -(w @ b.transpose()))
    if found is None:
        raise InternalFault("no Lagrangian invariant complement solves although "
                            "-omega/2 on the summand gives one", {"pr_dim": pr.dim})
    # the rows of the graph: b_i + phi b_i = b_i + sum_r phi_ri c_r
    graph = (b + _combination(found.particular, homs).transpose() @ c) if homs else b
    pl = _integer_echelon(dp, graph._integer[1]).subspace()
    if (
        pl.dim != base.dim
        or not pl.sum_with(pr).is_full()
        or any(pl.matrix_of(structure.p_rep.mats[g]) is None
               for g in structure.s_algebra.generators())
        or not (graph @ omega @ graph.transpose()).is_zero()
    ):
        raise InternalFault("the graph found is not a Lagrangian invariant complement",
                            {"basis": pl.basis})
    return structure.s_space.direct_sum(structure.p_space.embed(pl)), pr, pl, pr_rep


def poincare_certificate(
    structure: KinStructure,
    sym: SymplecticData,
    zdata: ZActionData,
    trans: TransvectionData,
) -> PoincareData:
    """Itemized certificate for the nilpotent, nondegenerate case.

    The graded complement through s is the Levi factor `_levi_factor`
    finds.  There is none when the radical R is not abelian (none is
    searched), or when R meets h = Z + s in other than a line outside s,
    or R misses P: a graded l through s meets h in a complement of R meet
    h holding s, so then none exists.  Otherwise `_levi_factor`'s one
    solve always succeeds.
    """
    if zdata.kind != "nilpotent":
        raise ValueError("certificate asked outside the nilpotent case")
    if sym.radical_case != "zero":
        raise ValueError("certificate asked with a degenerate two-form")
    alg = structure.algebra
    items: List[Tuple[str, bool, str]] = []
    dp = structure.p_space.dim

    rad_g = alg.solvable_radical(_sigma_signs(structure), _generating_rows(structure))
    rad_abelian = alg.is_abelian_space(rad_g)
    levi = None
    if rad_abelian:
        levi, pr, pl, pr_rep = _levi_factor(structure, sym.omega, rad_g)
    items.append((
        "radical-abelian",
        rad_abelian,
        f"solvable radical has dimension {rad_g.dim}",
    ))
    if not rad_abelian:
        note = "skipped: the solvable radical is not abelian"
    elif levi is None:
        note = ("no graded complement through the rotations was found by "
                "this method; this is not a proof of absence")
    else:
        note = f"complement of dimension {levi.dim}"
    items.append(("sigma-stable-levi-containing-s", levi is not None, note))

    if levi is None:
        for name in (
            "p-splits-lagrangian-dual",
            "pieces-isomorphic-to-v",
            "bracket-of-pieces-is-z",
            "z-action-maps-one-piece-onto-the-other",
        ):
            items.append((name, False, "skipped: no complement available"))
    else:
        # the dimensions fail only for R = 0, where pr = 0, pl = P and
        # every item below is false
        dims_ok = pr.dim == pl.dim == dp // 2
        lag_ok, pairing_ok = _lagrangian_pair(sym.omega, pr, pl)
        items.append((
            "p-splits-lagrangian-dual",
            dims_ok and lag_ok and pairing_ok,
            f"momentum meets the radical in dim {pr.dim} and the "
            f"complement in dim {pl.dim}",
        ))

        # the rows of pl a^T are the images a b of pl's basis; a commutes
        # with the rotations as ad Z does, [Z, s] = 0 being validate step 3
        image = pl.basis_mat() @ zdata.a_matrix.transpose()
        amap_ok = _integer_echelon(dp, image._integer[1]).subspace() == pr
        # `_levi_factor` certified pr as a copy of the summand it solved
        # from, V or V's certified copy; with amap_ok, a restricted to pl is
        # an exactly checked s-isomorphism onto pr, so pl, a copy of pr
        # along a, is a copy of V exactly when pr is.  Otherwise, pl being
        # of V's dimension, a nonzero element of Hom_s(V, pl) is one
        iso_ok = dims_ok and pr_rep.simplicity is not None and bool(
            amap_ok or certify_copy(structure.v_rep, rep_on_subspace(structure.p_rep, pl))
        )
        items.append((
            "pieces-isomorphic-to-v",
            iso_ok,
            "each piece is simple and admits an intertwiner from the summand",
        ))

        span = alg.bracket_span(structure.p_space.embed(pr), structure.p_space.embed(pl))
        items.append((
            "bracket-of-pieces-is-z",
            span == structure.z_space,
            "bracket of the two pieces spans exactly the central line",
        ))

        items.append((
            "z-action-maps-one-piece-onto-the-other",
            amap_ok,
            "the central action carries the complement piece onto the "
            "radical piece and commutes with the rotations",
        ))

    # T is solvable exactly when [T, T] is, and a nonzero perfect T is not:
    # the derived series goes on from the carried [T, T] only when it is
    # smaller than T
    derived = trans.derived
    not_solvable = (
        derived.dim == trans.transvection.dim and not derived.is_zero()
    ) or not alg.is_solvable_space(derived)
    items.append((
        "transvection-not-solvable",
        not_solvable,
        f"transvection algebra has dimension {trans.transvection.dim}",
    ))
    items.append((
        "holonomy-nonzero",
        trans.holonomy_dim > 0,
        f"holonomy dimension {trans.holonomy_dim}",
    ))

    return PoincareData(passed=all(ok for _, ok, _ in items), items=items, levi=levi)


def _p_part(structure: KinStructure, space: Subspace) -> Tuple[Subspace, Subspace]:
    """P meet `space`, ambient and in P coordinates, for `space` stable
    under sigma (-1 on P, +1 off it): its reduced echelon rows in P
    (`_sign_parts`), read at P's indices; InternalFault when sigma moves
    `space`."""
    p_idx = structure.p_space.pivots
    p_pos = {i: k for k, i in enumerate(p_idx)}
    parts = _sign_parts(space, _sigma_signs(structure))
    if parts is None:
        raise InternalFault(
            "claimed momentum subspace leaves the momentum space",
            {"basis": space.basis},
        )
    meet = parts[-1]
    return meet, Subspace(len(p_idx), tuple(tuple(row[i] for i in p_idx) for row in meet.rows),
                          tuple(p_pos[p] for p in meet.pivots))


def _sigma_signs(structure: KinStructure) -> List[int]:
    """The diagonal entries of sigma: -1 on P, +1 off it."""
    p = set(structure.p_space.pivots)
    return [-1 if i in p else 1 for i in range(structure.algebra.dim)]


def _generating_rows(structure: KinStructure) -> List[List[int]]:
    """Integer rows that generate g under brackets: the Lie generators of
    s, Z, and one vector of each simple summand of P, whose spin under
    the generators of s, a sum of brackets with them, is that summand."""
    n = structure.algebra.dim
    s_idx, p_idx = structure.s_space.pivots, structure.p_space.pivots
    rows = [[int(j == i) for j in range(n)] for i in
            [s_idx[k] for k in structure.s_algebra.generators()] + [structure.z_space.pivots[0]]]
    for part in structure.parts:
        w = [0] * n
        for i, x in zip(p_idx, part.rows[0]):
            w[i] = x
        rows.append(w)
    return rows


# ---------------------------------------------------------------------------
# the classification tree

def classify(
    algebra: LieAlgebra,
    z_indices: Sequence[int],
    s_indices: Sequence[int],
    p_indices: Sequence[int],
) -> ClassificationResult:
    """Validate and classify one algebra.

    ValidationError propagates to the caller; a label of "unclassified"
    still means the input is a valid generalized kinematical algebra.
    """
    structure = validate(algebra, z_indices, s_indices, p_indices)
    sym = omega_and_radical(structure)
    trans = transvection_and_holonomy(structure)
    zdata = z_action_split(structure)

    base = dict(
        validation_items=structure.items,
        omega=sym.omega,
        radical_case=sym.radical_case,
        radical_dim=sym.radical.dim,
        z_action=zdata.kind,
        holonomy_dim=trans.holonomy_dim,
        flat=trans.flat,
        indecomposable=(True if trans.holonomy_dim > 0 else None),
    )

    if sym.radical_case == "all":
        if not trans.pp.is_zero():
            raise InternalFault(
                "brackets of momenta survive although the two-form vanishes",
                {"pp_dim": trans.pp.dim},
            )
        if not _coordinate_ideal(
            algebra, structure.p_space.pivots + structure.z_space.pivots
        ):
            raise InternalFault(
                "momenta plus center fail to form an ideal in the fully "
                "degenerate case",
                {},
            )
        return ClassificationResult(
            label="flat-rad-equals-P",
            certificates={"pp_dim": 0, "p_plus_z_ideal": True},
            notes=["the two-form vanishes identically"],
            **base,
        )

    if zdata.kind == "mixed":
        raise InternalFault(
            "central action has both a semisimple and a nilpotent part",
            {"s": zdata.s_part.entries, "n": zdata.n_part.entries},
        )

    if sym.radical_case == "module":
        certs = _heisenberg_certificates(structure, sym)
        return ClassificationResult(
            label="flat-heisenberg",
            certificates=certs,
            notes=["the two-form degenerates exactly on one simple summand"],
            **base,
        )

    # nondegenerate two-form from here on
    if zdata.kind == "zero" or trans.flat:
        notes = []
        if zdata.kind == "zero":
            notes.append("the central element acts trivially on momenta")
        if trans.flat:
            notes.append("all brackets of momenta act trivially on momenta")
        return ClassificationResult(
            label="flat-other",
            certificates={},
            notes=notes,
            **base,
        )

    if zdata.kind == "semisimple":
        kd = kahler_split(structure, zdata, sym)
        return ClassificationResult(
            label=kd.label,
            mu=kd.mu,
            certificates=kd.certificates,
            notes=kd.notes,
            **base,
        )

    # nilpotent, nondegenerate, non-flat
    pdata = poincare_certificate(structure, sym, zdata, trans)
    if pdata.passed:
        return ClassificationResult(
            label="poincare-type",
            certificates={},
            poincare_items=pdata.items,
            notes=[
                "annotation, recorded and not computed: the associated "
                "symmetric space is modeled on a cotangent bundle with its "
                "canonical symplectic structure; conventions differ on "
                "whether the base is a configuration space or a group "
                "manifold, and this tool verifies neither"
            ],
            **base,
        )
    return ClassificationResult(
        label="unclassified",
        certificates={},
        poincare_items=pdata.items,
        notes=[
            "the central action is nilpotent and the two-form is "
            "nondegenerate, but the itemized certificate did not close"
        ],
        **base,
    )


def _heisenberg_certificates(
    structure: KinStructure, sym: SymplecticData
) -> Dict[str, object]:
    """Certificates for the case where the radical is one simple summand."""
    alg = structure.algebra
    rad = sym.radical
    rad_ambient = structure.p_space.embed(rad)
    comp = invariant_complement(structure.p_rep, rad)
    comp_ambient = structure.p_space.embed(comp)
    ww = alg.bracket_span(comp_ambient, comp_ambient)
    if ww != structure.z_space:
        raise InternalFault(
            "complement brackets do not span exactly the central line",
            {"ww_dim": ww.dim},
        )
    if not structure.a_matrix.is_zero():
        raise InternalFault(
            "central element acts on momenta in the degenerate-summand case",
            {},
        )
    if not alg.bracket_span(rad_ambient, comp_ambient).is_zero():
        raise InternalFault(
            "radical summand does not commute with its complement",
            {},
        )
    if not alg.is_abelian_space(rad_ambient):
        raise InternalFault("radical summand is not abelian", {})
    return {
        "radical_basis": rad,
        "complement_basis": comp,
        "complement_brackets_span_center": True,
        "center_acts_trivially": True,
        "radical_commutes_with_complement": True,
        "radical_abelian": True,
    }
