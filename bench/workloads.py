"""The three benchmark workloads: inputs, one operation, and the oracle.

Each workload builds its inputs in ``setup`` (untimed; it is part of the
reported set-up time), prepares every operation outside the timed region
with ``prepare``, times only ``execute``, and checks the outcome against
``oracle.json`` with ``check``.  The oracle is data recorded once at the
reference commit; no check asks the code under test what the right answer
is.

Every in-process operation classifies a ``LieAlgebra`` built fresh from
the entry's structure constants.  ``LieAlgebra`` memoises its Killing
form, derived algebra and solvable radical on the instance, and
``catalog.make`` is cached, so classifying the same object twice measures
a warm cache that a user classifying a new input never sees.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
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


def load_oracle() -> dict:
    with open(BENCH_DIR / "oracle.json", encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(result) -> str:
    """sha256 of a report's canonical JSON (the bytes users compare)."""
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def entry_roles(entry):
    """Indices of Z, s and P in a catalog entry's basis."""
    labels = entry.algebra.labels
    return (
        (labels.index(entry.z_label),),
        tuple(labels.index(x) for x in entry.s_labels),
        tuple(labels.index(x) for x in entry.p_labels),
    )


def _pairs(algebra) -> dict:
    n = algebra.dim
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = algebra.structure_constant(i, j)
            if any(v):
                out[(i, j)] = tuple(v)
    return out


@dataclass
class Op:
    """One operation's input.

    ``cli`` operations carry only a document path.  In-process ones carry
    an algebra's structure constants and roles, its family, and the
    factor lam by which the change of basis scaled Z.
    """

    name: str
    path: str = ""
    dim: int = 0
    pairs: dict = field(default_factory=dict)
    labels: list = field(default_factory=list)
    roles: tuple = ()
    family: str = ""
    lam: int = 1


class InProcess:
    """Shared body of the two workloads that call ``classify`` directly."""

    def digest(self, result):
        return report_digest(result)

    def prepare(self, op):
        from kinsila.liecore import LieAlgebra

        return LieAlgebra(op.dim, op.pairs, op.labels), op.roles

    def execute(self, prepared):
        from kinsila.kinematics import classify

        algebra, (z, s, p) = prepared
        return classify(algebra, z, s, p)


class Catalog(InProcess):
    """All eight families at d = 4, 5, 6 in the catalog's own basis."""

    name = "catalog"
    dims = (4, 5, 6)

    def op_names(self):
        return [f"{f}_d{d}" for d in self.dims for f in FAMILIES]

    def setup(self, names, seed):
        from kinsila import catalog

        ops = []
        for name in names:
            family, d = name.rsplit("_d", 1)
            entry = catalog.make(family, int(d))
            alg = entry.algebra
            ops.append(Op(name, dim=alg.dim, pairs=_pairs(alg),
                          labels=list(alg.labels), roles=entry_roles(entry),
                          family=family))
        return ops

    def check(self, op, result, oracle):
        want = oracle["catalog"][op.name]
        label = oracle["labels"][op.family]
        if result.label != label:
            return f"label {result.label!r}, expected {label!r}"
        if report_digest(result) != want["digest"]:
            return "report bytes differ from the recorded report"
        return None


def _inverse(rows):
    """Exact inverse of a small invertible matrix (Gauss-Jordan)."""
    k = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
            for i, row in enumerate(rows)]
    for col in range(k):
        piv = next(i for i in range(col, k) if work[i][col])
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(k):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return [row[k:] for row in work]


def mixing_block(rng, k):
    """A k x k unimodular integer matrix with entries in {-1, 0, 1}.

    Unit lower-triangular with one +-1 below the diagonal in each row
    after the first, then rows and columns permuted by one permutation
    (a relabeling of the block's basis), so the block stays invertible
    over the integers.
    """
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for i in range(1, k):
        rows[i][rng.randrange(i)] = rng.choice((-1, 1))
    perm = list(range(k))
    rng.shuffle(perm)
    return [[rows[perm[a]][perm[b]] for b in range(k)] for a in range(k)]


def rebase(dim, pairs, roles, rng):
    """Structure constants after a seeded role-preserving change of basis.

    The new basis is Z' = lam Z, s' = A s, P' = B P with A, B from
    mixing_block and lam in {+-2, +-3}.  Returns (pairs, lam).
    """
    (z,), s_idx, p_idx = roles
    lam = rng.choice((2, 3)) * rng.choice((1, -1))
    m = [[Fraction(0)] * dim for _ in range(dim)]     # columns: new basis
    minv = [[Fraction(0)] * dim for _ in range(dim)]
    m[z][z] = Fraction(lam)
    minv[z][z] = Fraction(1, lam)
    for idx in (s_idx, p_idx):
        block = mixing_block(rng, len(idx))
        inv = _inverse(block)
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                m[i][j] = Fraction(block[a][b])
                minv[i][j] = inv[a][b]
    cols = [[m[r][c] for r in range(dim)] for c in range(dim)]
    tensor = {}
    for (i, j), v in pairs.items():
        tensor[(i, j)] = v
        tensor[(j, i)] = tuple(-x for x in v)
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            old = [Fraction(0)] * dim     # [e'_i, e'_j] in the old basis
            for a, ca in enumerate(cols[i]):
                if not ca:
                    continue
                for b, cb in enumerate(cols[j]):
                    v = tensor.get((a, b)) if cb else None
                    if v:
                        f = ca * cb
                        for c, x in enumerate(v):
                            if x:
                                old[c] += f * x
            new = tuple(sum((minv[r][c] * old[c] for c in range(dim) if old[c]),
                            Fraction(0)) for r in range(dim))
            if any(new):
                out[(i, j)] = new
    return out, lam


class Rebased(InProcess):
    """The eight d = 4 families after seeded role-preserving changes of basis.

    Each family is drawn ``draws`` times per pass, every draw from its
    own generator seeded by (seed, family, draw), so the inputs depend on
    the seed alone and the cost of one unlucky draw is diluted.
    """

    name = "rebased"
    draws = 4

    def op_names(self):
        return [f"{f}_d4#{k}" for k in range(self.draws) for f in FAMILIES]

    def setup(self, names, seed):
        from kinsila import catalog

        ops = []
        for name in names:
            family, k = name.split("_d4#")
            entry = catalog.make(family, 4)
            alg = entry.algebra
            roles = entry_roles(entry)
            rng = random.Random(f"{seed}:{family}:{k}")
            pairs, lam = rebase(alg.dim, _pairs(alg), roles, rng)
            ops.append(Op(name, dim=alg.dim, pairs=pairs,
                          labels=list(alg.labels), roles=roles,
                          family=family, lam=lam))
        return ops

    def check(self, op, result, oracle):
        want = oracle["catalog"][f"{op.family}_d4"]
        label = oracle["labels"][op.family]
        if result.label != label:
            return f"label {result.label!r}, expected {label!r}"
        for key in ("radical_case", "radical_dim", "z_action", "holonomy_dim"):
            if getattr(result, key) != want[key]:
                return f"{key} {getattr(result, key)!r}, expected {want[key]!r}"
        if want["mu"] is None:
            if result.mu is not None:
                return f"mu {result.mu}, expected none"
        elif result.mu != op.lam ** 2 * Fraction(want["mu"]):
            return f"mu {result.mu}, expected {op.lam ** 2 * Fraction(want['mu'])}"
        return None


# stderr prefixes of kinsila.cli.main, mapped to the error code checked
_STDERR_CODES = (
    ("not a generalized kinematical algebra: ", None),
    ("not a Lie algebra: ", "JACOBI"),
    ("document error: ", "DOCUMENT"),
)


def error_code(stderr: str):
    first = stderr.splitlines()[0] if stderr else ""
    for prefix, code in _STDERR_CODES:
        if first.startswith(prefix):
            return code or first[len(prefix):].strip()
    return None


def cli_documents():
    """(name, document) for every input of the cli workload."""
    from kinsila import catalog
    from kinsila.documents import entry_to_document

    docs = []
    for d in (4, 3):
        for family in FAMILIES:
            docs.append((f"{family}_d{d}",
                         entry_to_document(catalog.make(family, d))))
    base = entry_to_document(catalog.make("poincare", 4))
    broken = json.loads(json.dumps(base))
    # [J1_2, J1_3] = -J2_3 becomes -2 J2_3: so(4) no longer closes
    term = broken["brackets"][0]["result"][0]
    term["coeff"] = str(2 * Fraction(term["coeff"]))
    docs.append(("poincare_d4_jacobi_break", broken))
    inexact = json.loads(json.dumps(base))
    inexact["brackets"][0]["result"][0]["coeff"] = float(
        Fraction(inexact["brackets"][0]["result"][0]["coeff"]))
    docs.append(("poincare_d4_float_coeff", inexact))
    return docs


class Cli:
    """Fresh ``python -m kinsila.cli classify FILE --json`` processes.

    The traced run calls ``kinsila.cli.main`` in-process instead, because
    spans cannot be taken inside a child process from outside.
    """

    name = "cli"

    def __init__(self, src: Path, traced: bool):
        self.src = src
        self.traced = traced
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["NO_COLOR"] = "1"
        self.env = env

    def op_names(self):
        names = [f"{f}_d{d}" for d in (4, 3) for f in FAMILIES]
        return names + ["poincare_d4_jacobi_break", "poincare_d4_float_coeff"]

    def setup(self, names, seed):
        doc_dir = OUT_DIR / "docs"
        doc_dir.mkdir(parents=True, exist_ok=True)
        wanted = set(names)
        ops = []
        for name, doc in cli_documents():
            if name not in wanted:
                continue
            path = doc_dir / f"{name}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
            ops.append(Op(name, path=str(path)))
        return ops

    def prepare(self, op):
        return ["classify", op.path, "--json"]

    def execute(self, argv):
        if not self.traced:
            proc = subprocess.run(
                [sys.executable, "-m", "kinsila.cli", *argv],
                capture_output=True, text=True, env=self.env, check=False)
            return proc.returncode, proc.stdout, proc.stderr
        from kinsila.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def digest(self, outcome):
        code, stdout, stderr = outcome
        text = json.dumps([code, stdout, error_code(stderr)])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def check(self, op, outcome, oracle):
        code, stdout, stderr = outcome
        want = oracle["cli"][op.name]
        if code != want["exit"]:
            return f"exit {code}, expected {want['exit']}: {stderr.strip()[:200]}"
        if "stdout_sha256" in want:
            got = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            if got != want["stdout_sha256"]:
                return "stdout differs from the recorded report"
        elif error_code(stderr) != want["error"]:
            return f"error {error_code(stderr)!r}, expected {want['error']!r}"
        return None
