"""The classification depends on the subspaces Z, s, P, not on the order
in which a document lists its basis or its roles, nor on the basis.

Reordering `roles.s` or `roles.P` leaves the report byte for byte the
same.  Reordering `basis` moves the P coordinates, so the fields written
in them (omega, certificates) follow the new order, while every field
listed in BASIS_INDEPENDENT stays the same.  A role-preserving change of
basis that scales Z by lam keeps the label and the radical, Z-action and
holonomy data, and multiplies mu by lam^2.
"""

import functools
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest

from conftest import (
    assert_greedy_generators,
    bench_workloads,
    heisenberg_like,
    structure_pairs,
    workload_rebase,
)
from kinsila import catalog
from kinsila.cli import main
from kinsila.documents import entry_to_document
from kinsila.kinematics import classify, validate
from kinsila.liecore import LieAlgebra

SEED = 4404

BASIS_INDEPENDENT = (
    "label",
    "validation",
    "sigma_check",
    "radical_case",
    "radical_dim",
    "z_action",
    "holonomy_dim",
    "flat",
    "indecomposable",
    "mu_sign",
)


def shuffled(rng, items):
    """A permutation of items other than the identity (items has two or
    more distinct elements)."""
    while True:
        out = rng.sample(items, len(items))
        if out != items:
            return out


@functools.lru_cache(maxsize=None)
def json_report(text):
    """The `classify --json` report of a document given as JSON text."""
    with tempfile.TemporaryDirectory() as tmp:
        doc, out = os.path.join(tmp, "doc.json"), os.path.join(tmp, "report.json")
        with open(doc, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["classify", doc, "--json", "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            return fh.read()


def catalog_document(family):
    return entry_to_document(catalog.make(family, 4))


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_role_order_leaves_report_bytes(family):
    rng = random.Random(f"{SEED}-roles-{family}")
    doc = catalog_document(family)
    base = json_report(json.dumps(doc))
    for key in ("s", "P"):
        doc["roles"][key] = shuffled(rng, doc["roles"][key])
    assert json_report(json.dumps(doc)) == base


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_basis_order_leaves_basis_independent_fields(family):
    rng = random.Random(f"{SEED}-basis-{family}")
    doc = catalog_document(family)
    base = json.loads(json_report(json.dumps(doc)))
    doc["basis"] = shuffled(rng, doc["basis"])
    moved = json.loads(json_report(json.dumps(doc)))
    assert {k: moved.get(k) for k in BASIS_INDEPENDENT} == {
        k: base.get(k) for k in BASIS_INDEPENDENT
    }


def test_cli_classifies_a_reordered_document(tmp_path):
    rng = random.Random(SEED)
    doc = catalog_document("poincare")
    doc["basis"] = shuffled(rng, doc["basis"])
    for key in ("s", "P"):
        doc["roles"][key] = shuffled(rng, doc["roles"][key])
    path = tmp_path / "reordered.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "kinsila.cli", "classify", str(path), "--json"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stdout)["label"] == "poincare-type"


def rebased(family):
    """(catalog d = 4 entry, roles, the entry's algebra after the seeded
    change of basis Z' = lam Z, s' = A s, P' = B P with unimodular
    {-1, 0, 1} blocks A, B, lam)."""
    entry = catalog.make(family, 4)
    alg = entry.algebra
    roles = entry.roles()
    rng = random.Random(f"{SEED}-rebase-{family}")
    moved_pairs, lam = workload_rebase(alg, roles, rng)
    assert moved_pairs != structure_pairs(alg)
    return entry, roles, LieAlgebra(alg.dim, moved_pairs, list(alg.labels)), lam


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_change_of_basis_keeps_invariants_and_scales_mu(family):
    entry, roles, moved_alg, lam = rebased(family)
    base = classify(entry.algebra, *roles)
    moved = classify(moved_alg, *roles)
    for key in ("label", "radical_case", "radical_dim", "z_action", "holonomy_dim"):
        assert getattr(moved, key) == getattr(base, key), key
    if base.mu is None:
        assert moved.mu is None
    else:
        assert moved.mu == lam ** 2 * base.mu


def test_change_of_basis_keeps_the_heisenberg_certificates_seeded():
    # the invariant complement of the radical is not canonical, but every
    # choice satisfies the four certificate checks
    alg = heisenberg_like()
    roles = ([0], [1], [2, 3, 4, 5])
    rng = random.Random(f"{SEED}-rebase-heisenberg")
    for _ in range(5):
        moved_pairs, _ = workload_rebase(alg, roles, rng)
        r = classify(LieAlgebra(alg.dim, moved_pairs, list(alg.labels)), *roles)
        assert r.label == "flat-heisenberg"
        assert r.radical_dim == 2
        assert all(r.certificates[key] is True for key in (
            "complement_brackets_span_center",
            "center_acts_trivially",
            "radical_commutes_with_complement",
            "radical_abelian",
        ))


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_p_module_bracket_condition_holds_without_its_check(family):
    # validate builds P as an s-module unchecked, because the bracket
    # condition is the Jacobi identity restricted to s and P; check it here
    _, roles, moved_alg, _ = rebased(family)
    algebras = [(moved_alg, roles)]
    for d in (4, 5):
        e = catalog.make(family, d)
        algebras.append((e.algebra, bench_workloads().entry_roles(e)))
    for alg, alg_roles in algebras:
        validate(alg, *alg_roles).p_rep._validate()


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_generators_of_a_rebased_s_generate_it(family):
    # a change of basis mixes the rotations of s = so(4), and two mixed
    # rotations may already generate it, against three in the catalog basis
    _, roles, moved_alg, _ = rebased(family)
    s_algebra = validate(moved_alg, *roles).s_algebra
    assert 2 <= len(assert_greedy_generators(s_algebra)) <= 3
