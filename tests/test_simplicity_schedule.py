"""Seeded dense draws and the benchmark inputs, decided without a search.

A dense draw is `bench/workloads.rebase` with its unimodular mixing block
replaced by `dense_block`: off-diagonal entries from {-1, 0, 1}, diagonal
entries from {1, 2}, redrawn until invertible; `dense_rebase` computes
the same structure constants faster.  On the d = 4 draws below
no kernel vector of a generator's matrix, a product of two of them or a
basis matrix of s spins to a proper submodule of P (dimension 8), so P
is decided by its commutant, the quaternion algebra M_2(Q), split at a
point of its conic.

Each draw is checked as the `rebased` workload checks its answers,
against `bench/oracle.json`: the label, the basis-invariant fields, and
mu / lam^2, where the change of basis scales Z by lam.  A dense draw may
report another summand basis than the catalog entry, so the report
digest is not compared.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (
    WORKLOADS, bench_workloads, count_calls, dense_block, dense_rebase, structure_pairs,
)
from kinsila import catalog
from kinsila.kinematics import classify
from kinsila.liecore import LieAlgebra

INVARIANT_FIELDS = ("radical_case", "radical_dim", "z_action", "holonomy_dim")


def classify_dense_draw(family, d, seed):
    """The report of the dense draw of (family, d) seeded by seed; the
    label and the report that the oracle records for the catalog entry;
    and lam."""
    workloads = bench_workloads()
    entry = catalog.make(family, d)
    alg = entry.algebra
    roles = workloads.entry_roles(entry)
    pairs, lam = dense_rebase(alg, roles, random.Random(f"{seed}:{family}"))
    result = classify(LieAlgebra(alg.dim, pairs, list(alg.labels)), *roles)
    oracle = workloads.load_oracle()
    return result, oracle["labels"][family], oracle["catalog"][f"{family}_d{d}"], lam


def assert_family_answer(result, label, want, lam):
    assert result.label == label
    assert {k: getattr(result, k) for k in INVARIANT_FIELDS} == {
        k: want[k] for k in INVARIANT_FIELDS
    }
    if want["mu"] is None:
        assert result.mu is None
    else:
        assert result.mu / lam ** 2 == Fraction(want["mu"])


def test_dense_rebase_is_the_benchmark_change_of_basis(monkeypatch):
    workloads = bench_workloads()
    monkeypatch.setattr(workloads, "mixing_block", dense_block)
    for family in workloads.FAMILIES:
        entry = catalog.make(family, 4)
        roles = workloads.entry_roles(entry)
        alg = entry.algebra
        assert dense_rebase(alg, roles, random.Random(f"0:{family}")) == workloads.rebase(
            alg.dim, structure_pairs(alg), roles, random.Random(f"0:{family}")
        )


@pytest.mark.parametrize("family, seed", [
    ("newton_hooke_plus", 1), ("poincare", 1), ("anti_de_sitter", 1), ("carroll", 7),
])
def test_dense_draws_classify_without_an_envelope(family, seed, monkeypatch):
    envelopes = count_calls(monkeypatch, "enveloping_basis")
    assert_family_answer(*classify_dense_draw(family, 4, seed))
    assert envelopes == []


@pytest.mark.parametrize("family", bench_workloads().FAMILIES)
def test_dense_d6_draws_of_seed_0_classify(family):
    # each took 9-13 s when the module was searched through its enveloping
    # algebra (36-dimensional here); the commutant decides it in about 1 s
    assert_family_answer(*classify_dense_draw(family, 6, 0))


# run in a fresh interpreter, so that sys.modules shows what the
# benchmark's operations import
OFF_THE_SLOW_PATH = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("_bench_workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads
spec.loader.exec_module(workloads)
from kinsila import repth
envelopes = []
build = repth.enveloping_basis
repth.enveloping_basis = lambda rep: envelopes.append(rep.dim) or build(rep)
oracle = workloads.load_oracle()
wrong = []
for workload, seed in ((workloads.Catalog(), 0), (workloads.Rebased(), 0),
                       (workloads.Rebased(), 23)):
    for op in workload.setup(workload.op_names(), seed):
        error = workload.check(op, workload.execute(workload.prepare(op)), oracle)
        if error:
            wrong.append((seed, op.name, error))
print(json.dumps({"envelopes": envelopes, "sympy": "sympy" in sys.modules,
                  "wrong": wrong}))
"""


def test_benchmark_inputs_build_no_envelope_and_leave_sympy_unloaded():
    # every catalog entry at d = 4, 5, 6 and the rebased draws of seeds 0
    # and 23, each checked against the oracle as the benchmark checks it
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    out = subprocess.run(
        [sys.executable, "-c", OFF_THE_SLOW_PATH, str(WORKLOADS)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == {"envelopes": [], "sympy": False, "wrong": []}
