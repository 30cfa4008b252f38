"""The order of `is_simple`'s probe stream, pinned on seeded dense draws.

A dense draw is `bench/workloads.rebase` with its unimodular mixing block
replaced by `dense_block`: off-diagonal entries from {-1, 0, 1}, diagonal
entries from {1, 2}, redrawn until invertible.  The unimodular conjugates
of `conftest` almost never get past stage 2; on these draws P (dimension
8, enveloping algebra of dimension 16) reaches stage 4 and closes on the
f(x) of an envelope element or of a pairwise sum x + y or difference
x - y.  So a change to the order of the stream moves a factorization
count, and usually a witness.

The pins are recorded outputs, not derived by hand: what they guard is
the order of the schedule, while the witnesses themselves are checked
invariant by `_certify_reducible` on every call.
"""

import random

import pytest

from conftest import bench_workloads, dense_block, structure_pairs
from kinsila import catalog, repth
from kinsila.kinematics import classify
from kinsila.liecore import LieAlgebra

# (family, seed) at d = 4: the number of `_factor_over_q` calls, then per
# `is_simple` call its verdict, witness rows and certificate kind.  P
# closes on f(x) for x the envelope element 2 (poincare), the difference
# of pair 21 (carroll) and the sums of pairs 25 and 30 (the other two),
# counting from 0 in the order of `itertools.combinations`.
PINS = {
    ("newton_hooke_plus", 1): (67, [(False, (
        (414324, 0, 0, 0, 1129949, -1678675, -27999, 50150),
        (0, 92072, 0, 0, 63925, 14853, 78897, -155822),
        (0, 0, 828648, 0, -2833517, 1534411, -444465, 2043094),
        (0, 0, 0, 1657296, 4904617, -4206359, 2022813, -1299446),
    ), None)]),
    ("poincare", 1): (3, [(False, (
        (2, 0, 0, 0, 3, -4, 1, 3),
        (0, 1, 0, 0, -1, 1, -1, 0),
        (0, 0, 1, 0, 2, -2, 1, 1),
        (0, 0, 0, 1, 2, -2, 1, 0),
    ), None)]),
    ("anti_de_sitter", 1): (77, [(False, (
        (5, 0, 0, 0, 7, -8, -13, -1),
        (0, 5, 0, 0, -3, -3, -3, -1),
        (0, 0, 10, 0, -8, 27, 22, -11),
        (0, 0, 0, 1, 0, -2, -1, -1),
    ), None)]),
    ("carroll", 7): (60, [(False, (
        (292, 0, 0, 0, 341, 383, 362, 234),
        (0, 1, 0, 0, 2, 2, 2, 0),
        (0, 0, 365, 0, 341, -201, -149, -204),
        (0, 0, 0, 365, -654, -641, -684, -449),
    ), None)]),
}


@pytest.mark.parametrize("family, seed", list(PINS))
def test_dense_draws_keep_the_probe_order(family, seed, monkeypatch):
    workloads = bench_workloads()
    monkeypatch.setattr(workloads, "mixing_block", dense_block)
    entry = catalog.make(family, 4)
    alg = entry.algebra
    roles = workloads.entry_roles(entry)
    rng = random.Random(f"{seed}:{family}")
    pairs, _ = workloads.rebase(alg.dim, structure_pairs(alg), roles, rng)

    verdicts = []
    factorizations = [0]
    is_simple, factor_over_q = repth.is_simple, repth._factor_over_q

    def recorded(rep):
        ok, wit = is_simple(rep)
        verdicts.append((ok, wit and wit.rows, rep.simplicity and rep.simplicity.kind))
        return ok, wit

    def counted(p):
        factorizations[0] += 1
        return factor_over_q(p)

    monkeypatch.setattr(repth, "is_simple", recorded)
    monkeypatch.setattr(repth, "_factor_over_q", counted)
    classify(LieAlgebra(alg.dim, pairs, list(alg.labels)), *roles)
    assert (factorizations[0], verdicts) == PINS[(family, seed)]
