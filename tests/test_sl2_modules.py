"""Inputs beyond the catalog: sl(2) on Sym^n + Sym^n, with Z central and
[P, P] = 0 (`conftest.sl2_on_sym_pair`), where s is not so(d).

The answers are derived by hand from the Clebsch-Gordan rule
Sym^n (x) Sym^n = Sym^2n + Sym^(2n-2) + ... + Sym^0, whose summand
Sym^(2n-2k) lies in the exterior square for odd k and in the symmetric
square for even k.
  - An invariant symmetric form on Sym^n is a copy of Sym^0 (k = n) in the
    symmetric square, so there is one exactly when n is even: n = 1, 3, 5
    and 7 fail with NO_INVARIANT_FORM.
  - Sym^n itself is the summand k = n/2, inside the exterior square when
    n/2 is odd: n = 2 and 6 fail with WEDGE_CONDITION_FAILS, and n = 4
    and 8 pass.
  - With [P, P] = 0 the two-form vanishes, and P + Z is an ideal, so a
    valid input is `flat-rad-equals-P`.  A role-preserving change of
    basis keeps all of this, and so the report.
"""

import random

import pytest

from conftest import bench_workloads, dense_block, sl2_on_sym_pair, structure_pairs
from kinsila.errors import ValidationError
from kinsila.kinematics import classify
from kinsila.liecore import LieAlgebra


@pytest.mark.parametrize("n,code", [
    (1, "NO_INVARIANT_FORM"), (2, "WEDGE_CONDITION_FAILS"), (3, "NO_INVARIANT_FORM"),
    (5, "NO_INVARIANT_FORM"), (6, "WEDGE_CONDITION_FAILS"), (7, "NO_INVARIANT_FORM"),
])
def test_small_modules_fail_their_check(n, code):
    algebra, roles = sl2_on_sym_pair(n)
    with pytest.raises(ValidationError) as err:
        classify(algebra, *roles)
    assert err.value.code == code


@pytest.mark.parametrize("n", [4, 8])
def test_even_modules_with_odd_half_are_flat(n):
    algebra, roles = sl2_on_sym_pair(n)
    result = classify(algebra, *roles)
    assert result.label == "flat-rad-equals-P"
    assert result.radical_case == "all" and result.radical_dim == 2 * (n + 1)
    assert result.certificates == {"pp_dim": 0, "p_plus_z_ideal": True}


def test_dense_change_of_basis_keeps_the_report(monkeypatch):
    workloads = bench_workloads()
    monkeypatch.setattr(workloads, "mixing_block", dense_block)
    algebra, roles = sl2_on_sym_pair(4)
    pairs, _ = workloads.rebase(
        algebra.dim, structure_pairs(algebra), roles, random.Random("sl2:4")
    )
    moved = LieAlgebra(algebra.dim, pairs, algebra.labels)
    assert structure_pairs(moved) != structure_pairs(algebra)
    want = classify(algebra, *roles).to_dict()
    assert want["label"] == "flat-rad-equals-P"
    assert classify(moved, *roles).to_dict() == want
