import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (
    dense_rebase, heisenberg_document, so_algebra_and_rep, static_with_central_action,
)
from kinsila import catalog, repth
from kinsila.cli import main
from kinsila.documents import entry_to_document, parse_document, parse_text, to_document
from kinsila.errors import DocumentError, InternalFault, SimplicityUndecided
from kinsila.kinematics import classify
from kinsila.liecore import LieAlgebra


def good_doc():
    return {
        "name": "tiny",
        "basis": ["H", "B1", "P1"],
        "brackets": [
            {"x": "B1", "y": "P1", "result": [{"basis": "H", "coeff": 1}]},
            {"x": "H", "y": "B1", "result": [{"basis": "P1", "coeff": "-1"}]},
        ],
        "roles": {"Z": ["H"], "s": [], "P": ["B1", "P1"]},
    }


def loaded_by_cli_import(module):
    """Whether a fresh interpreter has `module` loaded after `import kinsila.cli`."""
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, kinsila.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_cli_import_leaves_sympy_unloaded():
    # sympy only factors minimal polynomials for a rare certificate, so the
    # command line must not pay for importing it on every call
    assert not loaded_by_cli_import("sympy")


def test_cli_import_leaves_csv_unloaded():
    # only `batch --out-dir` writes a CSV, so `classify` must not import it
    assert not loaded_by_cli_import("csv")


def test_cold_classify_loads_only_what_it_uses(tmp_path):
    # a fresh `classify` compiles and runs every module it imports: its
    # records are NamedTuples, and csv and the schema's resource loader
    # belong to other commands; -S keeps site's own imports out of the count
    path = tmp_path / "poincare_d4.json"
    path.write_text(json.dumps(entry_to_document(catalog.make("poincare", 4))))
    unused = ("dataclasses", "inspect", "csv", "sympy", "importlib.resources")
    code = (
        "import sys\n"
        "from kinsila.cli import main\n"
        f"code = main(['classify', {str(path)!r}, '--json'])\n"
        f"print(code, [m for m in {unused!r} if m in sys.modules], file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout)["label"] == "poincare-type"
    assert out.stderr == "0 []\n"


# ---------------------------------------------------------------------------
# document parsing

def test_parse_good_document():
    parsed = parse_document(good_doc())
    assert parsed.name == "tiny"
    assert parsed.algebra.dim == 3
    assert parsed.z_indices == (0,)
    assert parsed.s_indices == ()
    assert parsed.p_indices == (1, 2)
    w = parsed.algebra.structure_constant(1, 2)
    assert [str(c) for c in w] == ["1", "0", "0"]


def test_reverse_order_brackets_antisymmetrize():
    doc = good_doc()
    doc["brackets"][0] = {
        "x": "P1", "y": "B1", "result": [{"basis": "H", "coeff": -1}],
    }
    parsed = parse_document(doc)
    assert str(parsed.algebra.structure_constant(1, 2)[0]) == "1"


def test_rational_string_coefficients():
    doc = good_doc()
    doc["brackets"][0]["result"][0]["coeff"] = "2/3"
    parsed = parse_document(doc)
    assert str(parsed.algebra.structure_constant(1, 2)[0]) == "2/3"


@pytest.mark.parametrize("coeff", [0.5, "0.5", "1/0", "1/-2", "", "a", True, None, [1]])
def test_inexact_or_malformed_coefficients_rejected(coeff):
    doc = good_doc()
    doc["brackets"][0]["result"][0]["coeff"] = coeff
    with pytest.raises(DocumentError) as ei:
        parse_document(doc)
    assert "coeff" in str(ei.value)


def test_float_rejection_message_mentions_pq_form():
    doc = good_doc()
    doc["brackets"][0]["result"][0]["coeff"] = 0.25
    with pytest.raises(DocumentError) as ei:
        parse_document(doc)
    assert "use p/q form" in str(ei.value)


def bad_cases():
    base = good_doc
    cases = []

    d = base(); d.pop("basis"); cases.append(("missing basis", d))
    d = base(); d["extra"] = 1; cases.append(("unknown key", d))
    d = base(); d["name"] = 7; cases.append(("bad name", d))
    d = base(); d["basis"] = ["H", "H", "P1"]; cases.append(("dup label", d))
    d = base(); d["basis"] = []; cases.append(("empty basis", d))
    d = base(); d["basis"] = ["H", "", "P1"]; cases.append(("empty label", d))
    d = base(); d["brackets"][0]["x"] = "Q"; cases.append(("unknown x", d))
    d = base(); d["brackets"][0]["result"][0]["basis"] = "Q"
    cases.append(("unknown result label", d))
    d = base(); d["brackets"][0]["y"] = "B1"; cases.append(("x equals y", d))
    d = base(); d["brackets"].append(dict(d["brackets"][0]))
    cases.append(("pair twice", d))
    d = base(); d["brackets"].append(
        {"x": "P1", "y": "B1", "result": [{"basis": "H", "coeff": -1}]})
    cases.append(("pair twice reversed", d))
    d = base(); d["brackets"][0]["result"].append({"basis": "H", "coeff": 2})
    cases.append(("coefficient twice", d))
    d = base(); d["roles"] = {"Z": ["H"], "s": []}; cases.append(("missing role", d))
    d = base(); d["roles"]["P"] = ["B1", "Q"]; cases.append(("unknown role label", d))
    d = base(); d["brackets"][0].pop("result"); cases.append(("missing result", d))
    return cases


@pytest.mark.parametrize("label,doc", bad_cases(), ids=[c[0] for c in bad_cases()])
def test_malformed_documents_rejected(label, doc):
    with pytest.raises(DocumentError):
        parse_document(doc)


def test_parse_text_bad_json():
    with pytest.raises(DocumentError) as ei:
        parse_text("{not json")
    assert "invalid JSON" in str(ei.value)


def test_catalog_export_round_trip():
    e = catalog.make("anti_de_sitter", 4)
    doc = entry_to_document(e)
    # the document must survive a real JSON round trip
    parsed = parse_text(json.dumps(doc))
    assert parsed.name == "anti_de_sitter_d4"
    assert parsed.algebra.dim == e.algebra.dim
    assert parsed.algebra.labels == e.algebra.labels
    for i in range(e.algebra.dim):
        for j in range(i + 1, e.algebra.dim):
            assert (parsed.algebra.structure_constant(i, j)
                    == e.algebra.structure_constant(i, j))


# ---------------------------------------------------------------------------
# command line

def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_classify_text_report(tmp_path, capsys):
    e = catalog.make("de_sitter", 4)
    path = write_doc(tmp_path, entry_to_document(e))
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "label: three-graded-para-kahler" in out
    assert "[x] wedge-condition" in out


def test_cli_classify_json_matches_library(tmp_path, capsys):
    e = catalog.make("poincare", 4)
    path = write_doc(tmp_path, entry_to_document(e))
    assert main(["classify", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    lab = e.algebra.labels
    result = classify(
        e.algebra,
        [lab.index("H")],
        [lab.index(x) for x in e.s_labels],
        [lab.index(x) for x in e.p_labels],
    )
    expected = {"name": "poincare_d4"}
    expected.update(result.to_dict())
    assert payload == json.loads(json.dumps(expected))


def test_cli_classify_json_report_fields(tmp_path, capsys):
    path = write_doc(tmp_path, entry_to_document(catalog.make("de_sitter", 4)))
    assert main(["classify", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma_check"] == {"automorphism": True, "involutive": True}
    assert payload["mu"] == "1"
    assert payload["mu_sign"] == 1
    assert len(payload["omega"]) == 8


def test_cli_classify_out_file(tmp_path, capsys):
    doc_path = write_doc(tmp_path, entry_to_document(catalog.make("static", 4)))
    out_path = str(tmp_path / "report.txt")
    assert main(["classify", doc_path, "--out", out_path]) == 0
    assert capsys.readouterr().out == f"wrote {out_path}\n"
    with open(out_path) as fh:
        text = fh.read()
    assert "label: flat-rad-equals-P" in text
    assert "\x1b[" not in text

    json_path = str(tmp_path / "report.json")
    assert main(["classify", doc_path, "--json", "--out", json_path]) == 0
    capsys.readouterr()
    with open(json_path) as fh:
        assert json.load(fh)["label"] == "flat-rad-equals-P"


def unwritable(tmp_path, name):
    """A path under a regular file, which no user can create or write."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return str(blocker / name)


def assert_cannot_write(capsys, path):
    captured = capsys.readouterr()
    assert captured.err == f"document error: cannot write {path}: Not a directory\n"
    return captured.out


def test_cli_classify_unwritable_out_exit_2(tmp_path, capsys):
    doc_path = write_doc(tmp_path, entry_to_document(catalog.make("static", 4)))
    out_path = unwritable(tmp_path, "report.json")
    assert main(["classify", doc_path, "--json", "--out", out_path]) == 2
    assert assert_cannot_write(capsys, out_path) == ""


def test_cli_repeated_runs_identical(tmp_path, capsys):
    path = write_doc(tmp_path, entry_to_document(catalog.make("carroll", 4)))
    main(["classify", path, "--json"])
    first = capsys.readouterr().out
    main(["classify", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(good_doc())))
    assert main(["classify", "-"]) == 0
    assert "label:" in capsys.readouterr().out


def test_cli_document_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["classify", str(path)]) == 2
    assert "document error" in capsys.readouterr().err


def test_cli_missing_file_exit_2(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "absent.json")]) == 2


def test_cli_invalid_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"name": "\xff"}')
    assert main(["classify", str(path), "--json"]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_cli_deeply_nested_json_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["classify", str(path), "--json"]) == 2
    assert "nested too deeply" in capsys.readouterr().err


# 10^4999: 5,000 digits, past the interpreter's default limit of 4,300
# digits for converting between int and str
BIG = "1" + "0" * 4999


def int_str_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.fixture
def default_digit_limit():
    """The interpreter's default digit limit, set for the test, or None
    where the interpreter has no limit; the limit before is put back."""
    before = int_str_limit()
    if before is None:
        yield None
        return
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield int_str_limit()
    sys.set_int_max_str_digits(before)


def big_coefficient_text(as_integer):
    """carroll at d = 4 with H rescaled: [B_i, P_i] = H becomes 10^4999 H'
    (H' = H / 10^4999), written as a JSON integer, or 10^-4999 H'
    (H' = 10^4999 H), written as a p/q string."""
    doc = entry_to_document(catalog.make("carroll", 4))
    for item in doc["brackets"]:
        for term in item["result"]:
            if term["basis"] == "H":
                assert term["coeff"] == "1"
                term["coeff"] = "@BIG@" if as_integer else f"1/{BIG}"
    return json.dumps(doc).replace('"@BIG@"', BIG)


def big_mu_document():
    """de Sitter at d = 4 in the basis H' = 10^2500 H: every coefficient
    has at most 2,501 digits, but mu = (10^2500)^2 has 5,001."""
    lam = 10 ** 2500
    doc = entry_to_document(catalog.make("de_sitter", 4))
    for item in doc["brackets"]:
        scale = lam ** [item["x"], item["y"]].count("H")
        for term in item["result"]:
            c = Fraction(term["coeff"]) * scale / (lam if term["basis"] == "H" else 1)
            term["coeff"] = str(c)
    return doc


@pytest.mark.parametrize("as_integer", [True, False], ids=["json-integer", "pq-string"])
def test_cli_coefficient_past_the_digit_limit_exit_0(as_integer, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(big_coefficient_text(as_integer))
    limit = int_str_limit()
    assert main(["classify", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "flat-other"
    # lifted for the call only
    assert int_str_limit() == limit


def test_cli_report_past_the_digit_limit_exit_0(tmp_path, capsys):
    path = write_doc(tmp_path, big_mu_document())
    assert main(["classify", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "three-graded-para-kahler"
    assert payload["mu_sign"] == 1
    assert payload["mu"] == "1" + "0" * 5000
    assert main(["classify", path]) == 0
    assert f"square of the central action: 1{'0' * 5000}\n" in capsys.readouterr().out


@pytest.mark.parametrize("as_integer", [True, False], ids=["json-integer", "pq-string"])
def test_parse_text_past_the_digit_limit(as_integer, default_digit_limit):
    parsed = parse_text(big_coefficient_text(as_integer))
    assert int_str_limit() == default_digit_limit
    result = classify(parsed.algebra, parsed.z_indices, parsed.s_indices, parsed.p_indices)
    assert result.label == "flat-other"


def test_parse_document_past_the_digit_limit(default_digit_limit):
    # the p/q string is read as text; the JSON integer arrives as an int
    parsed = parse_document(json.loads(big_coefficient_text(False)))
    assert int_str_limit() == default_digit_limit
    h = parsed.algebra.labels.index("H")
    b, p = (parsed.algebra.labels.index(x) for x in ("B1", "P1"))
    assert parsed.algebra.structure_constant(b, p)[h] == Fraction(1, 10 ** 4999)


def test_report_past_the_digit_limit(default_digit_limit):
    parsed = parse_document(big_mu_document())
    result = classify(parsed.algebra, parsed.z_indices, parsed.s_indices, parsed.p_indices)
    assert result.mu == 10 ** 5000
    report = result.to_dict()
    assert int_str_limit() == default_digit_limit
    assert report["mu"] == "1" + "0" * 5000
    assert report["mu_sign"] == 1


def test_cli_jacobi_failure_exit_1(tmp_path, capsys):
    doc = {
        "basis": ["a", "b", "c"],
        "brackets": [
            {"x": "a", "y": "b", "result": [{"basis": "c", "coeff": 1}]},
            {"x": "a", "y": "c", "result": [{"basis": "a", "coeff": 1}]},
            {"x": "b", "y": "c", "result": [{"basis": "b", "coeff": 1}]},
        ],
        "roles": {"Z": ["a"], "s": [], "P": ["b", "c"]},
    }
    assert main(["classify", write_doc(tmp_path, doc)]) == 1
    assert "not a Lie algebra" in capsys.readouterr().err


def test_cli_jacobi_failure_message_bytes_with_fractional_defect(tmp_path, capsys):
    # [a, [b, c]] + [b, [c, a]] + [c, [a, b]] = -c/2 + c/3 + 0
    doc = {
        "basis": ["a", "b", "c"],
        "brackets": [
            {"x": "a", "y": "b", "result": [{"basis": "c", "coeff": 1}]},
            {"x": "a", "y": "c", "result": [{"basis": "a", "coeff": "1/3"}]},
            {"x": "b", "y": "c", "result": [{"basis": "b", "coeff": "-1/2"}]},
        ],
        "roles": {"Z": ["a"], "s": [], "P": ["b", "c"]},
    }
    assert main(["classify", write_doc(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == (
        "not a Lie algebra: Jacobi identity fails on basis triple (0, 1, 2); "
        "cyclic sum = (0, 0, -1/6)\n"
    )


def test_cli_validation_failure_exit_1(tmp_path, capsys):
    e = catalog.make("static", 3)
    path = write_doc(tmp_path, entry_to_document(e))
    assert main(["classify", path]) == 1
    err = capsys.readouterr().err
    assert "WEDGE_CONDITION_FAILS" in err
    assert "[ ] wedge-condition" in err


def test_cli_large_heisenberg_exit_1(tmp_path, capsys):
    path = write_doc(tmp_path, heisenberg_document(18))
    assert main(["classify", path]) == 1
    err = capsys.readouterr().err
    assert "P_NOT_TWO_COPIES" in err
    assert "Traceback" not in err


def quaternion_document(copies):
    """s = span(i, j, k) in H = (-1, -1)_Q with the commutator bracket,
    acting on P = H ⊕ ... ⊕ H (`copies` summands) by left multiplication;
    Z is central and [P, P] = 0."""
    units = ("1", "i", "j", "k")
    # x u = sign v for x in (i, j, k), u running over units
    table = {
        "i": ((1, "i"), (-1, "1"), (1, "k"), (-1, "j")),
        "j": ((1, "j"), (-1, "k"), (-1, "1"), (1, "i")),
        "k": ((1, "k"), (1, "j"), (-1, "i"), (-1, "1")),
    }
    p = [f"P{c}_{u}" for c in range(1, copies + 1) for u in units]
    brackets = [
        {"x": x, "y": y, "result": [{"basis": z, "coeff": 2}]}
        for x, y, z in (("i", "j", "k"), ("j", "k", "i"), ("k", "i", "j"))
    ] + [
        {"x": x, "y": f"P{c}_{u}", "result": [{"basis": f"P{c}_{v}", "coeff": sign}]}
        for x, images in table.items()
        for c in range(1, copies + 1)
        for u, (sign, v) in zip(units, images)
    ]
    return {
        "name": f"quaternions-{copies}",
        "basis": ["Z", "i", "j", "k"] + p,
        "brackets": brackets,
        "roles": {"Z": ["Z"], "s": ["i", "j", "k"], "P": p},
    }


# End_s(H) is the division algebra H, whose conic x0^2 = -x1^2 - x2^2 has
# no rational point, so P = H is simple and not two copies
def test_cli_quaternion_module_exit_1(tmp_path, capsys):
    path = write_doc(tmp_path, quaternion_document(1))
    assert main(["classify", path]) == 1
    assert "P_NOT_TWO_COPIES" in capsys.readouterr().err


# End_s(H + H) = M_2(H) has zero divisors, so P splits into two copies of
# H; the two-form vanishes and the central action is zero
def test_cli_two_quaternion_modules_are_decided(tmp_path, capsys):
    path = write_doc(tmp_path, quaternion_document(2))
    assert main(["classify", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "flat-rad-equals-P"


def test_cli_three_quaternion_modules_exit_1(tmp_path, capsys):
    path = write_doc(tmp_path, quaternion_document(3))
    assert main(["classify", path]) == 1
    assert "P_NOT_TWO_COPIES" in capsys.readouterr().err


def three_copy_document(seed):
    """s = so(4) in the J_ab basis acting on P = Q^4 + Q^4 + Q^4 (P index
    6 + 4c + a for copy c), Z central and last, every bracket outside
    s x s and s x P zero; then the dense change of basis seeded by seed.
    P is three copies of an absolutely simple module, so not two."""
    so4, v = so_algebra_and_rep(4)
    pairs = {}
    for i in range(6):
        for j in range(i + 1, 6):
            pairs[(i, j)] = list(so4.structure_constant(i, j)) + [0] * 13
        for c in range(3):
            for a in range(4):
                image = [v.mats[i][b, a] for b in range(4)]
                pairs[(i, 6 + 4 * c + a)] = [0] * (6 + 4 * c) + image + [0] * (9 - 4 * c)
    roles = ((18,), tuple(range(6)), tuple(range(6, 18)))
    rebased, _ = dense_rebase(LieAlgebra(19, pairs), roles, random.Random(seed))
    labels = [f"J{i}" for i in range(6)]
    labels += [f"P{c}_{a}" for c in range(3) for a in range(4)] + ["Z"]
    return to_document(f"so4-three-copies-{seed}", LieAlgebra(19, rebased, labels), *roles)


# is_simple(P) splits off V or V + V.  Each further piece bigger than V
# is split along the image of an intertwiner out of V, which Schur's
# lemma makes a copy of V; no conic is solved on V + V, whose
# coefficients have numerators and denominators of 125-190 bits here
@pytest.mark.parametrize("seed", [0, 2])
def test_cli_three_copies_split_along_an_intertwiner(seed, tmp_path, capsys, monkeypatch):
    conics = []
    original = repth._conic_point
    monkeypatch.setattr(repth, "_conic_point", lambda *ab: conics.append(ab) or original(*ab))
    path = write_doc(tmp_path, three_copy_document(seed))
    assert main(["classify", path]) == 1
    assert "P_NOT_TWO_COPIES" in capsys.readouterr().err
    assert conics == []


# End_s(P) = M_3(Q) has dimension 9, and no candidate element's minimal
# polynomial factors, so is_simple(P) raises SimplicityUndecided.  9 is
# not 4 dim D for a division algebra D, so E is not M_2(D), which proves
# P not two copies
def test_cli_three_copies_with_an_undecided_commutant_exit_1(tmp_path, capsys):
    path = write_doc(tmp_path, three_copy_document(1))
    assert main(["classify", path]) == 1
    assert "P_NOT_TWO_COPIES" in capsys.readouterr().err


def test_cli_mixed_central_action_exit_0(tmp_path, capsys):
    # Z acts on each plane (B_i, P_i) by 1 + N with N² = 0 != N: a valid
    # document whose central action has both parts, with a vanishing form
    path = write_doc(tmp_path, static_with_central_action(((1, 0), (1, 1))))
    assert main(["classify", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z_action"] == "mixed"
    assert payload["label"] == "flat-rad-equals-P"


# sha256 of the report of the action diag(1, 2) ⊗ 1, as it was before the
# kind was read off the square: its square is not a scalar
DIAGONAL_ACTION_REPORT = (
    "61cce3f119c3b11b5204ba78a7169672fa49c0e37cd67da5b59c52223fe74cc2"
)


def test_cli_non_scalar_semisimple_central_action_report(tmp_path, capsys):
    path = write_doc(tmp_path, static_with_central_action(((1, 0), (0, 2))))
    assert main(["classify", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload.pop("name") == "static-d4-central-action"
    assert payload["z_action"] == "semisimple"
    text = json.dumps(payload, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIAGONAL_ACTION_REPORT


def test_cli_batch_summary_table(capsys):
    assert main(["batch", "--dims", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["family", "dim", "label"]
    rows = {tuple(line.split()[:2]): line.split()[2] for line in lines[1:]}
    assert len(rows) == 8
    for fam in catalog.FAMILIES:
        assert rows[(fam, "4")] == catalog.EXPECTED_LABEL[fam]


def test_cli_batch_dim_3_rows_are_invalid(capsys):
    assert main(["batch", "--dims", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(lines) == 8
    assert all("invalid (WEDGE_CONDITION_FAILS)" in line for line in lines)


def test_cli_batch_family_filter(capsys):
    assert main(["batch", "--families", "poincare", "--dims", "4,5,6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(lines) == 3
    assert all(line.endswith("poincare-type") for line in lines)


def test_cli_batch_out_dir(tmp_path, capsys):
    out = str(tmp_path / "reports")
    code = main(["batch", "--families", "poincare,carroll", "--dims", "4",
                 "--out-dir", out])
    assert code == 0
    stdout_table = capsys.readouterr().out
    files = sorted(os.listdir(out))
    assert files == [
        "carroll_d4.report.json",
        "poincare_d4.report.json",
        "summary.csv",
        "summary.txt",
    ]
    with open(os.path.join(out, "poincare_d4.report.json")) as fh:
        report = json.load(fh)
    assert report["label"] == "poincare-type"
    with open(os.path.join(out, "summary.txt")) as fh:
        assert fh.read() == stdout_table
    with open(os.path.join(out, "summary.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["family", "dim", "label"]
    assert ["poincare", "4", "poincare-type"] in rows
    assert ["carroll", "4", "flat-other"] in rows


def test_cli_batch_unwritable_out_dir_exit_2(tmp_path, capsys):
    out = unwritable(tmp_path, "reports")
    code = main(["batch", "--families", "poincare", "--dims", "4", "--out-dir", out])
    assert code == 2
    assert assert_cannot_write(capsys, out) == ""


# the two failures that exit 3, with the stderr lines `main` prints for them
FAULTS = {
    "undecided": (
        SimplicityUndecided("no certificate found for a module of dimension 8"),
        ["internal fault: no certificate found for a module of dimension 8"],
    ),
    "internal": (
        InternalFault("two-form radical breaks the trichotomy", {"radical_dim": 3}),
        ["internal fault: two-form radical breaks the trichotomy",
         "certificate: {'radical_dim': 3}"],
    ),
}


def classify_raising(monkeypatch, fault):
    def raising(*_args):
        raise fault

    monkeypatch.setattr("kinsila.cli.classify", raising)


@pytest.mark.parametrize("kind", FAULTS)
def test_cli_classify_fault_exit_3(tmp_path, capsys, monkeypatch, kind):
    fault, err_lines = FAULTS[kind]
    classify_raising(monkeypatch, fault)
    assert main(["classify", write_doc(tmp_path, good_doc())]) == 3
    captured = capsys.readouterr()
    # exactly the fault lines: no traceback, no report
    assert captured.err.splitlines() == err_lines
    assert captured.out == ""


@pytest.mark.parametrize("kind", FAULTS)
def test_cli_batch_fault_row_exit_3(tmp_path, capsys, monkeypatch, kind):
    fault, _ = FAULTS[kind]
    classify_raising(monkeypatch, fault)
    out = str(tmp_path / "reports")
    code = main(["batch", "--families", "poincare", "--dims", "4",
                 "--out-dir", out])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1].split(None, 2) == [
        "poincare", "4", "internal fault",
    ]
    with open(os.path.join(out, "poincare_d4.report.json")) as fh:
        assert json.load(fh) == {"name": "poincare_d4", "fault": str(fault)}
    with open(os.path.join(out, "summary.csv")) as fh:
        assert list(csv.reader(fh))[1] == ["poincare", "4", "internal fault"]


def test_cli_batch_unknown_family_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        main(["batch", "--families", "euclidean"])
    assert ei.value.code == 2


def test_cli_catalog_single(capsys):
    assert main(["catalog", "export", "--family", "poincare",
                 "--dim", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "poincare_d4"
    parsed = parse_document(doc)
    assert parsed.algebra.dim == 15


def test_cli_catalog_out_dir(tmp_path, capsys):
    out = str(tmp_path / "exports")
    assert main(["catalog", "export", "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert len(files) == 16
    assert "poincare_d4.json" in files
    with open(os.path.join(out, "de_sitter_d5.json")) as fh:
        parsed = parse_document(json.load(fh))
    assert parsed.algebra.dim == catalog.dim_formula(5)


def test_cli_catalog_unwritable_out_exit_2(tmp_path, capsys):
    out = unwritable(tmp_path, "exports")
    assert main(["catalog", "export", "--family", "static", "--out", out]) == 2
    assert assert_cannot_write(capsys, out) == ""


def test_cli_schema_output(capsys):
    assert main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert schema["required"] == ["basis", "brackets", "roles"]
    coeff = schema["properties"]["brackets"]["items"]["properties"]["result"]
    pattern = coeff["items"]["properties"]["coeff"]["oneOf"][1]["pattern"]
    assert pattern == "^[+-]?[0-9]+(/[1-9][0-9]*)?$"


def test_cli_no_color_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    path = write_doc(tmp_path, entry_to_document(catalog.make("static", 4)))
    assert main(["classify", path]) == 0
    assert "\x1b[" not in capsys.readouterr().out


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
