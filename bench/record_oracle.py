"""Record oracle.json: the reference outputs every benchmark run checks.

    python3 bench/record_oracle.py

Run this once, at the commit whose outputs are the reference; the
benchmark never recomputes them.  The expected labels and the expected
exit and error codes below are written down by hand from the paper's
classification and the CLI's documented exit codes; recording stops if
the code disagrees with them, so only report bytes and exact report
fields come from the code.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

from workloads import (  # noqa: E402
    FAMILIES, OUT_DIR, Catalog, Cli, cli_documents, entry_roles,
    report_digest)

LABELS = {
    "static": "flat-rad-equals-P",
    "galilei": "flat-rad-equals-P",
    "newton_hooke_plus": "flat-rad-equals-P",
    "newton_hooke_minus": "flat-rad-equals-P",
    "carroll": "flat-other",
    "poincare": "poincare-type",
    "de_sitter": "three-graded-para-kahler",
    "anti_de_sitter": "pseudo-kahler",
}
# d = 3 fails the wedge condition; the two mutated documents are rejected
EXPECTED_REJECT = {f"{f}_d3": (1, "WEDGE_CONDITION_FAILS") for f in FAMILIES}
EXPECTED_REJECT["poincare_d4_jacobi_break"] = (1, "JACOBI")
EXPECTED_REJECT["poincare_d4_float_coeff"] = (2, "DOCUMENT")


def main():
    from kinsila import catalog
    from kinsila.kinematics import classify
    from workloads import error_code

    oracle = {"labels": LABELS, "catalog": {}, "cli": {}}
    for d in Catalog.dims:
        for family in FAMILIES:
            entry = catalog.make(family, d)
            z, s, p = entry_roles(entry)
            result = classify(entry.algebra, z, s, p)
            if result.label != LABELS[family]:
                raise SystemExit(f"{family} d={d}: label {result.label}")
            oracle["catalog"][f"{family}_d{d}"] = {
                "digest": report_digest(result),
                "radical_case": result.radical_case,
                "radical_dim": result.radical_dim,
                "z_action": result.z_action,
                "holonomy_dim": result.holonomy_dim,
                "mu": None if result.mu is None else str(result.mu),
            }
            print(f"recorded {family} d={d}", file=sys.stderr)

    cli = Cli(SRC, traced=False)
    names = [name for name, _ in cli_documents()]
    for op in cli.setup(names, 0):
        code, stdout, stderr = cli.execute(cli.prepare(op))
        if op.name in EXPECTED_REJECT:
            want = EXPECTED_REJECT[op.name]
            if (code, error_code(stderr)) != want:
                raise SystemExit(f"{op.name}: exit {code}, {stderr!r}")
            oracle["cli"][op.name] = {"exit": code, "error": want[1]}
        else:
            if code != 0:
                raise SystemExit(f"{op.name}: exit {code}, {stderr!r}")
            oracle["cli"][op.name] = {
                "exit": 0,
                "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            }
        print(f"recorded cli {op.name}", file=sys.stderr)

    with open(BENCH_DIR / "oracle.json", "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {BENCH_DIR / 'oracle.json'} (documents written to {OUT_DIR})",
          file=sys.stderr)


if __name__ == "__main__":
    main()
