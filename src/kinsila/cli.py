"""Command line interface.

Exit codes: 0 classification produced (including the unclassified label),
1 the input fails a defining condition or the Jacobi identity, 2 the
document is malformed, 3 an internal re-check failed or a simplicity
question could not be settled.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, catalog
from .documents import entry_to_document, parse_text
from .errors import (
    DocumentError,
    InternalFault,
    JacobiError,
    SimplicityUndecided,
    ValidationError,
)
from .exactla import _unlimited_digits
from .kinematics import ClassificationResult, classify

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DOCUMENT = 2
EXIT_FAULT = 3


def _color_enabled() -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _mark(ok: bool, color: bool) -> str:
    box = "[x]" if ok else "[ ]"
    if not color:
        return box
    return f"\x1b[32m{box}\x1b[0m" if ok else f"\x1b[31m{box}\x1b[0m"


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}")


def _report_lines(name: str, result: ClassificationResult, color: bool):
    lines = [f"name: {name}", f"label: {result.label}"]
    lines.append("validation checks:")
    for check, ok in result.validation_items:
        lines.append(f"  {_mark(ok, color)} {check}")
    lines.append(
        f"radical case: {result.radical_case} (dim {result.radical_dim})"
    )
    lines.append(f"central action: {result.z_action}")
    lines.append(f"holonomy dimension: {result.holonomy_dim}")
    lines.append(f"flat: {'yes' if result.flat else 'no'}")
    if result.indecomposable is None:
        lines.append("indecomposable: not determined")
    else:
        lines.append(
            f"indecomposable: {'yes' if result.indecomposable else 'no'}"
        )
    if result.mu is not None:
        lines.append(f"square of the central action: {result.mu}")
    if result.poincare_items is not None:
        lines.append("certificate items:")
        for check, ok, note in result.poincare_items:
            lines.append(f"  {_mark(ok, color)} {check}: {note}")
    for note in result.notes:
        lines.append(f"note: {note}")
    return lines


def _render(name: str, result: ClassificationResult, as_json: bool,
            color: bool) -> str:
    if as_json:
        payload = {"name": name}
        payload.update(result.to_dict())
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "\n".join(_report_lines(name, result, color)) + "\n"


def _cmd_classify(args) -> int:
    parsed = parse_text(_read(args.file))
    result = classify(
        parsed.algebra, parsed.z_indices, parsed.s_indices, parsed.p_indices
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_render(parsed.name, result, args.json, color=False))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(
            _render(parsed.name, result, args.json, color=_color_enabled())
        )
    return EXIT_OK


def _format_table(rows) -> str:
    wf = max(len("family"), max(len(f) for f, _, _ in rows))
    wd = max(len("dim"), max(len(str(d)) for _, d, _ in rows))
    lines = [f"{'family':<{wf}}  {'dim':<{wd}}  label"]
    for fam, d, outcome in rows:
        lines.append(f"{fam:<{wf}}  {d:<{wd}}  {outcome}")
    return "\n".join(lines) + "\n"


def _cmd_batch(args) -> int:
    import csv  # here, its only user, so that other commands skip the import
    families = args.families or list(catalog.FAMILIES)
    dims = args.dims or [4, 5]
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    fault = False
    for fam in families:
        for d in dims:
            entry = catalog.make(fam, d)
            name = f"{fam}_d{d}"
            try:
                result = classify(entry.algebra, *entry.roles())
                outcome = result.label
                payload = {"name": name}
                payload.update(result.to_dict())
            except ValidationError as exc:
                outcome = f"invalid ({exc.code})"
                payload = {
                    "name": name,
                    "invalid": exc.code,
                    "message": str(exc),
                    "validation": [[c, ok] for c, ok in exc.items],
                }
            except (InternalFault, SimplicityUndecided) as exc:
                fault = True
                outcome = "internal fault"
                payload = {"name": name, "fault": str(exc)}
            rows.append((fam, d, outcome))
            if args.out_dir:
                path = os.path.join(args.out_dir, f"{name}.report.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, sort_keys=True, indent=2)
                    fh.write("\n")
    table = _format_table(rows)
    sys.stdout.write(table)
    if args.out_dir:
        with open(os.path.join(args.out_dir, "summary.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(table)
        with open(os.path.join(args.out_dir, "summary.csv"), "w",
                  encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["family", "dim", "label"])
            writer.writerows(rows)
    return EXIT_FAULT if fault else EXIT_OK


def _cmd_catalog(args) -> int:
    dims = [args.dim] if args.dim else [4, 5]
    families = [args.family] if args.family else list(catalog.FAMILIES)
    docs = [
        entry_to_document(catalog.make(fam, d))
        for fam in families for d in dims
    ]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for doc in docs:
            path = os.path.join(args.out, f"{doc['name']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
            print(f"wrote {path}")
    elif len(docs) == 1:
        print(json.dumps(docs[0], sort_keys=True, indent=2))
    else:
        print(json.dumps(docs, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_schema(_args) -> int:
    from importlib import resources  # here, its only user, as `csv` in batch
    text = (
        resources.files("kinsila")
        .joinpath("data/input_document.schema.json")
        .read_text(encoding="utf-8")
    )
    sys.stdout.write(text)
    return EXIT_OK


def _dim_arg(value: str) -> int:
    try:
        d = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    if d < 1:
        raise argparse.ArgumentTypeError("spatial dimension must be >= 1")
    return d


def _dims_arg(value: str):
    parts = [x.strip() for x in value.split(",") if x.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty dimension list")
    return [_dim_arg(x) for x in parts]


def _families_arg(value: str):
    parts = [x.strip() for x in value.split(",") if x.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty family list")
    for fam in parts:
        if fam not in catalog.FAMILIES:
            raise argparse.ArgumentTypeError(f"unknown family: {fam}")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinsila",
        description="validate and classify kinematical Lie algebras "
                    "with exact rational arithmetic",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one document")
    p.add_argument("file", help="input document path, or - for stdin")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("--out", help="write the report to this file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("batch", help="classify built-in algebras and print "
                                     "a family by dimension summary table")
    p.add_argument("--families", type=_families_arg,
                   help="comma separated families (default: all)")
    p.add_argument("--dims", type=_dims_arg,
                   help="comma separated spatial dimensions (default: 4,5)")
    p.add_argument("--out-dir",
                   help="directory for per-entry reports and the summary "
                        "as CSV and text")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("catalog", help="built-in algebra documents")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    pe = csub.add_parser("export", help="export entries as input documents")
    pe.add_argument("--family", choices=list(catalog.FAMILIES))
    pe.add_argument("--dim", type=_dim_arg,
                    help="spatial dimension (default 4 and 5)")
    pe.add_argument("--out", help="directory to write one file per entry")
    pe.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("schema", help="print the input document schema")
    p.set_defaults(func=_cmd_schema)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # coefficients, reports and fault certificates are exact rationals of
    # any size
    with _unlimited_digits():
        try:
            return args.func(args)
        except DocumentError as exc:
            print(f"document error: {exc}", file=sys.stderr)
            return EXIT_DOCUMENT
        except ValidationError as exc:
            print(f"not a generalized kinematical algebra: {exc.code}",
                  file=sys.stderr)
            print(str(exc), file=sys.stderr)
            for check, ok in exc.items:
                print(f"  {'[x]' if ok else '[ ]'} {check}", file=sys.stderr)
            return EXIT_INVALID
        except JacobiError as exc:
            print(f"not a Lie algebra: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except (InternalFault, SimplicityUndecided) as exc:
            print(f"internal fault: {exc}", file=sys.stderr)
            if isinstance(exc, InternalFault) and exc.certificate:
                print(f"certificate: {exc.certificate}", file=sys.stderr)
            return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
