"""Command line front end.

Exit status is the whole contract for scripting: 0 on success, 1 when a
verification fails or an artifact disagrees with itself, 2 for invalid
parameters (an unusable cache directory among them), 3 when a computation
would exceed its budget.  Each command returns (payload, csv_rows,
exit_code); main checks the budgets and --m-max first and writes the
chosen format to stdout in one write at the end, as JSON by default or
CSV with --format csv.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from .binop import DEFAULT_FINGERPRINT_BUDGET
from .cache import default_cache_dir, load_cache, write_cache
from .classify import count_norton_classes, predicted_branch, verify_classification
from .errors import (
    BudgetExceededError,
    NortonError,
)
from .graphs import DEFAULT_VERTEX_BUDGET
from .instances import (
    InstanceBundle,
    build_instance,
    family_key,
    parse_instance_spec,
)
from .intlinalg import row_blocks
from .norton import formula_rows
from .trees import DEFAULT_ENUMERATION_LIMIT as MAX_M

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def frac_str(f) -> str:
    """"p/q" for a Fraction (or an int, as p/1)."""
    return f"{f.numerator}/{f.denominator}"


def _label_str(label) -> str:
    """Deterministic compact text for a lattice label of any shape."""
    return json.dumps(label, separators=(",", ":"))


def _bundle(args, name, params) -> InstanceBundle:
    """The cached instance from --cache-dir, else a fresh build."""
    name = name.lower()
    cached = load_cache(name, params, args.cache_dir, budget=args.budget_vertices)
    if cached is not None:
        return cached
    return build_instance(name, params, budget=args.budget_vertices)


def _counts(args, alg):
    """The class count report of alg at each m = 1..--m-max."""
    return [
        count_norton_classes(alg, m, strategy=args.strategy, budget=args.budget_fingerprint)
        for m in range(1, args.m_max + 1)
    ]


def cmd_build(args):
    bundle = build_instance(args.family.lower(), args.params, budget=args.budget_vertices)
    target = write_cache(bundle, args.cache_dir)
    g = bundle.graph
    stored_name, stored_params = family_key(g.family)
    summary = {
        "instance": bundle.label(),
        "family": stored_name,
        "params": list(stored_params),
        "vertices": g.vertex_count,
        "diameter": g.diameter,
        "eigenvalues": list(bundle.spectral.eigenvalues),
        "multiplicities": list(bundle.spectral.multiplicities),
        "algebra_dimension": bundle.algebra.dim,
        "branch": predicted_branch(g.family),
        "pairs_checked": bundle.formula_report.pairs_checked,
        "notes": list(g.notes),
        "cache_file": str(target),
    }
    rows = [["field", "value"]] + [
        [key, ";".join(map(str, value)) if isinstance(value, list) else value]
        for key, value in summary.items()
    ]
    return summary, rows, EXIT_OK


def cmd_verify(args):
    bundle = _bundle(args, args.family, args.params)
    verdict = verify_classification(
        bundle.algebra, args.m_max, strategy=args.strategy, budget=args.budget_fingerprint
    )
    rows = [
        ["m", "observed", "expected", "method"],
        *zip(verdict.m_values, verdict.counts, verdict.expected, verdict.methods),
        ["passed", verdict.passed, "", ""],
    ]
    return verdict.to_json_dict(), rows, EXIT_OK if verdict.passed else EXIT_MISMATCH


def cmd_classes(args):
    bundle = _bundle(args, args.family, args.params)
    reports = _counts(args, bundle.algebra)
    payload = {
        "instance": bundle.label(),
        "reports": [rep.to_json_dict() for rep in reports],
    }
    rows = [["m", "class_count", "method", "classes"]] + [
        [rep.m, rep.class_count, rep.method,
         ";".join(" ".join(map(str, c)) for c in rep.classes)]
        for rep in reports
    ]
    return payload, rows, EXIT_OK


def cmd_spectrum(args):
    bundle = _bundle(args, args.family, args.params)
    sd = bundle.spectral
    payload = {
        "instance": bundle.label(),
        "eigenvalues": list(sd.eigenvalues),
        "multiplicities": list(sd.multiplicities),
    }
    rows = [["eigenvalue", "multiplicity"], *zip(sd.eigenvalues, sd.multiplicities)]
    return payload, rows, EXIT_OK


def cmd_product_table(args):
    bundle = _bundle(args, args.family, args.params)
    g = bundle.graph
    labels = [_label_str(x) for x in g.lattice.levels[1]]
    s, entries = len(labels), []
    # the ordered pairs row by row, one block of formula rows at a time
    for pairs in row_blocks(s * s, max(g.incidence.shape)):
        u, v = np.divmod(np.arange(pairs.start, pairs.stop), s)
        clear, rows = formula_rows(g, u, v)
        for a, b, row in zip(u, v, rows):
            nonzero = np.flatnonzero(row)
            terms = [(labels[w], frac_str(Fraction(int(row[w]), clear))) for w in nonzero]
            entries.append((labels[a], labels[b], terms))
    payload = {
        "instance": bundle.label(),
        "labels": labels,
        "products": [{"u": u, "v": v, "terms": terms} for u, v, terms in entries],
    }
    rows = [["u", "v", "product"]] + [
        [u, v, ";".join(f"{w}={c}" for w, c in terms)] for u, v, terms in entries
    ]
    return payload, rows, EXIT_OK


def cmd_table(args):
    specs = args.instances
    parsed = [parse_instance_spec(s) for s in specs]
    m_values = list(range(1, args.m_max + 1))
    columns = []
    for spec, (name, params) in zip(specs, parsed):
        try:
            bundle = _bundle(args, name, params)
            counts = [rep.class_count for rep in _counts(args, bundle.algebra)]
            columns.append({"instance": spec, "label": bundle.label(), "counts": counts})
        except (NortonError, ValueError) as exc:
            print(f"table: {spec}: {exc}", file=sys.stderr)
            columns.append({"instance": spec, "error": str(exc)})
    # with no specs the CSV table is its header line alone
    rows = [["m", *specs]] + [
        [m, *(col["counts"][i] if "counts" in col else "error" for col in columns)]
        for i, m in enumerate(m_values)
        if specs
    ]
    return {"m_values": m_values, "columns": columns}, rows, EXIT_OK


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="nortonalg",
        description="Norton algebras of distance regular graphs, exactly.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--budget-vertices",
        type=int,
        default=DEFAULT_VERTEX_BUDGET,
        help="refuse to build graphs with more vertices than this",
    )
    common.add_argument(
        "--cache-dir",
        help="cache directory (defaults to $NORTON_CACHE_DIR, then ~/.cache/nortonalg)",
    )
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format",
    )
    counting = argparse.ArgumentParser(add_help=False)
    counting.add_argument(
        "--m-max",
        type=int,
        default=4,
        dest="m_max",
        help=f"largest number of product signs (at most {MAX_M})",
    )
    counting.add_argument(
        "--strategy",
        choices=("tensor", "pattern", "auto"),
        default="auto",
        help="equivalence counting strategy",
    )
    counting.add_argument(
        "--budget-fingerprint",
        type=int,
        default=DEFAULT_FINGERPRINT_BUDGET,
        help="largest probe tensor size (in entries) the tensor strategy may use",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    both = [common, counting]
    for verb, run, parents, help_text in (
        ("build", cmd_build, [common], "construct, validate, and cache one instance"),
        ("verify", cmd_verify, both, "check class counts against the predicted branch"),
        ("classes", cmd_classes, both, "list equivalence classes of parenthesizations"),
        ("spectrum", cmd_spectrum, [common], "print eigenvalues and multiplicities"),
        ("product-table", cmd_product_table, [common], "print all pairwise products in closed form"),
    ):
        p = sub.add_parser(verb, help=help_text, parents=parents)
        p.add_argument("family", help="johnson, hamming, grassmann, or dualpolar")
        p.add_argument("params", nargs="*", help="family parameters")
        p.set_defaults(run=run)
    table = sub.add_parser("table", help="class count table for several instances", parents=both)
    table.set_defaults(run=cmd_table)
    table.add_argument(
        "instances",
        nargs="*",
        help="instance specs like johnson:4:2 or dualpolar:D:2:2",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else EXIT_INVALID
    # the commands without counting options parse no --m-max or fingerprint budget
    given = vars(args)
    try:
        if args.budget_vertices <= 0 or given.get("budget_fingerprint", 1) <= 0:
            raise ValueError("budgets must be positive")
        if not 0 <= given.get("m_max", 0) <= MAX_M:
            raise ValueError(f"--m-max must be between 0 and {MAX_M}")
        args.cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
        payload, rows, code = args.run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NortonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    if args.format == "csv":
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        sys.stdout.write(text.getvalue())
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
