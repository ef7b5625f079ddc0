"""Command line front end.

Exit status is the whole contract for scripting: 0 on success, 1 when a
verification fails or an artifact disagrees with itself, 2 for invalid
parameters, 3 when a computation would exceed its budget.  Output goes to
stdout in one atomic write, as JSON by default or CSV with --format csv.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Optional

from .binop import DEFAULT_FINGERPRINT_BUDGET
from .cache import default_cache_dir, frac_str, load_cache, write_cache
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
    normalize_params,
    parse_instance_spec,
)
from .norton import formula_table

MAX_M = 12

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


@dataclass
class RunConfig:
    command: str
    family: Optional[str] = None
    params: tuple = ()
    instances: tuple = ()
    m_max: int = 4
    strategy: str = "auto"
    budget_vertices: int = DEFAULT_VERTEX_BUDGET
    budget_fingerprint: int = DEFAULT_FINGERPRINT_BUDGET
    cache_dir: Path = None
    fmt: str = "json"

    def validate(self) -> None:
        if self.budget_vertices <= 0 or self.budget_fingerprint <= 0:
            raise ValueError("budgets must be positive")
        if not 0 <= self.m_max <= MAX_M:
            raise ValueError(f"--m-max must be between 0 and {MAX_M}")


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    cache_dir = Path(ns.cache_dir) if ns.cache_dir else default_cache_dir()
    cfg = RunConfig(
        command=ns.command,
        family=getattr(ns, "family", None),
        params=tuple(getattr(ns, "params", ())),
        instances=tuple(getattr(ns, "instances", ())),
        m_max=getattr(ns, "m_max", 4),
        strategy=getattr(ns, "strategy", "auto"),
        budget_vertices=ns.budget_vertices,
        budget_fingerprint=getattr(ns, "budget_fingerprint", DEFAULT_FINGERPRINT_BUDGET),
        cache_dir=cache_dir,
        fmt=ns.format,
    )
    cfg.validate()
    return cfg


def _emit(text: str) -> None:
    sys.stdout.write(text)
    sys.stdout.flush()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _label_str(label) -> str:
    """Deterministic compact text for a lattice label of any shape."""
    return json.dumps(label, separators=(",", ":"))


def _get_bundle(config: RunConfig, name, params) -> InstanceBundle:
    """The cached instance from config.cache_dir, else a fresh build."""
    name = (name or "").lower()
    params = normalize_params(name, params)
    cached = load_cache(name, params, config.cache_dir)
    if cached is not None:
        return cached
    return build_instance(name, params, budget=config.budget_vertices)


def cmd_build(config: RunConfig) -> int:
    name = (config.family or "").lower()
    params = normalize_params(name, config.params)
    bundle = build_instance(name, params, budget=config.budget_vertices)
    target = write_cache(bundle, config.cache_dir)
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
    if config.fmt == "csv":
        rows = [["field", "value"]]
        for key, value in summary.items():
            if isinstance(value, list):
                value = ";".join(str(v) for v in value)
            rows.append([key, value])
        _emit(_csv_text(rows))
    else:
        _emit(_json_text(summary))
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    bundle = _get_bundle(config, config.family, config.params)
    verdict = verify_classification(
        bundle.algebra,
        config.m_max,
        strategy=config.strategy,
        budget=config.budget_fingerprint,
    )
    if config.fmt == "csv":
        rows = [["m", "observed", "expected", "method"]]
        for m, observed, expected, method in zip(
            verdict.m_values, verdict.counts, verdict.expected, verdict.methods
        ):
            rows.append([m, observed, expected, method])
        rows.append(["passed", verdict.passed, "", ""])
        _emit(_csv_text(rows))
    else:
        _emit(_json_text(verdict.to_json_dict()))
    return EXIT_OK if verdict.passed else EXIT_MISMATCH


def cmd_classes(config: RunConfig) -> int:
    bundle = _get_bundle(config, config.family, config.params)
    reports = [
        count_norton_classes(
            bundle.algebra, m, strategy=config.strategy, budget=config.budget_fingerprint
        )
        for m in range(1, config.m_max + 1)
    ]
    if config.fmt == "csv":
        rows = [["m", "class_count", "method", "classes"]]
        for rep in reports:
            packed = ";".join(" ".join(str(i) for i in c) for c in rep.classes)
            rows.append([rep.m, rep.class_count, rep.method, packed])
        _emit(_csv_text(rows))
    else:
        payload = {
            "instance": bundle.label(),
            "reports": [rep.to_json_dict() for rep in reports],
        }
        _emit(_json_text(payload))
    return EXIT_OK


def cmd_spectrum(config: RunConfig) -> int:
    bundle = _get_bundle(config, config.family, config.params)
    sd = bundle.spectral
    if config.fmt == "csv":
        rows = [["eigenvalue", "multiplicity"]]
        rows.extend(
            [theta, mult] for theta, mult in zip(sd.eigenvalues, sd.multiplicities)
        )
        _emit(_csv_text(rows))
    else:
        payload = {
            "instance": bundle.label(),
            "eigenvalues": list(sd.eigenvalues),
            "multiplicities": list(sd.multiplicities),
        }
        _emit(_json_text(payload))
    return EXIT_OK


def cmd_product_table(config: RunConfig) -> int:
    bundle = _get_bundle(config, config.family, config.params)
    table = formula_table(bundle.graph)
    labels = table.labels
    entries = [(u, v, table.product(u, v).items()) for u in labels for v in labels]
    if config.fmt == "csv":
        rows = [["u", "v", "product"]]
        for u, v, terms in entries:
            packed = ";".join(f"{_label_str(w)}={frac_str(c)}" for w, c in terms)
            rows.append([_label_str(u), _label_str(v), packed])
        _emit(_csv_text(rows))
    else:
        payload = {
            "instance": bundle.label(),
            "labels": [_label_str(x) for x in labels],
            "products": [
                {
                    "u": _label_str(u),
                    "v": _label_str(v),
                    "terms": [[_label_str(w), frac_str(c)] for w, c in terms],
                }
                for u, v, terms in entries
            ],
        }
        _emit(_json_text(payload))
    return EXIT_OK


def cmd_table(config: RunConfig) -> int:
    specs = list(config.instances)
    parsed = [parse_instance_spec(s) for s in specs]
    m_values = list(range(1, config.m_max + 1))
    columns = []
    for spec, (name, params) in zip(specs, parsed):
        try:
            bundle = _get_bundle(config, name, params)
            counts = [
                count_norton_classes(
                    bundle.algebra,
                    m,
                    strategy=config.strategy,
                    budget=config.budget_fingerprint,
                ).class_count
                for m in m_values
            ]
            columns.append({"instance": spec, "label": bundle.label(), "counts": counts})
        except (NortonError, ValueError) as exc:
            print(f"table: {spec}: {exc}", file=sys.stderr)
            columns.append({"instance": spec, "error": str(exc)})
    if config.fmt == "json":
        _emit(_json_text({"m_values": m_values, "columns": columns}))
        return EXIT_OK
    rows = [["m"] + specs]
    if specs:
        for i, m in enumerate(m_values):
            row = [m]
            for col in columns:
                row.append(col["counts"][i] if "counts" in col else "error")
            rows.append(row)
    _emit(_csv_text(rows))
    return EXIT_OK


_HANDLERS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "classes": cmd_classes,
    "spectrum": cmd_spectrum,
    "product-table": cmd_product_table,
    "table": cmd_table,
}


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

    def add_instance_command(verb, help_text, parents):
        p = sub.add_parser(verb, help=help_text, parents=parents)
        p.add_argument("family", help="johnson, hamming, grassmann, or dualpolar")
        p.add_argument("params", nargs="*", help="family parameters")
        return p

    add_instance_command(
        "build", "construct, validate, and cache one instance", [common]
    )
    add_instance_command(
        "verify", "check class counts against the predicted branch", [common, counting]
    )
    add_instance_command(
        "classes", "list equivalence classes of parenthesizations", [common, counting]
    )
    add_instance_command("spectrum", "print eigenvalues and multiplicities", [common])
    add_instance_command(
        "product-table", "print all pairwise products in closed form", [common]
    )
    table = sub.add_parser(
        "table",
        help="class count table for several instances",
        parents=[common, counting],
    )
    table.add_argument(
        "instances",
        nargs="*",
        help="instance specs like johnson:4:2 or dualpolar:D:2:2",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else EXIT_INVALID
    try:
        config = _config_from_args(ns)
        return _HANDLERS[config.command](config)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NortonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
