"""Spans around the program's layer calls, and the per-layer metrics they give.

The traced run executes the same operations as the untraced one.  While a
traced pass runs, `instrument` replaces each layer function, at the module
attribute through which the pipeline looks it up, with a wrapper that records
a time.perf_counter span (name, start, end, parent, op id).  The calls, their
order and the objects they receive are therefore the program's own; nothing
in the program is edited, and the original functions are restored after the
pass.  Spans stay in memory and are written out when the run ends.

A layer function the program no longer has is skipped, so its metric reads 0
and its time shows up in `cli.self_s`, the op time no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from workloads import catalan

# (metric name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("graphs.build_s", "s"),
    ("graphs.drg_s", "s"),
    ("graphs.vertices", "count"),
    ("spectral.decompose_s", "s"),
    ("spectral.validate_s", "s"),
    ("spectral.closed_form_s", "s"),
    ("norton.sweep_s", "s"),
    ("norton.sweep_pairs", "count"),
    ("norton.sweep_pairs_per_s", "1/s"),
    ("norton.structure_s", "s"),
    ("norton.dim", "count"),
    ("norton.max_bits", "bits"),
    ("classify.pattern_s", "s"),
    ("classify.top_m_s", "s"),
    ("classify.trees", "count"),
    ("classify.justify.signature-distinct", "count"),
    ("classify.justify.fingerprint-verified", "count"),
    ("classify.justify.mod2-theorem", "count"),
    ("classify.justify.zero-operation", "count"),
    ("classify.justify.other", "count"),
    ("binop.tensor_s", "s"),
    ("binop.probe_cells", "count"),
    ("trees.enumerate_s", "s"),
    ("cache.write_s", "s"),
    ("cache.bytes", "bytes"),
    ("cache.load_s", "s"),
    ("cache.hit", "count"),
    ("cache.miss", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.dominant_frac", "ratio"),
)

METHOD_PATTERN = "pattern_certified"
METHOD_TENSOR = "tensor_exact"


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    # Small facts about the call (counts, labels), read when it returned.
    # The call's own objects are not kept, so they are freed as usual.
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            **self.facts,
        }


class Tracer:
    """In-memory span recorder.  One instance per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self._trees_seen: set = set()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = Span(name, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, facts=None):
        """fn with a span around each call; facts(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if facts is not None:
                rec.facts = facts(args, kwargs, result)
            return result

        return traced

    def wrap_enumerate(self, fn):
        """Span only the first (cold) enumeration of each size in the process."""

        @functools.wraps(fn)
        def traced(n, *args, **kwargs):
            if n in self._trees_seen:
                return fn(n, *args, **kwargs)
            self._trees_seen.add(n)
            with self.span("trees.enumerate"):
                return fn(n, *args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.to_json(i)) + "\n")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _max_bits(cube) -> int:
    """Largest numerator or denominator bit length among the constants."""
    best = 0
    for plane in cube:
        for row in plane:
            for c in row:
                f = Fraction(c)
                best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
    return best


def _count_facts(args, kwargs, report):
    facts = {"m": report.m, "method": report.method}
    if report.method == METHOD_PATTERN:
        facts["justifications"] = list(report.merge_justifications or ())
    elif report.method == METHOD_TENSOR:
        facts["p"] = _arg(args, kwargs, 0, "alg").operation.probe_dimension
    return facts


def _patch_points(tracer: Tracer):
    """(owner, attribute, wrapper) for every layer boundary the pipeline crosses."""
    from nortonalg import binop, classify, cli, instances, spectral

    w = tracer.wrap
    points = [
        (cli, "load_cache", lambda f: w("cache.load", f, lambda a, k, r: {"hit": r is not None})),
        (cli, "write_cache", lambda f: w("cache.write", f, lambda a, k, r: {"bytes": Path(r).stat().st_size})),
        (
            instances,
            "build_graph",
            lambda f: w("graphs.build", f, lambda a, k, r: {"vertices": r.vertex_count}),
        ),
        (instances, "check_distance_regular", lambda f: w("graphs.drg", f)),
        (instances, "spectral_data", lambda f: w("spectral.decompose", f)),
        (instances, "closed_form_eigenvalue", lambda f: w("spectral.closed_form", f)),
        (instances, "closed_form_multiplicity", lambda f: w("spectral.closed_form", f)),
        (
            instances,
            "verify_formula_vs_oracle",
            lambda f: w("norton.sweep", f, lambda a, k, r: {"pairs": r.pairs_checked}),
        ),
        (
            instances,
            "structure_constants",
            lambda f: w(
                "norton.structure",
                f,
                lambda a, k, r: {"dim": r.dim, "max_bits": _max_bits(r.operation.constants)},
            ),
        ),
        (classify, "count_norton_classes", lambda f: w("classify.count", f, _count_facts)),
        (classify, "enumerate_trees", tracer.wrap_enumerate),
        (binop, "enumerate_trees", tracer.wrap_enumerate),
    ]
    if hasattr(spectral, "SpectralData"):
        points.append(
            (spectral.SpectralData, "validate", lambda f: w("spectral.validate", f))
        )
    return points


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, make in _patch_points(tracer):
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize_pass(spans: list[Span], first: int, dominant: tuple) -> dict:
    """Per-layer figures of the pass whose spans start at index first."""
    out = {name: 0 for name, _ in PER_LAYER}
    simple = {
        "graphs.build": "graphs.build_s",
        "graphs.drg": "graphs.drg_s",
        "spectral.decompose": "spectral.decompose_s",
        "spectral.validate": "spectral.validate_s",
        "spectral.closed_form": "spectral.closed_form_s",
        "norton.sweep": "norton.sweep_s",
        "norton.structure": "norton.structure_s",
        "trees.enumerate": "trees.enumerate_s",
        "cache.write": "cache.write_s",
        "cache.load": "cache.load_s",
    }
    wall = 0.0
    top_m = {}  # op -> (largest m counted, its seconds)
    children = {}
    for s in spans[first:]:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.seconds
    for index, s in enumerate(spans[first:], first):
        if s.name in simple:
            out[simple[s.name]] += s.seconds
        facts = s.facts
        if s.name == "op":
            wall += s.seconds
            out["cli.self_s"] += s.seconds - children.get(index, 0.0)
        elif s.name == "graphs.build" and facts:
            out["graphs.vertices"] += facts["vertices"]
        elif s.name == "norton.sweep" and facts:
            out["norton.sweep_pairs"] += facts["pairs"]
        elif s.name == "norton.structure" and facts:
            out["norton.dim"] += facts["dim"]
            out["norton.max_bits"] = max(out["norton.max_bits"], facts["max_bits"])
        elif s.name == "cache.write" and facts:
            out["cache.bytes"] += facts["bytes"]
        elif s.name == "cache.load" and facts:
            out["cache.hit" if facts["hit"] else "cache.miss"] += 1
        elif s.name == "classify.count" and facts:
            m = facts["m"]
            out["classify.trees"] += catalan(m)
            if facts["method"] == METHOD_PATTERN:
                out["classify.pattern_s"] += s.seconds
                for label in facts["justifications"]:
                    key = f"classify.justify.{label}"
                    out[key if key in out else "classify.justify.other"] += 1
            elif facts["method"] == METHOD_TENSOR:
                out["binop.tensor_s"] += s.seconds
                out["binop.probe_cells"] += catalan(m) * facts["p"] ** (m + 2)
            top = top_m.get(s.op)
            if top is None or m > top[0]:
                top_m[s.op] = (m, s.seconds)
    out["classify.top_m_s"] = sum(seconds for _, seconds in top_m.values())
    if out["norton.sweep_s"] > 0:
        out["norton.sweep_pairs_per_s"] = out["norton.sweep_pairs"] / out["norton.sweep_s"]
    if wall > 0:
        out["trace.dominant_frac"] = sum(out[k] for k in dominant) / wall
    return out


def combine(passes: list[dict], traced_walls: list[float], plain_walls: list[float]) -> dict:
    """Median over traced passes; counters repeat exactly across passes.

    The overhead compares the medians of traced and untraced pass walls.
    """
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trees.enumerate_s":
            pick = sum  # only the first, cold enumeration of each size has a span
        elif unit == "s":
            pick = statistics.median
        else:
            pick = statistics.median_low
        metrics[name] = {"value": pick([p[name] for p in passes]), "unit": unit}
    traced = statistics.median(traced_walls)
    plain = statistics.median(plain_walls)
    metrics["trace.overhead_frac"]["value"] = (traced - plain) / plain
    return metrics
