"""JSON cache of built instances keyed by family, parameters, and code tag.

A cache entry stores only what the solve produced: the algebra's basis
labels, its structure constants and the coordinates of every point over the
basis.  The vertices, distance matrix, eigenvalues and multiplicities ride
along as stale-data checks against a fresh rebuild of the graph: the
spectrum is recomputed from the rebuilt graph's intersection array and must
agree with them, and the labels of "label_coords" must be the rebuilt
points, in order.  Everything else is derived from the rebuilt graph: the
preferred pair and its line (norton.one_off_pair) and the graph's notes.
The structure constants travel as the operation's own integer table, "den"
and the dim^3 "structure_constants" numerators over it, and the label
coordinates as integers over one "label_den"; lattice labels are nested
lists of integers.  load_cache decodes every field in one step (_decode)
before it rebuilds anything: a missing key, a wrong JSON type or a table of
the wrong shape makes the file malformed, a ConstructionError.

Bump CODE_TAG whenever a change could invalidate stored structure
constants; old entries are then ignored instead of trusted.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Optional

from .errors import ConstructionError
from .graphs import DEFAULT_VERTEX_BUDGET
from .instances import InstanceBundle, build_graph, family_key, normalize_params
from .norton import NortonAlgebra, one_off_pair
from .binop import BilinearOperation
from .spectral import spectral_data

CODE_TAG = "3"

_ENV_CACHE_DIR = "NORTON_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nortonalg"


def cache_path(cache_dir, name: str, params) -> Path:
    params = normalize_params(name, params)
    stem = "-".join([name] + [str(p) for p in params])
    return Path(cache_dir) / f"{stem}-v{CODE_TAG}.json"


def _is_int_table(value, shape) -> bool:
    """Whether value is nested JSON lists of that shape holding only ints."""
    level = [value]
    for n in shape:
        if not all(type(x) is list and len(x) == n for x in level):
            return False
        level = [x for row in level for x in row]
    return set(map(type, level)) <= {int}


def write_cache(bundle: InstanceBundle, cache_dir) -> Path:
    """Serialize a bundle; the write is atomic (temp file plus rename)."""
    name, params = family_key(bundle.graph.family)
    g = bundle.graph
    alg = bundle.algebra
    label_den = lcm(*(c.denominator for cs in alg.label_coords.values() for c in cs))
    payload = {
        "code_tag": CODE_TAG,
        "family": name,
        "params": list(params),
        "vertices": [list(v) if isinstance(v, tuple) else v for v in g.vertices],
        "dist": g.dist.tolist(),
        "eigenvalues": list(bundle.spectral.eigenvalues),
        "multiplicities": list(bundle.spectral.multiplicities),
        "basis_labels": [list(x) for x in alg.basis_labels],
        "den": alg.operation.den,
        "structure_constants": alg.operation.flat.reshape((alg.dim,) * 3).tolist(),
        "label_den": label_den,
        "label_coords": [
            [list(label), [c.numerator * (label_den // c.denominator) for c in coords]]
            for label, coords in alg.label_coords.items()
        ],
    }
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    target = cache_path(directory, name, params)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


def _label(value):
    """A lattice label from JSON, nested lists of ints, as nested tuples."""
    if type(value) is list:
        return tuple(map(_label, value))
    if type(value) is not int:
        raise TypeError(f"{value!r} in a label")
    return value


def _decode(payload: dict, target) -> tuple:
    """Every field load_cache reads past the header, checked in one step.

    Returns the stored vertices, distances and spectrum, to compare with a
    rebuild, and the algebra's fields as NortonAlgebra takes them.
    """

    def get(key, kind=list):
        if type(payload.get(key)) is not kind:
            why = f"no {key}" if key not in payload else f"{key} is not a JSON {kind.__name__}"
            raise ConstructionError(f"{target} is malformed: {why}")
        return payload[key]

    stored = {key: get(key) for key in ("vertices", "dist", "eigenvalues", "multiplicities")}
    den, label_den, table = get("den", int), get("label_den", int), get("structure_constants")
    pairs = get("label_coords")
    dim = len(get("basis_labels"))
    if not (
        dim and min(den, label_den) > 0 and _is_int_table(table, (dim,) * 3)
        and all(type(pair) is list and len(pair) == 2 for pair in pairs)
        and _is_int_table([coords for _, coords in pairs], (len(pairs), dim))
    ):
        raise ConstructionError(f"{target} is malformed: not integer tables over dim {dim}")
    try:
        stored["vertices"] = [_label(v) for v in stored["vertices"]]
        labels = tuple(map(_label, get("basis_labels")))
        coords = {_label(x): tuple(Fraction(c, label_den) for c in cs) for x, cs in pairs}
    except TypeError as exc:
        raise ConstructionError(f"{target} is malformed: {exc}") from None
    return stored, dict(
        dim=dim,
        basis_labels=labels,
        operation=BilinearOperation.from_int_table(den, table),
        label_coords=coords,
    )


def load_cache(
    name: str, params, cache_dir, budget: int = DEFAULT_VERTEX_BUDGET
) -> Optional[InstanceBundle]:
    """Rebuild a bundle from cache, or None when absent or tagged stale.

    The whole file is decoded first.  The graph itself is then
    reconstructed from the family parameters (cheap) under the vertex
    budget, as build_instance does, and compared against the stored vertex
    order, distance matrix and points, and its spectrum is recomputed and
    compared against the stored eigenvalues and multiplicities, so a cache
    file can never silently disagree with the code that made it.  The
    preferred pair and its line come from the rebuilt graph.  The rest of
    the validation battery of build_instance is not repeated.
    """
    params = normalize_params(name, params)
    target = cache_path(cache_dir, name, params)
    if not target.is_file():
        return None
    try:
        payload = json.loads(target.read_text())
    except ValueError:
        payload = None
    if type(payload) is not dict:
        raise ConstructionError(f"{target} is malformed: not a JSON object")
    if payload.get("code_tag") != CODE_TAG:
        return None
    if payload.get("family") != name or payload.get("params") != list(params):
        raise ConstructionError(f"{target} does not describe {name} {params}")
    stored, algebra = _decode(payload, target)
    g = build_graph(name, params, budget=budget)
    if stored["vertices"] != list(g.vertices) or stored["dist"] != g.dist.tolist():
        raise ConstructionError(f"{target} is stale: graph no longer matches")
    if tuple(algebra["label_coords"]) != g.lattice.levels[1]:
        raise ConstructionError(f"{target} is stale: label_coords are not the points in order")
    sd = spectral_data(g)
    for key, fresh in (
        ("eigenvalues", sd.eigenvalues),
        ("multiplicities", sd.multiplicities),
    ):
        if stored[key] != list(fresh):
            raise ConstructionError(
                f"{target} is stale: stored {key} {stored[key]} != {list(fresh)}"
            )
    pair, line = one_off_pair(g)
    algebra = NortonAlgebra(family=g.family, one_off=pair, one_off_line=line, **algebra)
    return InstanceBundle(g, sd, algebra, None)
