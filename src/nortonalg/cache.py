"""JSON cache of built instances keyed by family, parameters, and code tag.

A cache entry stores everything expensive to recompute: the distance matrix
(as a stale-data check against a fresh rebuild of the graph), eigenvalues
and multiplicities, and the algebra's basis, coordinates, and structure
constants.  The spectrum is not trusted from the file: on load it is
recomputed from the rebuilt graph's intersection array, and the stored
eigenvalues and multiplicities must agree with it.  The structure constants
travel as the operation's own integer table, "den" and the dim^3
"structure_constants" numerators over it, and the label coordinates as
integers over one "label_den"; anything there but JSON integers of that
shape (positive denominators), or a missing field, is a ConstructionError.

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
from .instances import InstanceBundle, build_graph, family_key, normalize_params
from .norton import NortonAlgebra
from .binop import BilinearOperation
from .spectral import spectral_data

CODE_TAG = "2"

_ENV_CACHE_DIR = "NORTON_CACHE_DIR"

# the fields load_cache reads besides the integer tables
_FIELDS = {"vertices", "dist", "eigenvalues", "multiplicities", "basis_labels",
           "label_coords", "one_off", "one_off_line", "notes"}


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nortonalg"


def cache_path(cache_dir, name: str, params) -> Path:
    params = normalize_params(name, params)
    stem = "-".join([name] + [str(p) for p in params])
    return Path(cache_dir) / f"{stem}-v{CODE_TAG}.json"


def frac_str(f) -> str:
    """"p/q" for a Fraction (or an int, as p/1); the CLI text form."""
    return f"{f.numerator}/{f.denominator}"


def _is_int_table(value, shape) -> bool:
    """Whether value is nested JSON lists of that shape holding only ints."""
    level = [value]
    for n in shape:
        if not all(type(x) is list and len(x) == n for x in level):
            return False
        level = [x for row in level for x in row]
    return set(map(type, level)) <= {int}


def _detuple(obj):
    """JSON lists back to the nested tuples used as lattice labels."""
    if isinstance(obj, list):
        return tuple(_detuple(x) for x in obj)
    return obj


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
        "one_off": [list(x) for x in alg.one_off],
        "one_off_line": [list(x) for x in alg.one_off_line],
        "notes": list(alg.notes),
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


def load_cache(name: str, params, cache_dir) -> Optional[InstanceBundle]:
    """Rebuild a bundle from cache, or None when absent or tagged stale.

    The graph itself is reconstructed from the family parameters (cheap) and
    compared against the stored vertex order and distance matrix, and its
    spectrum is recomputed and compared against the stored eigenvalues and
    multiplicities, so a cache file can never silently disagree with the
    code that made it.  The rest of the validation battery of
    build_instance is not repeated.
    """
    params = normalize_params(name, params)
    target = cache_path(cache_dir, name, params)
    if not target.is_file():
        return None
    with open(target) as fh:
        payload = json.load(fh)
    if payload.get("code_tag") != CODE_TAG:
        return None
    if payload.get("family") != name or _detuple(payload.get("params")) != params:
        raise ConstructionError(f"{target} does not describe {name} {params}")
    missing = _FIELDS - payload.keys()
    if missing:
        raise ConstructionError(f"{target} is malformed: no {', '.join(sorted(missing))}")
    g = build_graph(name, params)
    stored_vertices = [_detuple(v) for v in payload["vertices"]]
    if stored_vertices != list(g.vertices) or payload["dist"] != g.dist.tolist():
        raise ConstructionError(f"{target} is stale: graph no longer matches")
    sd = spectral_data(g)
    for key, fresh in (
        ("eigenvalues", sd.eigenvalues),
        ("multiplicities", sd.multiplicities),
    ):
        if payload[key] != list(fresh):
            raise ConstructionError(
                f"{target} is stale: stored {key} {payload[key]} != {list(fresh)}"
            )
    dim = len(payload["basis_labels"])
    den, table = payload.get("den"), payload.get("structure_constants")
    label_den, pairs = payload.get("label_den"), payload["label_coords"]
    if not (
        dim and _is_int_table([den, label_den], (2,)) and min(den, label_den) > 0
        and _is_int_table(table, (dim,) * 3)
        and all(type(pair) is list and len(pair) == 2 for pair in pairs)
        and _is_int_table([coords for _, coords in pairs], (len(pairs), dim))
    ):
        raise ConstructionError(f"{target} is malformed: not integer tables over dim {dim}")
    label_coords = {
        _detuple(label): tuple(Fraction(x, label_den) for x in coords)
        for label, coords in pairs
    }
    alg = NortonAlgebra(
        family=g.family,
        dim=dim,
        basis_labels=_detuple(payload["basis_labels"]),
        operation=BilinearOperation.from_int_table(den, table),
        label_coords=label_coords,
        one_off=_detuple(payload["one_off"]),
        one_off_line=_detuple(payload["one_off_line"]),
        notes=tuple(payload["notes"]),
    )
    return InstanceBundle(g, sd, alg, None)
