"""JSON cache of built instances keyed by family, parameters, and code tag.

A cache entry stores everything expensive to recompute: the distance matrix
(as a stale-data check against a fresh rebuild of the graph), eigenvalues
and multiplicities, and the algebra's basis, coordinates, and structure
constants.  The spectrum is not trusted from the file: on load it is
recomputed from the rebuilt graph's intersection array, and the stored
eigenvalues and multiplicities must agree with it.  Every rational travels
as a "numerator/denominator" string.

Bump CODE_TAG whenever a change could invalidate stored structure
constants; old entries are then ignored instead of trusted.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import ConstructionError
from .instances import InstanceBundle, build_graph, family_key, normalize_params
from .norton import NortonAlgebra
from .binop import BilinearOperation
from .spectral import spectral_data

CODE_TAG = "1"

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


def frac_str(f) -> str:
    """"p/q" for a Fraction (or an int, as p/1); the cache and CLI text form."""
    return f"{f.numerator}/{f.denominator}"


def _frac_list(values):
    return [frac_str(v) for v in values]


def _parse_frac(text) -> Fraction:
    """Fraction(text), reading the "p/q" form that frac_str writes directly.

    Decimal digits with an optional leading minus over decimal digits are
    exactly the strings of that form Fraction's parser accepts, so only
    the regex parse is skipped; anything else goes to Fraction itself.
    """
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        digits = num[1:] if num.startswith("-") else num
        if slash and digits.isdecimal() and den.isdecimal():
            return Fraction(int(num), int(den))
    return Fraction(text)


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
    payload = {
        "code_tag": CODE_TAG,
        "family": name,
        "params": list(params),
        "vertices": [list(v) if isinstance(v, tuple) else v for v in g.vertices],
        "dist": g.dist.tolist(),
        "eigenvalues": list(bundle.spectral.eigenvalues),
        "multiplicities": list(bundle.spectral.multiplicities),
        "basis_labels": [list(x) for x in alg.basis_labels],
        "structure_constants": [
            [_frac_list(row) for row in plane] for plane in alg.operation.constants
        ],
        "label_coords": [
            [list(label), _frac_list(coords)]
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
            json.dump(payload, fh, indent=1)
            fh.write("\n")
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
    cube = [
        [[_parse_frac(c) for c in row] for row in plane]
        for plane in payload["structure_constants"]
    ]
    label_coords = {
        _detuple(label): tuple(map(_parse_frac, coords))
        for label, coords in payload["label_coords"]
    }
    alg = NortonAlgebra(
        family=g.family,
        dim=len(payload["basis_labels"]),
        basis_labels=_detuple(payload["basis_labels"]),
        operation=BilinearOperation(cube),
        label_coords=label_coords,
        one_off=_detuple(payload["one_off"]),
        one_off_line=_detuple(payload["one_off_line"]),
        notes=tuple(payload["notes"]),
    )
    return InstanceBundle(g, sd, alg, None)
