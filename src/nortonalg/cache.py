"""JSON cache of built instances, one file per graph and code tag.

Past its "code_tag", a file stores only what the solve produced: "coords",
one integer row per point over "coords_den", with "basis" the basis points'
indices.  The eigenvalues, multiplicities and "graph_sha256" (graph_digest
of the vertices, points, incidence and point counts, which fix every
distance) are stale checks against a rebuild of the graph from the
parameters; the digest fixes the points' order, so row p of coords is
rebuilt point p, and every row is checked against the rebuilt incidence:
coords_den times a centered point indicator must be its coords row times
those of the basis points, or the file is stale.  No structure constant is stored: norton.algebra_from_coords reads
the cube off the closed-form rows of the basis pairs of the rebuilt graph,
as a build does, and the labels, the preferred pair and its line and the
notes come from the rebuilt graph too.
load_cache decodes every field in one step (_decode) before it rebuilds
anything: a missing key, a wrong JSON type, a table of the wrong shape or
basis rows that are not coords_den e_i make the file malformed, a
ConstructionError.  Bump CODE_TAG whenever a change could invalidate
stored coordinates; old entries are then ignored.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

try:  # CPython's own SHA-256: hashlib's loads OpenSSL, 3.5 MB of resident memory
    from _sha256 import sha256
except ImportError:  # renamed _sha2 in Python 3.12
    from hashlib import sha256

from .errors import ConstructionError
from .graphs import DEFAULT_VERTEX_BUDGET, GraphInstance
from .instances import FAMILIES, InstanceBundle, build_graph, family_key, normalize_params
from .intlinalg import exact_matmul, exact_multiply
from .norton import algebra_from_coords
from .spectral import spectral_data

CODE_TAG = "6"

_ENV_CACHE_DIR = "NORTON_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nortonalg"


def cache_path(cache_dir, name: str, params) -> Path:
    """The file of the family build_graph(name, params) builds, so J(n, k)
    and its complement J(n, n-k) share one."""
    params = normalize_params(name, params)
    name, params = family_key(FAMILIES[name][0](*params))
    stem = "-".join([name] + [str(p) for p in params])
    return Path(cache_dir) / f"{stem}-v{CODE_TAG}.json"


def graph_digest(g: GraphInstance) -> str:
    """SHA-256 (hex) of the vertices and points, in order, of the point
    counts and of the incidence matrix, which together fix every distance."""
    h = sha256(repr((g.vertices, g.lattice.levels[1], g.point_counts)).encode())
    # n and the points fix the shape, and 0/1 entries fit a byte
    h.update(np.ascontiguousarray(g.incidence, dtype=np.uint8).data)
    return h.hexdigest()


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
    alg = bundle.algebra
    payload = {
        "code_tag": CODE_TAG,
        "graph_sha256": graph_digest(bundle.graph),
        "eigenvalues": list(bundle.spectral.eigenvalues),
        "multiplicities": list(bundle.spectral.multiplicities),
        "coords_den": alg.coords_den,
        "coords": alg.coords.tolist(),
        "basis": list(alg.basis),
    }
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    target = cache_path(directory, *family_key(bundle.graph.family))
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


def _decode(payload: dict, target) -> tuple:
    """Every field past the header, checked: (the stored digest and
    spectrum, basis, coords_den, coords)."""

    def get(key, kind=list):
        if type(payload.get(key)) is not kind:
            why = f"no {key}" if key not in payload else f"{key} is not a JSON {kind.__name__}"
            raise ConstructionError(f"{target} is malformed: {why}")
        return payload[key]

    stored = {key: get(key) for key in ("eigenvalues", "multiplicities")}
    stored["graph_sha256"] = get("graph_sha256", str)
    coords_den, coords, basis = get("coords_den", int), get("coords"), get("basis")
    dim = len(basis)
    if not (
        dim and coords_den > 0
        and _is_int_table(coords, (len(coords), dim)) and _is_int_table(basis, (dim,))
    ):
        raise ConstructionError(f"{target} is malformed: not integer tables over dim {dim}")
    # repeated indices give repeated rows, which are not all unit rows
    unit = [[coords_den * (i == j) for j in range(dim)] for i in range(dim)]
    if not all(0 <= i < len(coords) for i in basis) or [coords[i] for i in basis] != unit:
        raise ConstructionError(f"{target} is malformed: basis rows are not coords_den e_i")
    return stored, basis, coords_den, np.array(coords, dtype=object)


def load_cache(
    name: str, params, cache_dir, budget: int = DEFAULT_VERTEX_BUDGET
) -> Optional[InstanceBundle]:
    """Rebuild a bundle from cache, or None when absent or tagged stale.

    The graph is rebuilt from the parameters under the vertex budget, as
    build_instance does, and its digest and spectrum must match the file's,
    so a cache file can never silently disagree with the code that made it.
    The cube is read off the rebuilt graph's closed forms of the basis
    pairs, which the digest ties to the graph the build's sweep proved them
    on; the rest of the validation battery of build_instance is not
    repeated, and no formula row past the basis pairs is formed.
    """
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
    stored, basis, coords_den, coords = _decode(payload, target)
    g = build_graph(name, params, budget=budget)
    if stored["graph_sha256"] != graph_digest(g):
        raise ConstructionError(f"{target} is stale: graph no longer matches")
    if len(coords) != len(g.lattice.levels[1]):
        raise ConstructionError(f"{target} is stale: coords do not hold one row per point")
    sd = spectral_data(g)
    for key in ("eigenvalues", "multiplicities"):
        fresh = list(getattr(sd, key))
        if stored[key] != fresh:
            raise ConstructionError(f"{target} is stale: stored {key} {stored[key]} != {fresh}")
    # the centered point indicators n M^T - |upper set| span V_1, so dim V_1
    # of them as the basis fix every row of coords exactly
    m = g.incidence
    centered = g.vertex_count * m.T - m.sum(axis=0)[:, None]
    if len(basis) != sd.multiplicities[1] or (
        exact_matmul(coords, centered[basis]) != exact_multiply(coords_den, centered)
    ).any():
        raise ConstructionError(f"{target} is stale: coords are not the points over the basis")
    algebra = algebra_from_coords(g, basis, coords_den, coords)
    return InstanceBundle(g, sd, algebra, None)
