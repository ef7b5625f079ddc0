"""Pipeline, cache, and command line behavior.

Exit codes are the contract here: 0 success, 1 verification mismatch,
2 invalid parameters, 3 budget exceeded.  Most tests drive main() in
process; subprocess tests confirm the installed entry point and that a
large tensor count and a past-desk-scale build fit a bounded address space.
"""

import copy
import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from nortonalg import cache, cli, graphs, intlinalg
from nortonalg.cache import (
    CODE_TAG,
    cache_path,
    default_cache_dir,
    load_cache,
    write_cache,
)
from nortonalg.classify import _depth_rows, count_norton_classes, verify_classification
from nortonalg.cli import main
from nortonalg.errors import BudgetExceededError, ConstructionError
from nortonalg.graphs import check_distance_regular
from nortonalg.instances import (
    build_graph,
    build_instance,
    normalize_params,
    parse_instance_spec,
)
from nortonalg.norton import NortonAlgebra
from nortonalg.trees import catalan, enumerate_trees
from conftest import run_optimized


def run_cli(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# instance specs


def test_parse_instance_spec():
    assert parse_instance_spec("johnson:4:2") == ("johnson", (4, 2))
    assert parse_instance_spec("hamming:2:3") == ("hamming", (2, 3))
    assert parse_instance_spec("grassmann:2:4:2") == ("grassmann", (2, 4, 2))
    assert parse_instance_spec("dualpolar:D:2:2") == ("dualpolar", ("D", 2, 2))
    assert parse_instance_spec(" Johnson : 3 : 1 ") == ("johnson", (3, 1))


@pytest.mark.parametrize(
    "bad",
    ["petersen:5:2", "johnson:3", "johnson:3:1:0", "johnson:three:one", "dualpolar:D:2"],
)
def test_parse_instance_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_instance_spec(bad)


def test_normalize_params_accepts_string_integers():
    assert normalize_params("grassmann", ["2", "4", "2"]) == (2, 4, 2)
    assert normalize_params("dualpolar", ["C", "2", "2"]) == ("C", 2, 2)


def test_build_instance_bundle():
    bundle = build_instance("johnson", (3, 1))
    assert bundle.label() == "J(3,1)"
    assert bundle.graph.vertex_count == 3
    assert bundle.spectral.eigenvalues == (2, -1)
    assert bundle.algebra.dim == 2
    assert bundle.formula_report is not None
    assert bundle.formula_report.max_discrepancy == 0


# ---------------------------------------------------------------------------
# cache


def test_cache_round_trip_reproduces_reports(tmp_path):
    bundle = build_instance("hamming", (1, 3))
    write_cache(bundle, tmp_path)
    loaded = load_cache("hamming", (1, 3), tmp_path)
    assert loaded is not None
    assert loaded.graph.vertices == bundle.graph.vertices
    assert loaded.spectral.eigenvalues == bundle.spectral.eigenvalues
    assert loaded.spectral.coefficients == bundle.spectral.coefficients
    assert loaded.algebra.basis_labels == bundle.algebra.basis_labels
    assert loaded.algebra.operation.constants == bundle.algebra.operation.constants
    assert loaded.algebra.label_coords == bundle.algebra.label_coords
    assert loaded.algebra.one_off == bundle.algebra.one_off
    for m in range(1, 5):
        fresh = count_norton_classes(bundle.algebra, m)
        cached = count_norton_classes(loaded.algebra, m)
        assert fresh.to_json_dict() == cached.to_json_dict()
    fresh = verify_classification(bundle.algebra, 4)
    cached = verify_classification(loaded.algebra, 4)
    assert fresh.to_json_dict() == cached.to_json_dict()


def test_cache_serializes_coords_as_integer_table(tmp_path):
    bundle = build_instance("johnson", (5, 2))
    op = bundle.algebra.operation
    target = write_cache(bundle, tmp_path)
    payload = json.loads(target.read_text())
    assert payload["code_tag"] == CODE_TAG
    # one row per point over coords_den, and nothing else: no structure
    # constant, no labels, no vertex list and no distance matrix
    assert set(payload) == {
        "code_tag", "graph_sha256", "eigenvalues", "multiplicities",
        "coords_den", "coords", "basis",
    }
    coords = payload["coords"]
    assert [len(row) for row in coords] == [op.dimension] * 5
    assert all(type(x) is int for row in coords for x in row) and payload["coords_den"] > 0
    assert payload["basis"] == [0, 1, 2, 3]
    loaded = load_cache("johnson", (5, 2), tmp_path).algebra
    assert loaded.operation.constants == op.constants
    assert any(c.denominator > 1 for plane in op.constants for row in plane for c in row)
    assert loaded.label_coords == bundle.algebra.label_coords


@pytest.mark.parametrize(
    "text",
    ["-7/2", "6/8", "0/1", "-0/5", "\u0663/\u0664", "+3/4", " 3/4", "1_0/3", "3", "1.5",
     "1/0", "3/-4", "3 /4", "3/ 4", "--3/4", "-/4", "/4", "3/", "\u00b2/3", "x"],
)
def test_cache_parses_rationals_exactly_like_fraction(tmp_path, text):
    # every rational Fraction reads from text round-trips exactly through
    # the point coordinates, and a coordinate that is not the point's own
    # is refused as stale.  The text itself is never parsed, valid or not
    bundle = build_instance("johnson", (3, 1))
    alg = bundle.algebra
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is not None:
        coords = dict(alg.label_coords)
        assert coords[(3,)] == (-1, -1)  # (3,) is no basis point
        coords[(3,)] = (value, coords[(3,)][1])
        bundle.algebra = NortonAlgebra.of_fractions(
            alg.family, alg.operation, coords, alg.one_off, alg.basis_labels
        )
        write_cache(bundle, tmp_path)
        if value != -1:
            with pytest.raises(ConstructionError, match="stale: coords"):
                load_cache("johnson", (3, 1), tmp_path)
        else:
            loaded = load_cache("johnson", (3, 1), tmp_path).algebra
            assert loaded.label_coords == coords
            assert loaded.operation.constants == alg.operation.constants
    target = write_cache(build_instance("johnson", (3, 1)), tmp_path)
    payload = json.loads(target.read_text())
    payload["coords"][2][0] = text
    target.write_text(json.dumps(payload))
    with pytest.raises(ConstructionError, match="malformed"):
        load_cache("johnson", (3, 1), tmp_path)


def _tamper(payload, kind):
    """The payload with one kind of damage; a few kinds replace it whole."""
    if kind == "payload a list":
        return [payload]
    if kind == "str label coordinate":
        payload["coords"][2][0] = "1/2"
    elif kind == "bool label coordinate":
        payload["coords"][2][0] = True
    elif kind == "zero label den":
        payload["coords_den"] = 0
    elif kind == "negative coords den":
        payload["coords_den"] = -1
    elif kind == "short coords row":
        payload["coords"][2].pop()
    elif kind == "str basis index":
        payload["basis"][0] = "0"
    elif kind == "basis index out of range":
        payload["basis"][0] = 9
    elif kind == "repeated basis index":
        payload["basis"][1] = payload["basis"][0]
    elif kind == "basis rows swapped":
        coords = payload["coords"]
        coords[0], coords[1] = coords[1], coords[0]
    elif kind.startswith("missing "):
        del payload[kind.removeprefix("missing ")]
    elif kind.endswith((" 3", " 5")):
        key, value = kind.split()
        payload[key] = int(value)
    return payload


# a J(3,1) file holds coords [[1, 0], [0, 1], [-1, -1]] over coords_den 1,
# with basis [0, 1]: the label coordinates of the points (1), (2) and (3)
MALFORMED = [
    "str label coordinate", "bool label coordinate", "zero label den",
    "negative coords den", "short coords row", "missing coords", "missing coords_den",
    "missing basis", "missing graph_sha256", "missing eigenvalues", "payload a list",
    "basis 3", "coords 5", "graph_sha256 3", "str basis index",
    "basis index out of range", "repeated basis index", "basis rows swapped",
]


@pytest.mark.parametrize("kind", MALFORMED)
def test_cache_rejects_malformed_tables(capsys, tmp_path, kind):
    bundle = build_instance("johnson", (3, 1))
    target = write_cache(bundle, tmp_path)
    payload = _tamper(json.loads(target.read_text()), kind)
    target.write_text(json.dumps(payload))
    with pytest.raises(ConstructionError, match="malformed"):
        load_cache("johnson", (3, 1), tmp_path)
    code, out = run_cli(
        capsys, "verify", "johnson", "3", "1", "--cache-dir", str(tmp_path)
    )
    assert (code, out) == (1, "")


@pytest.mark.parametrize("kind", ["two labels swapped", "a label dropped", "a non-point"])
def test_cache_refuses_label_coords_that_are_not_the_points(capsys, tmp_path, kind):
    # row p of coords holds the label coordinates of rebuilt point p, so the
    # rows must be one per point, and a basis point's row is its unit vector;
    # J(3,1) has basis points (1) and (2), and (3) is their negated sum
    target = write_cache(build_instance("johnson", (3, 1)), tmp_path)
    payload = json.loads(target.read_text())
    coords = payload["coords"]
    if kind == "two labels swapped":
        coords[1], coords[2] = coords[2], coords[1]
        match = "malformed: basis rows are not coords_den e_i"
    elif kind == "a label dropped":
        coords.pop()
        match = "stale: coords do not hold one row per point"
    else:
        coords.append([1, 1])
        match = "stale: coords do not hold one row per point"
    target.write_text(json.dumps(payload))
    with pytest.raises(ConstructionError, match=match):
        load_cache("johnson", (3, 1), tmp_path)
    assert run_cli(capsys, "verify", "johnson", "3", "1", "--cache-dir", str(tmp_path)) == (1, "")


@pytest.mark.parametrize(
    "kind", ["non-basis rows swapped", "one entry changed", "a dependent basis point"]
)
def test_cache_refuses_coords_that_are_not_the_points_over_the_basis(capsys, tmp_path, kind):
    # H(2,3) has basis points 0, 1, 3 and 4; point 2 is -(0) - (1) and
    # point 5 is -(3) - (4).  Every row of coords is checked against the
    # rebuilt incidence, so no row can be swapped, changed or padded
    target = write_cache(build_instance("hamming", (2, 3)), tmp_path)
    payload = json.loads(target.read_text())
    assert payload["basis"] == [0, 1, 3, 4]
    coords = payload["coords"]
    if kind == "non-basis rows swapped":
        coords[2], coords[5] = coords[5], coords[2]
    elif kind == "one entry changed":
        coords[5][0] += 1
    else:
        # point 5 as a fifth basis vector: its row is e_5, and every other
        # row keeps its true coordinates
        for p, row in enumerate(coords):
            row.append(int(p == 5))
        coords[5] = [0, 0, 0, 0, 1]
        payload["basis"].append(5)
    target.write_text(json.dumps(payload))
    with pytest.raises(ConstructionError, match="stale: coords are not the points over the basis"):
        load_cache("hamming", (2, 3), tmp_path)
    assert run_cli(capsys, "verify", "hamming", "2", "3", "--cache-dir", str(tmp_path)) == (1, "")


CACHED_INSTANCES = [
    ("johnson", (3, 1)), ("johnson", (4, 1)), ("johnson", (4, 2)), ("johnson", (5, 2)),
    ("grassmann", (2, 4, 2)), ("hamming", (2, 2)), ("hamming", (1, 3)), ("hamming", (2, 3)),
    ("hamming", (1, 4)), ("dualpolar", ("D", 2, 2)), ("dualpolar", ("C", 2, 2)),
    ("dualpolar", ("D", 3, 2)), ("johnson", (6, 4)),
]


CACHED_IDS = ["-".join(map(str, (n, *p))) for n, p in CACHED_INSTANCES]


@pytest.mark.parametrize("name, params", CACHED_INSTANCES, ids=CACHED_IDS)
def test_cache_derives_the_one_off_pair_from_the_rebuilt_graph(tmp_path, name, params):
    # the loaded algebra is the built one, table for table and view for view
    bundle = build_instance(name, params)
    target = write_cache(bundle, tmp_path)
    assert not {"one_off", "one_off_line", "notes"} & json.loads(target.read_text()).keys()
    loaded = load_cache(name, params, tmp_path)
    built, alg = bundle.algebra, loaded.algebra
    assert (alg.operation.den, alg.coords_den) == (built.operation.den, built.coords_den)
    assert np.array_equal(alg.operation.flat, built.operation.flat)
    assert np.array_equal(alg.coords, built.coords)
    for attr in ("basis", "label_coords", "basis_labels", "one_off", "one_off_line"):
        assert getattr(alg, attr) == getattr(built, attr)
    for m in range(4):
        assert _depth_rows(alg, m) == _depth_rows(built, m)
    # notes come from the graph the requested parameters build: D_2(2) keeps
    # its note, and J(6,4), stored as J(6,2), keeps its complement note
    assert loaded.graph.notes == bundle.graph.notes
    noted = (("dualpolar", ("D", 2, 2)), ("johnson", (6, 4)))
    assert bool(loaded.graph.notes) == ((name, params) in noted)


def _spy_on_load_cache(monkeypatch):
    """Record, for each cli.load_cache call, whether it was a hit."""
    hits, real = [], cli.load_cache
    monkeypatch.setattr(
        cli, "load_cache", lambda *a, **k: hits.append(real(*a, **k)) or hits[-1]
    )
    return hits


def test_complemented_johnson_spec_reads_the_file_its_build_wrote(
    capsys, monkeypatch, tmp_path
):
    verify = ["verify", "johnson", "6", "4", "--m-max", "4", "--cache-dir"]
    cold = run_cli(capsys, *verify, str(tmp_path / "cold"))
    assert run_cli(capsys, "build", "johnson", "6", "4", "--cache-dir", str(tmp_path))[0] == 0
    assert [p.name for p in tmp_path.glob("*.json")] == [f"johnson-6-2-v{CODE_TAG}.json"]
    hits = _spy_on_load_cache(monkeypatch)
    assert run_cli(capsys, *verify, str(tmp_path)) == cold
    assert [hit is not None for hit in hits] == [True]


WARM_COMMANDS = (
    ("verify", "--m-max", "5"), ("classes", "--m-max", "4"), ("spectrum",), ("product-table",)
)


@pytest.mark.parametrize("name, params", CACHED_INSTANCES, ids=CACHED_IDS)
def test_warm_runs_print_what_cold_runs_print(capsys, monkeypatch, tmp_path, name, params):
    words = [name, *map(str, params)]
    warm, cold = str(tmp_path / "warm"), str(tmp_path / "cold")
    assert run_cli(capsys, "build", *words, "--cache-dir", warm)[0] == 0
    hits = _spy_on_load_cache(monkeypatch)
    for verb, *options in WARM_COMMANDS:
        argv = [verb, *words, *options, "--cache-dir"]
        warm_run = run_cli(capsys, *argv, warm)
        assert warm_run == run_cli(capsys, *argv, cold), verb
    # every warm run was a hit and every cold run a miss
    assert [hit is not None for hit in hits] == [True, False] * len(WARM_COMMANDS)


@pytest.mark.parametrize("text", ["", "{", "[1, 2", "\xff"])
def test_cache_rejects_text_that_is_not_json(capsys, tmp_path, text):
    target = write_cache(build_instance("johnson", (3, 1)), tmp_path)
    target.write_bytes(text.encode("latin-1"))
    with pytest.raises(ConstructionError, match="malformed: not a JSON object"):
        load_cache("johnson", (3, 1), tmp_path)
    assert run_cli(capsys, "verify", "johnson", "3", "1", "--cache-dir", str(tmp_path)) == (1, "")


def test_cache_miss_and_stale_tag(tmp_path):
    assert load_cache("johnson", (3, 1), tmp_path) is None
    bundle = build_instance("johnson", (3, 1))
    target = write_cache(bundle, tmp_path)
    payload = json.loads(target.read_text())
    payload["code_tag"] = "0"
    target.write_text(json.dumps(payload))
    assert load_cache("johnson", (3, 1), tmp_path) is None


def _swapped(items, i, j):
    items = list(items)
    items[i], items[j] = items[j], items[i]
    return tuple(items)


def test_cache_detects_stale_graph(capsys, monkeypatch, tmp_path):
    # the file holds one digest of the graph; a rebuild that differs from
    # the stored graph in its point counts (so in its distances), in the
    # order of two vertices or in the order of two points is refused as stale
    write_cache(build_instance("johnson", (5, 2)), tmp_path)
    g = build_graph("johnson", (5, 2))
    lattice = copy.copy(g.lattice)
    levels = lattice.levels
    lattice.levels = (levels[0], _swapped(levels[1], 0, 1), *levels[2:])
    for stale in (
        dataclasses.replace(g, point_counts=g.point_counts[::-1]),
        dataclasses.replace(g, vertices=_swapped(g.vertices, 0, 1)),
        dataclasses.replace(g, lattice=lattice),
    ):
        monkeypatch.setattr(cache, "build_graph", lambda *a, **k: stale)
        with pytest.raises(ConstructionError, match="stale: graph no longer matches"):
            load_cache("johnson", (5, 2), tmp_path)
        assert run_cli(capsys, "verify", "johnson", "5", "2", "--cache-dir", str(tmp_path)) == (
            1, ""
        )
    monkeypatch.undo()
    assert load_cache("johnson", (5, 2), tmp_path) is not None


@pytest.mark.parametrize(
    "name, params",
    [("johnson", (9, 3)), ("hamming", (4, 3)), ("grassmann", (2, 4, 2))],
    ids=["J(9,3)", "H(4,3)", "J_2(4,2)"],
)
def test_check_and_cache_never_form_the_distance_matrix(monkeypatch, tmp_path, name, params):
    # the distance check on vertex 0's route, the cache digest and a build,
    # write and load read the incidence alone: the n x n former must not run
    def refuse(g):
        raise AssertionError(f"{g.label()}: formed the n x n distances")

    monkeypatch.setattr(graphs, "_distances", refuse)
    check_distance_regular(build_graph(name, params))
    write_cache(build_instance(name, params), tmp_path)
    assert load_cache(name, params, tmp_path) is not None


@pytest.mark.parametrize("key", ["eigenvalues", "multiplicities"])
def test_cache_detects_tampered_spectrum(tmp_path, key):
    bundle = build_instance("johnson", (4, 2))
    target = write_cache(bundle, tmp_path)
    payload = json.loads(target.read_text())
    payload[key][1] += 1
    target.write_text(json.dumps(payload))
    with pytest.raises(ConstructionError, match=f"stale: stored {key}"):
        load_cache("johnson", (4, 2), tmp_path)


def test_cache_path_includes_params_and_tag(tmp_path):
    p = cache_path(tmp_path, "dualpolar", ("D", 2, 2))
    assert p.name == f"dualpolar-D-2-2-v{CODE_TAG}.json"


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("NORTON_CACHE_DIR", str(tmp_path / "boxes"))
    assert default_cache_dir() == tmp_path / "boxes"
    monkeypatch.delenv("NORTON_CACHE_DIR")
    assert default_cache_dir().name == "nortonalg"


# ---------------------------------------------------------------------------
# commands


def test_cli_build_writes_cache_and_summary(capsys, tmp_path):
    code, out = run_cli(
        capsys, "build", "johnson", "3", "1", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["instance"] == "J(3,1)"
    assert summary["eigenvalues"] == [2, -1]
    assert summary["multiplicities"] == [1, 2]
    assert summary["algebra_dimension"] == 2
    assert summary["branch"] == "a000975"
    assert (tmp_path / f"johnson-3-1-v{CODE_TAG}.json").is_file()


def test_cli_build_normalizes_johnson_complement(capsys, tmp_path):
    code, out = run_cli(
        capsys, "build", "johnson", "4", "3", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert json.loads(out)["params"] == [4, 1]


def test_cli_build_flags_exceptional_dual_polar(capsys, tmp_path):
    code, out = run_cli(
        capsys, "build", "dualpolar", "D", "2", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    notes = json.loads(out)["notes"]
    assert any("exceptional" in note for note in notes)


def test_cli_verify_uses_cache_and_matches_fresh(capsys, tmp_path):
    run_cli(capsys, "build", "hamming", "1", "3", "--cache-dir", str(tmp_path))
    code, cached_out = run_cli(
        capsys, "verify", "hamming", "1", "3", "--m-max", "5",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    code, fresh_out = run_cli(
        capsys, "verify", "hamming", "1", "3", "--m-max", "5",
        "--cache-dir", str(tmp_path / "empty"),
    )
    assert code == 0
    assert cached_out == fresh_out
    verdict = json.loads(cached_out)
    assert verdict["counts"] == [1, 1, 2, 5, 10, 21]
    assert verdict["branch"] == "a000975"
    assert verdict["passed"] is True


def test_cli_verify_csv_rows(capsys, tmp_path):
    code, out = run_cli(
        capsys, "verify", "johnson", "4", "1", "--m-max", "4",
        "--format", "csv", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,observed,expected,method"
    assert lines[1:6] == [
        "0,1,1,tensor_exact",
        "1,1,1,tensor_exact",
        "2,2,2,tensor_exact",
        "3,5,5,tensor_exact",
        "4,14,14,tensor_exact",
    ]
    assert lines[-1].startswith("passed,True")


# the stored cube of CODE_TAG 4 ("den" and "structure_constants" over it),
# added back to a file and damaged: a doubled den and cube with one entry
# changed made the old loader report 14 classes at m = 4 where J(3,1) has 10
STORED_CUBE = [
    "doubled and one entry changed", "str entry", "float entry", "bool entry",
    "str den", "float den", "bool den", "zero den", "negative den", "missing den",
    "short row", "missing plane", "flat table", "missing table",
]


@pytest.mark.parametrize("kind", STORED_CUBE)
def test_cli_verify_ignores_a_stored_cube(capsys, tmp_path, kind):
    run_cli(capsys, "build", "johnson", "3", "1", "--cache-dir", str(tmp_path))
    target = tmp_path / f"johnson-3-1-v{CODE_TAG}.json"
    payload = json.loads(target.read_text())
    op = build_instance("johnson", (3, 1)).algebra.operation
    table = op.flat.reshape((op.dimension,) * 3).tolist()
    payload["den"], payload["structure_constants"] = op.den, table
    if kind == "doubled and one entry changed":
        payload["den"] *= 2
        for plane in table:
            for row in plane:
                row[:] = [2 * c for c in row]
        table[0][0][0] = 7
    elif kind.endswith(" entry"):
        table[0][0][0] = {"str": "7/2", "float": 3.5, "bool": True}[kind.split()[0]]
    elif kind.endswith(" den") and not kind.startswith("missing"):
        den = {"str": "1", "float": 1.0, "bool": True, "zero": 0, "negative": -op.den}
        payload["den"] = den[kind.split()[0]]
    elif kind == "missing den":
        del payload["den"]
    elif kind == "short row":
        table[1][0].pop()
    elif kind == "missing plane":
        table.pop()
    elif kind == "flat table":
        payload["structure_constants"] = table[0][0]
    else:
        del payload["structure_constants"]
    target.write_text(json.dumps(payload))
    code, out = run_cli(
        capsys, "verify", "johnson", "3", "1", "--m-max", "4",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["passed"] is True
    assert verdict["counts"] == [1, 1, 2, 5, 10]
    # the coordinates are still read, and checked: one non-basis entry
    # changed is refused as stale
    payload["coords"][2][0] += 1
    target.write_text(json.dumps(payload))
    assert main(["verify", "johnson", "3", "1", "--cache-dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "stale: coords" in err


def test_cli_classes_output(capsys, tmp_path):
    code, out = run_cli(
        capsys, "classes", "johnson", "3", "1", "--m-max", "3",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["class_count"] for r in payload["reports"]] == [1, 2, 5]
    assert payload["reports"][1]["classes"] == [[0], [1]]


def test_cli_spectrum_csv(capsys, tmp_path):
    code, out = run_cli(
        capsys, "spectrum", "johnson", "4", "2", "--format", "csv",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert out.strip().splitlines() == [
        "eigenvalue,multiplicity",
        "4,1",
        "0,3",
        "-2,2",
    ]


def test_cli_product_table(capsys, tmp_path):
    code, out = run_cli(
        capsys, "product-table", "johnson", "3", "1", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == ["[1]", "[2]", "[3]"]
    by_pair = {(e["u"], e["v"]): e["terms"] for e in payload["products"]}
    assert by_pair[("[1]", "[1]")] == [["[1]", "1/1"]]
    assert by_pair[("[1]", "[2]")] == [["[1]", "-1/1"], ["[2]", "-1/1"]]


@pytest.mark.parametrize("per_block", [1, 7])
def test_cli_product_table_is_the_same_in_blocks(capsys, monkeypatch, tmp_path, per_block):
    # J_2(4,2): 35 vertices, 15 points, so 225 ordered pairs in blocks of one
    # pair, or of seven, which does not divide 225
    args = ["product-table", "grassmann", "2", "4", "2", "--cache-dir", str(tmp_path)]
    whole = [run_cli(capsys, *args, "--format", fmt) for fmt in ("json", "csv")]
    monkeypatch.setattr(intlinalg, "BLOCK_CELLS", per_block * 35)
    sizes, real = [], cli.formula_rows

    def recorded(g, u, v):
        sizes.append(len(u))
        return real(g, u, v)

    monkeypatch.setattr(cli, "formula_rows", recorded)
    assert [run_cli(capsys, *args, "--format", fmt) for fmt in ("json", "csv")] == whole
    assert max(sizes) == per_block and sum(sizes) == 2 * 225


def test_cli_table_csv_columns_in_input_order(capsys, tmp_path):
    code, out = run_cli(
        capsys, "table", "johnson:4:1", "johnson:3:1", "johnson:4:2",
        "--m-max", "4", "--format", "csv", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,johnson:4:1,johnson:3:1,johnson:4:2"
    assert lines[1:] == ["1,1,1,1", "2,2,2,1", "3,5,5,1", "4,14,10,1"]


def test_cli_table_branch_columns(capsys, tmp_path):
    code, out = run_cli(
        capsys, "table", "johnson:3:1", "johnson:4:1", "hamming:2:2",
        "dualpolar:D:2:2", "--m-max", "4", "--format", "csv",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1:] == [
        "1,1,1,1,1",
        "2,2,2,1,2",
        "3,5,5,1,5",
        "4,10,14,1,10",
    ]


def test_cli_table_empty_is_header_only(capsys, tmp_path):
    code, out = run_cli(
        capsys, "table", "--format", "csv", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out == "m\n"


def test_cli_table_annotates_failures_and_continues(capsys, tmp_path):
    code = main(
        ["table", "johnson:3:1", "johnson:30:15", "--m-max", "2",
         "--format", "csv", "--cache-dir", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[1:] == ["1,1,error", "2,2,error"]
    assert "johnson:30:15" in captured.err


def test_cli_table_json(capsys, tmp_path):
    code, out = run_cli(
        capsys, "table", "hamming:1:3", "--m-max", "3", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m_values"] == [1, 2, 3]
    assert payload["columns"][0]["counts"] == [1, 2, 5]
    assert payload["columns"][0]["label"] == "H(1,3)"


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "args",
    [
        ["build", "petersen", "5", "2"],
        ["build", "johnson", "3"],
        ["verify", "johnson", "3", "1", "--m-max", "13"],
        ["verify", "johnson", "3", "1", "--budget-fingerprint", "0"],
        ["table", "nosuch:1:2"],
        ["frobnicate"],
        ["verify", "johnson", "3", "1", "--budget-vertices", "-1"],
        ["build", "johnson", "3", "1", "--budget-vertices", "0"],
    ],
)
def test_cli_invalid_parameters_exit_2(args, tmp_path, capsys):
    assert main(args + ["--cache-dir", str(tmp_path)] if args[0] != "frobnicate" else args) == 2
    assert capsys.readouterr().out == ""


def test_cli_accepts_the_largest_m_max(capsys, tmp_path):
    code, out = run_cli(
        capsys, "verify", "johnson", "4", "2", "--m-max", "12", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert json.loads(out)["counts"] == [1] * 13


def test_cli_budget_exceeded_exit_3(capsys, tmp_path):
    assert (
        main(["build", "johnson", "10", "5", "--budget-vertices", "100",
              "--cache-dir", str(tmp_path)])
        == 3
    )
    assert (
        main(["verify", "grassmann", "2", "4", "2", "--m-max", "4",
              "--strategy", "tensor", "--cache-dir", str(tmp_path)])
        == 3
    )


# counts far past the default budget: 3^(10^8), C(2*10^6, 10^6),
# [10^5 5*10^4]_2, the C_(10^5)(2) dual polar count, and a q = 2^61 - 1 whose
# trial division alone would take 2^30 steps
HUGE_PARAMETERS = [
    ("hamming", (100000000, 3)),
    ("johnson", (2000000, 1000000)),
    ("grassmann", (2, 100000, 50000)),
    ("dualpolar", ("C", 100000, 2)),
    ("grassmann", (2**61 - 1, 4, 2)),
]


@pytest.mark.parametrize("family, params", HUGE_PARAMETERS)
def test_budget_refuses_huge_parameters_at_once(family, params, tmp_path):
    # refused from a lower bound on the count, before the count is formed
    result = subprocess.run(
        [sys.executable, "-m", "nortonalg", "build", family, *map(str, params),
         "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert result.returncode == 3
    assert "budget" in result.stderr
    with pytest.raises(BudgetExceededError):
        build_graph(family, params)


def test_prime_q_within_a_huge_budget_is_refused_at_once(tmp_path):
    # q = 2^61 - 1 is within the budget, so its primality is tested before
    # q^4 refuses the graph
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "nortonalg", "build", "grassmann", str(2**61 - 1), "4", "2",
         "--budget-vertices", str(10**20), "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert result.returncode == 3 and "budget" in result.stderr
    assert time.perf_counter() - start < 1


def test_cli_vertex_budget_holds_on_a_warm_cache(capsys, tmp_path):
    # H(2,5) has 25 vertices; a cache hit rebuilds the graph under the same
    # budget as a fresh build, so both refuse it
    warm, cold = tmp_path / "warm", tmp_path / "cold"
    assert main(["build", "hamming", "2", "5", "--cache-dir", str(warm)]) == 0
    capsys.readouterr()
    verify = ["verify", "hamming", "2", "5", "--m-max", "2", "--budget-vertices", "10"]
    for cache_dir in (warm, cold):
        assert main(verify + ["--cache-dir", str(cache_dir)]) == 3
        assert capsys.readouterr().out == ""


def test_cli_unusable_cache_dir_exits_2(capsys, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["build", "johnson", "3", "1", "--cache-dir", str(blocker)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_cache_dir_from_environment(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("NORTON_CACHE_DIR", str(tmp_path / "fromenv"))
    code, _ = run_cli(capsys, "build", "johnson", "3", "1")
    assert code == 0
    assert (tmp_path / "fromenv" / f"johnson-3-1-v{CODE_TAG}.json").is_file()


def test_installed_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "nortonalg", "verify", "johnson", "3", "1",
         "--m-max", "3", "--format", "csv", "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "m,observed,expected,method"


def test_consecutive_main_calls_answer_as_if_alone(capsys, tmp_path):
    # main() builds its parser once per process; a call must not see the
    # calls before it, a failed parse included
    calls = [
        ["verify", "johnson", "5", "2", "--m-max", "5", "--strategy", "pattern"],
        ["verify", "johnson", "5", "2", "--strategy", "nope"],
        ["verify", "johnson", "5", "2"],
    ]
    alone = []
    for argv in calls:
        result = subprocess.run(
            [sys.executable, "-m", "nortonalg", *argv, "--cache-dir", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        alone.append((result.returncode, result.stdout))
    together = [run_cli(capsys, *argv, "--cache-dir", str(tmp_path)) for argv in calls]
    assert together == alone
    assert [code for code, _ in alone] == [0, 2, 0]


def _limit_address_space(limit):
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_tensor_count_fits_one_gib(tmp_path):
    # J(4,1) at m=8: 1430 probe tensors of 3^10 cells each, within the budget;
    # grouping must keep keys, not tensors, to fit a 1 GiB address space.
    # One BLAS thread, since each thread reserves address space of its own.
    result = subprocess.run(
        [sys.executable, "-m", "nortonalg", "verify", "johnson", "4", "1",
         "--m-max", "8", "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: _limit_address_space(1 << 30),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    verdict = json.loads(result.stdout)
    assert verdict["passed"]
    assert verdict["counts"][-1] == 1430
    assert set(verdict["methods"]) == {"tensor_exact"}


@pytest.mark.parametrize(
    "spec, m_max, last",
    [(("hamming", "2", "3"), 7, 85), (("johnson", "4", "1"), 10, 16796)],
    ids=["h23", "j41"],
)
def test_tensor_count_fits_a_quarter_gib(tmp_path, spec, m_max, last):
    # trees are keyed by one memoized evaluation each; only trees that share
    # a key (the merged A000975 classes of H(2,3)) build probe tensors, and
    # those are dropped once their key is split
    result = subprocess.run(
        [sys.executable, "-m", "nortonalg", "verify", *spec,
         "--m-max", str(m_max), "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: _limit_address_space(1 << 28),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    verdict = json.loads(result.stdout)
    assert verdict["passed"]
    assert verdict["counts"][-1] == last
    assert set(verdict["methods"]) == {"tensor_exact"}


GROUPING_RUNS = (("hamming", "2", "3", "--m-max", "6"), ("johnson", "3", "1", "--m-max", "8"))

GROUPING_SCRIPT = """
from nortonalg.cli import main
for run in {runs!r}:
    print(main(["verify", *run, "--cache-dir", {cache!r}]))
"""


def test_tensor_grouping_output_unchanged_under_optimize(tmp_path, capsys):
    # the block split and the child-class merges carry no assert, so a run
    # under python -O prints what a plain run prints
    plain = ""
    for run in GROUPING_RUNS:
        code, out = run_cli(capsys, "verify", *run, "--cache-dir", str(tmp_path))
        assert code == 0 and json.loads(out)["passed"]
        plain += f"{out}{code}\n"
    script = GROUPING_SCRIPT.format(runs=GROUPING_RUNS, cache=str(tmp_path))
    assert run_optimized(script) == plain


def test_pattern_count_fits_half_a_gib(tmp_path):
    # C_2(3) at m = 11: 58 786 trees, keyed by their depth sequences through
    # m + 1 one-off values instead of holding a value block per subtree
    result = subprocess.run(
        [sys.executable, "-m", "nortonalg", "verify", "dualpolar", "C", "2", "3",
         "--m-max", "11", "--strategy", "pattern", "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: _limit_address_space(1 << 29),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    verdict = json.loads(result.stdout)
    assert verdict["passed"]
    assert verdict["counts"] == [catalan(m) for m in range(12)]
    assert set(verdict["methods"]) == {"pattern_certified"}


def test_past_desk_scale_build_fits_one_gib(tmp_path):
    # H(6,3), n = 729: the distance-regularity proof gathers neighbour rows in
    # blocks instead of forming n x n products, so the whole build fits
    result = subprocess.run(
        [sys.executable, "-m", "nortonalg", "build", "hamming", "6", "3",
         "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: _limit_address_space(1 << 30),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    summary = json.loads(result.stdout)
    assert summary["vertices"] == 729
    assert summary["diameter"] == 6
    assert summary["multiplicities"] == [1, 12, 60, 160, 240, 192, 64]


def test_norton_layer_build_fits_half_a_gib(tmp_path):
    # J_2(6,3), n = 1395: E_1 is alpha J + beta M M^T, so the Norton layer
    # holds nothing n x n and works on the 63 vertices that decide col(M)
    result = subprocess.run(
        [sys.executable, "-m", "nortonalg", "build", "grassmann", "2", "6", "3",
         "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: _limit_address_space(1 << 29),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    summary = json.loads(result.stdout)
    assert summary["vertices"] == 1395
    assert summary["diameter"] == 3
    assert summary["multiplicities"] == [1, 62, 588, 744]
