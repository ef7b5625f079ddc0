"""Pipeline, cache, and command line behavior.

Exit codes are the contract here: 0 success, 1 verification mismatch,
2 invalid parameters, 3 budget exceeded.  Most tests drive main() in
process; one subprocess test confirms the installed entry point.
"""

import json
import subprocess
import sys

import pytest

from nortonalg.cache import (
    CODE_TAG,
    cache_path,
    default_cache_dir,
    load_cache,
    write_cache,
)
from nortonalg.classify import count_norton_classes, verify_classification
from nortonalg.cli import RunConfig, main
from nortonalg.errors import ConstructionError
from nortonalg.instances import (
    build_instance,
    normalize_params,
    parse_instance_spec,
)


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


def test_run_config_validate():
    RunConfig(command="verify", m_max=12).validate()
    with pytest.raises(ValueError):
        RunConfig(command="verify", m_max=13).validate()
    with pytest.raises(ValueError):
        RunConfig(command="verify", budget_fingerprint=0).validate()
    with pytest.raises(ValueError):
        RunConfig(command="verify", budget_vertices=-1).validate()


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


def test_cache_serializes_rationals_as_fraction_strings(tmp_path):
    bundle = build_instance("johnson", (3, 1))
    target = write_cache(bundle, tmp_path)
    payload = json.loads(target.read_text())
    assert payload["code_tag"] == CODE_TAG
    flat = [c for plane in payload["structure_constants"] for row in plane for c in row]
    assert all(isinstance(c, str) and "/" in c for c in flat)
    assert "-1/1" in flat and "1/1" in flat


def test_cache_miss_and_stale_tag(tmp_path):
    assert load_cache("johnson", (3, 1), tmp_path) is None
    bundle = build_instance("johnson", (3, 1))
    target = write_cache(bundle, tmp_path)
    payload = json.loads(target.read_text())
    payload["code_tag"] = "0"
    target.write_text(json.dumps(payload))
    assert load_cache("johnson", (3, 1), tmp_path) is None


def test_cache_detects_stale_graph(tmp_path):
    bundle = build_instance("johnson", (3, 1))
    target = write_cache(bundle, tmp_path)
    payload = json.loads(target.read_text())
    payload["dist"][0][1] = 3
    target.write_text(json.dumps(payload))
    with pytest.raises(ConstructionError):
        load_cache("johnson", (3, 1), tmp_path)


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


def test_cli_verify_detects_tampered_cache(capsys, tmp_path):
    run_cli(capsys, "build", "johnson", "3", "1", "--cache-dir", str(tmp_path))
    target = tmp_path / f"johnson-3-1-v{CODE_TAG}.json"
    payload = json.loads(target.read_text())
    payload["structure_constants"][0][0][0] = "7/2"
    target.write_text(json.dumps(payload))
    code, out = run_cli(
        capsys, "verify", "johnson", "3", "1", "--m-max", "4",
        "--cache-dir", str(tmp_path),
    )
    assert code == 1
    verdict = json.loads(out)
    assert verdict["passed"] is False
    assert verdict["failures"] == [[4, 14, 10]]


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
    ],
)
def test_cli_invalid_parameters_exit_2(args, tmp_path, capsys):
    assert main(args + ["--cache-dir", str(tmp_path)] if args[0] != "frobnicate" else args) == 2


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
