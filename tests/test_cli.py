import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import feederflow.cli as cli_module
import feederflow.dispatch as dispatch_module
import feederflow.solver as solver_module
from feederflow import Device, FeederSegment, GridTree, PerUnitBase, power_density, synthesize
from feederflow.cli import main
from feederflow.scenarios import bundled_grid_path

SINGLE = str(bundled_grid_path("single_feeder"))
TREE = str(bundled_grid_path("feeder_tree"))

BAD_BOUNDS = """\
segments:
  - {id: m, length_km: 5.0, g_pu_per_km: 3.881, b_pu_per_km: 6.856}
devices:
  - {kind: station, segment: m, xi_km: 1.0, p_min_pu: 0.1, p_max_pu: 0.2}
"""

HEAVY = """\
segments:
  - {id: m, length_km: 5.0, g_pu_per_km: 3.881, b_pu_per_km: 6.856}
devices:
  - {kind: load, segment: m, xi_km: 4.5, p_pu: -5.0}
  - {kind: station, segment: m, xi_km: 1.0, p_min_pu: -0.01, p_max_pu: 0.01}
"""

NO_DEVICES = """\
segments:
  - {id: m, length_km: 5.0, g_pu_per_km: 3.881, b_pu_per_km: 6.856}
"""

STATIONS_ONLY = """\
segments:
  - {id: m, length_km: 5.0, g_pu_per_km: 3.881, b_pu_per_km: 6.856}
devices:
  - {kind: station, segment: m, xi_km: 1.5, p_min_pu: -0.05, p_max_pu: 0.05}
  - {kind: station, segment: m, xi_km: 3.5, p_min_pu: -0.05, p_max_pu: 0.05}
"""

NON_FINITE = """\
segments:
  - {id: m, length_km: 5.0, g_pu_per_km: .inf, b_pu_per_km: 6.856}
devices:
  - {kind: load, segment: m, xi_km: 4.0, p_pu: .nan}
  - {kind: station, segment: m, xi_km: 1.0, p_min_pu: -0.03, p_max_pu: .inf}
"""

# the bundled loads doubled: deep sag, linearization visibly off
HEAVY_LOADS = """\
segments:
  - {id: m, length_km: 5.0, g_pu_per_km: 3.881, b_pu_per_km: 6.856}
devices:
""" + "".join(
    f"  - {{kind: load, segment: m, xi_km: {x}, p_pu: -0.12}}\n"
    for x in (0.5, 1.5, 2.5, 3.5, 4.5)
)


def test_validate_ok(capsys):
    assert main(["validate", "--grid", SINGLE]) == 0
    out = capsys.readouterr().out
    assert "segments: 1  devices: 9" in out
    assert "ok" in out


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(BAD_BOUNDS)
    assert main(["validate", "--grid", str(path)]) == 1
    assert "straddle 0" in capsys.readouterr().out


def test_validate_rejects_non_finite_numbers(tmp_path, capsys):
    path = tmp_path / "nonfinite.yaml"
    path.write_text(NON_FINITE)
    assert main(["validate", "--grid", str(path)]) == 1
    out = capsys.readouterr().out
    assert "ok" not in out.splitlines()
    for field in ("g_pu_per_km", "p_pu", "p_max_pu"):
        assert f"{field} must be finite" in out, field
    assert main(["run", "--grid", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "g_pu_per_km must be finite" in capsys.readouterr().err


def test_missing_grid_is_io_error(capsys):
    assert main(["validate", "--grid", "/no/such/file.yaml"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_yaml_is_io_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("segments: [\n")
    assert main(["run", "--grid", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    # a byte that is not UTF-8 is unreadable input too, and the file is named
    path.write_bytes(b"segments:\n  - id: \xff\n")
    assert main(["run", "--grid", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: cannot read: 'utf-8' codec")


def test_domain_error_from_run(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(BAD_BOUNDS)
    assert main(["run", "--grid", str(path)]) == 1
    assert "straddle" in capsys.readouterr().err


@pytest.mark.parametrize("pref", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command", ["run", "compare", "xcheck"])
def test_non_finite_request_is_domain_error(tmp_path, capsys, command, pref):
    out = tmp_path / "o"
    assert main([command, "--grid", SINGLE, f"--pref={pref}", "--out", str(out)]) == 1
    assert "p_ref must be finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("sigma,nodes", [
    ("1e-320", "inf"),      # the cell count overflows
    ("1e-300", "1e+301"),
    ("1e-6", "1e+07"),      # 10^7 cells on 5 km: gigabytes of state arrays
])
@pytest.mark.parametrize("command", ["run", "compare", "xcheck"])
def test_impossible_mesh_is_domain_error(tmp_path, capsys, command, sigma, nodes):
    out = tmp_path / "o"
    assert main([command, "--grid", SINGLE, f"--sigma={sigma}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: sigma={float(sigma)!r} km needs a mesh of {nodes} nodes, "
                   "more than MAX_MESH_NODES=4000000\n")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("sigma,nodes", [
    ("8e-308", "inf"),          # every edge's cell count is finite, their sum is not
    ("1e-307", "1.6e+308"),     # a finite sum beyond 2**1023
])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_mesh_count_beyond_the_float_range_is_domain_error(tmp_path, capsys, command, sigma,
                                                           nodes):
    out = tmp_path / "o"
    assert main([command, "--grid", TREE, f"--sigma={sigma}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: sigma={float(sigma)!r} km needs a mesh of {nodes} nodes, "
                   "more than MAX_MESH_NODES=4000000\n")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("gb", [
    "1e160",     # G**2 raised OverflowError: a traceback
    "1e154",     # |z|^2 was inf: a flat profile and exit 0
    "1e-200",    # |z|^2 was 0: NaN sweeps and exit 3
])
@pytest.mark.parametrize("command", ["run", "compare", "xcheck"])
def test_a_line_whose_z2_is_zero_or_not_finite_is_domain_error(tmp_path, capsys, command, gb):
    path = tmp_path / "line.yaml"
    path.write_text(NO_DEVICES.replace("3.881", gb).replace("6.856", gb)
                    + "devices:\n  - {kind: load, segment: m, xi_km: 4.5, p_pu: -0.1}\n")
    out = tmp_path / "o"
    assert main([command, "--grid", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: invalid grid: segment 'm': |z|^2 = G^2 + B^2 must be positive and finite, "
        f"got G={float(gb)!r}, B={float(gb)!r}\n")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("command", ["run", "compare", "xcheck"])
def test_non_positive_or_non_finite_sigma_is_domain_error(tmp_path, capsys, command, sigma):
    out = tmp_path / "o"
    assert main([command, "--grid", SINGLE, f"--sigma={sigma}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: sigma must be positive and finite, got {float(sigma)!r}\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("spelled", [["--pref", "-5e-2"], ["--pref", "-5E-2"],
                                     ["--pre", "-5e-2"], ["--pref", "-0.5e-1"]])
def test_a_negative_request_in_scientific_notation_reads_as_a_number(tmp_path, capsys, spelled):
    # argparse takes -0.05 and -.05 as numbers but -5e-2 as an option
    outs = []
    for args in (["--pref=-0.05"], spelled):
        out = tmp_path / str(len(outs))
        assert main(["run", "--grid", SINGLE, *args, "--out", str(out)]) == 0
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outs[0] == outs[1]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args,err", [
    (["--sigma", "-1e-3"], "error: sigma must be positive and finite, got -0.001\n"),
    (["--sigma", "-inf"], "error: sigma must be positive and finite, got -inf\n"),
    (["--pref", "-inf"], "error: requested power p_ref must be finite, got -inf\n"),
], ids=["sigma=-1e-3", "sigma=-inf", "pref=-inf"])
@pytest.mark.parametrize("command", ["run", "compare", "xcheck"])
def test_a_negative_number_after_an_option_reaches_the_domain_checks(tmp_path, capsys, command,
                                                                     args, err):
    out = tmp_path / "o"
    assert main([command, "--grid", SINGLE, *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == err
    assert not out.exists() or not any(out.iterdir())


def test_an_option_still_needs_its_value(capsys):
    # only a number is joined to the option before it: an option in the
    # value's place is still a missing value, and --help takes no value
    with pytest.raises(SystemExit) as exc:
        main(["run", "--grid", SINGLE, "--pref", "--mode", "uniform"])
    assert exc.value.code == 2
    assert "argument --pref: expected one argument" in capsys.readouterr().err
    for flag in ("--help", "--he"):
        with pytest.raises(SystemExit) as exc:
            main(["run", flag, "-5e-2"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: feederflow run")


@pytest.mark.filterwarnings("ignore:sigma=")
@pytest.mark.parametrize("sigma", ["1e150", "1.0000000000000002e150", "1e200", "1e308"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_sigma_beyond_the_kernel_range_is_domain_error(tmp_path, capsys, command, sigma):
    # the kernels square sigma: up to 1e150 km they stay finite (and the
    # kernels of the bundled tree overlap, which only warns), beyond it the
    # run stops on one error line instead of an OverflowError
    out = tmp_path / "o"
    code = main([command, "--grid", TREE, f"--sigma={sigma}", "--out", str(out)])
    err = capsys.readouterr().err
    if float(sigma) <= 1e150:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert err == f"error: sigma must be at most 1e+150 km, got {float(sigma)!r}\n"
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("ignore:sigma=")
def test_xcheck_with_no_point_clear_of_the_kernels_is_domain_error(tmp_path, capsys):
    # the bundled feeder's devices sit 0.5 km apart: at sigma 1 km every
    # mesh point lies within 3 sigma of one of them
    out = tmp_path / "o"
    assert main(["xcheck", "--grid", SINGLE, "--sigma=1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: --sigma 1.0 km leaves no mesh point 3 sigma from every device, "
        "the only points where the closed form is compared\n")
    assert not out.exists() or not any(out.iterdir())


def test_compare_caps_the_uniform_split_at_station_bounds(tmp_path):
    # -0.3 / 4 stations is beyond every bundled station's derated bound
    out = tmp_path / "o"
    assert main(["compare", "--grid", SINGLE, "--pref=-0.3", "--out", str(out)]) == 0
    data = json.loads((out / "compare.json").read_text())
    rows = list(csv.DictReader((out / "dispatch_uniform.csv").open()))
    stations = [r for r in rows if r["station_id"] != "TOTAL"]
    assert all(float(r["p_min_eff"]) <= float(r["p_pu"]) <= float(r["p_max_eff"])
               for r in stations)
    assert data["uniform"]["leftover_p"] < 0.0


def test_solver_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "heavy.yaml"
    path.write_text(HEAVY)
    assert main(["run", "--grid", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "collapse" in capsys.readouterr().err


def test_unknown_command_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_run_writes_deterministic_outputs(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--grid", SINGLE, "--out", str(out1)]) == 0
    assert main(["run", "--grid", SINGLE, "--out", str(out2)]) == 0
    for name in ("dispatch.csv", "profile.csv", "metrics.json"):
        b1, b2 = (out1 / name).read_bytes(), (out2 / name).read_bytes()
        assert b1 == b2
        assert b1  # non-empty
    report = json.loads((out1 / "metrics.json").read_text())
    assert report["total_p"] == 0.1
    assert report["leftover_p"] == 0
    text = capsys.readouterr().out
    assert "total_p: 0.1" in text
    assert "sweeps:" in text


def test_run_tree_scenario(tmp_path):
    out = tmp_path / "t"
    assert main(["run", "--grid", TREE, "--pref", "0.01", "--out", str(out)]) == 0
    lines = (out / "dispatch.csv").read_text().splitlines()
    assert lines[-1] == "TOTAL,,0.01,0,,,"
    assert len(lines) == 1 + 16 + 1


def test_run_uniform_and_principle_modes(tmp_path):
    assert main(["run", "--grid", SINGLE, "--mode", "uniform",
                 "--out", str(tmp_path / "u")]) == 0
    assert main(["run", "--grid", SINGLE, "--mode", "principle",
                 "--out", str(tmp_path / "p")]) == 0


def test_out_dir_env_fallback(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("FEEDERFLOW_OUT", str(env_dir))
    assert main(["run", "--grid", SINGLE]) == 0
    assert (env_dir / "metrics.json").exists()
    # --out wins over the environment
    cli_dir = tmp_path / "from-flag"
    assert main(["run", "--grid", SINGLE, "--out", str(cli_dir)]) == 0
    assert (cli_dir / "metrics.json").exists()


def test_compare_reports_stricter_flatness(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--grid", SINGLE, "--out", str(out)]) == 0
    data = json.loads((out / "compare.json").read_text())
    assert data["flatter_max_dev"] is True
    assert data["flatter_l2_dev"] is True
    assert data["synthesized"]["max_dev"] < data["uniform"]["max_dev"]
    assert data["max_dev_reduction_pct"] > 0.0
    assert data["l2_dev_reduction_pct"] > 0.0
    for name in ("dispatch_synthesized.csv", "profile_synthesized.csv",
                 "dispatch_uniform.csv", "profile_uniform.csv"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "flatter_max_dev: True" in text


def test_run_no_devices_flat_profile_zero_metrics(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text(NO_DEVICES)
    out = tmp_path / "o"
    assert main(["run", "--grid", str(path), "--pref", "0", "--out", str(out)]) == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["max_dev"] == 0
    assert report["l2_dev"] == 0
    assert report["min_terminal_v"] == 1
    assert report["total_p"] == 0 and report["leftover_p"] == 0
    with open(out / "profile.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["v_pu"] == "1" for r in rows)


def test_compare_zero_request_reports_no_change(tmp_path):
    path = tmp_path / "idle.yaml"
    path.write_text(STATIONS_ONLY)
    out = tmp_path / "cmp"
    assert main(["compare", "--grid", str(path), "--pref", "0",
                 "--out", str(out)]) == 0
    data = json.loads((out / "compare.json").read_text())
    assert data["synthesized"] == data["uniform"]
    assert data["flatter_max_dev"] is False
    assert data["flatter_l2_dev"] is False
    assert data["max_dev_reduction_pct"] == 0
    assert data["l2_dev_reduction_pct"] == 0


def test_xcheck_no_devices_all_gaps_zero(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text(NO_DEVICES)
    out = tmp_path / "x"
    assert main(["xcheck", "--grid", str(path), "--pref", "0",
                 "--out", str(out)]) == 0
    data = json.loads((out / "xcheck.json").read_text())
    assert data["sup_analytic_vs_linearized"] == 0
    assert data["sup_linearized_vs_nonlinear"] == 0
    assert data["analytic_ok"] is True and data["nonlinear_ok"] is True


def test_xcheck_flags_nonlinear_gap_at_heavy_loading(tmp_path):
    path = tmp_path / "heavy_loads.yaml"
    path.write_text(HEAVY_LOADS)
    out = tmp_path / "x"
    # still exit 0: the report flags the gap, it is not an error
    assert main(["xcheck", "--grid", str(path), "--pref", "0",
                 "--out", str(out)]) == 0
    data = json.loads((out / "xcheck.json").read_text())
    assert data["sup_linearized_vs_nonlinear"] > 1e-3
    assert data["nonlinear_ok"] is False
    assert data["analytic_ok"] is True


def test_metrics_recomputable_from_profile_csv(tmp_path):
    out = tmp_path / "t"
    assert main(["run", "--grid", TREE, "--pref", "0.01", "--out", str(out)]) == 0
    report = json.loads((out / "metrics.json").read_text())
    by_seg: dict[str, list[tuple[float, float, float]]] = {}
    with open(out / "profile.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            by_seg.setdefault(row["segment_id"], []).append(
                (float(row["x_km"]), float(row["v_pu"]), float(row["w"])))
    max_dev, l2 = 0.0, 0.0
    for seg_id, rows in by_seg.items():
        x = np.array([r[0] for r in rows])
        v = np.array([r[1] for r in rows])
        w = np.array([r[2] for r in rows])
        max_dev = max(max_dev, float(np.max(np.abs(v - 1.0))))
        l2 += float(np.trapezoid((v - 1.0) ** 2, x))
        assert abs(report["w_flatness"][seg_id] - float(np.trapezoid(w**2, x))) <= 1e-9
    terminal_v = min(by_seg[sid][-1][1] for sid in ("fdrB", "fdrA1", "fdrA2"))
    assert abs(report["max_dev"] - max_dev) <= 1e-9
    assert abs(report["l2_dev"] - l2) <= 1e-9
    assert abs(report["min_terminal_v"] - terminal_v) <= 1e-9


def test_xcheck_single_feeder_within_gates(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["xcheck", "--grid", SINGLE, "--out", str(out)]) == 0
    data = json.loads((out / "xcheck.json").read_text())
    assert data["analytic_ok"] is True
    assert data["nonlinear_ok"] is True
    assert data["sup_analytic_vs_linearized"] <= 5e-4
    assert data["sup_linearized_vs_nonlinear"] <= 1e-3
    assert data["masked_points"] < data["total_points"]


def test_xcheck_rejects_trees(capsys):
    assert main(["xcheck", "--grid", TREE, "--pref", "0.01"]) == 1
    assert "single straight feeder" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "feederflow.cli", "validate", "--grid", SINGLE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


# sha256 of dispatch.csv from `run --pref 0.1` on each bundled grid, recorded
# when the writer still read the plan's StationDispatch rows
DISPATCH_CSV_SHA256 = {
    ("single_feeder", "literal"): "349fa2b5d05f3ca9d815d19d937f3a77df65cee357e6af081232f29727d3412c",
    ("single_feeder", "principle"): "349fa2b5d05f3ca9d815d19d937f3a77df65cee357e6af081232f29727d3412c",
    ("single_feeder", "uniform"): "23f25e0b22b97f86e7eb0d94d21ab0371e0c17ad2bb1c90c588acc2d10ef74f4",
    ("feeder_tree", "literal"): "2f1bb00193218286357539dfcdf5692ae422f460740ef5d5839df7ebe18a96ab",
    ("feeder_tree", "principle"): "99f289a246fb2f49ad11edebf9ad724a6cd7842033a0cd018ffc767772315878",
    ("feeder_tree", "uniform"): "d9f5dea42f33748308d41dedcb4b8d731a2f8f65124b889fe92cfe967fa5e619",
}


@pytest.mark.parametrize("name,mode", sorted(DISPATCH_CSV_SHA256))
def test_run_reads_plan_columns_and_builds_no_rows(tmp_path, monkeypatch, capsys, name, mode):
    built = []
    row = dispatch_module.StationDispatch

    def counting(*args):
        built.append(args[0])
        return row(*args)

    monkeypatch.setattr(dispatch_module, "StationDispatch", counting)
    grid = str(bundled_grid_path(name))
    assert main(["run", "--grid", grid, "--mode", mode, "--out", str(tmp_path)]) == 0
    assert built == []
    data = (tmp_path / "dispatch.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == DISPATCH_CSV_SHA256[name, mode]
    assert f"stations: {len(data.splitlines()) - 2}" in capsys.readouterr().out


# sha256 of profile.csv and metrics.json from `run --pref 0.1`, and of
# xcheck.json from `xcheck --pref 0.1` on the single feeder, recorded when
# the solver still returned one SegmentProfile per segment
PROFILE_OUTPUT_SHA256 = {
    ("single_feeder", "literal", "profile.csv"): "c1768812752758ceb0ce6351472b8ecb9bf4b34b036e38ef1e78fa15bc61feec",
    ("single_feeder", "literal", "metrics.json"): "94b11e47a127f472aa00f3daccaf43bf4c9929fe6ab2a09be07373203aac69a1",
    ("single_feeder", "literal", "xcheck.json"): "7027a5a041f43de72fb064c0768f16a4f7447a83700e77560423f5c22281f722",
    ("single_feeder", "principle", "profile.csv"): "c1768812752758ceb0ce6351472b8ecb9bf4b34b036e38ef1e78fa15bc61feec",
    ("single_feeder", "principle", "metrics.json"): "94b11e47a127f472aa00f3daccaf43bf4c9929fe6ab2a09be07373203aac69a1",
    ("single_feeder", "principle", "xcheck.json"): "ec4908148ba5c1eee20049192cc247c648e21f2b1fffe9498d20f8bed7d42e29",
    ("single_feeder", "uniform", "profile.csv"): "006570401fff9b8bce882dfea6bf996eae6f74f844a415b70b7ad7d63a6e75f9",
    ("single_feeder", "uniform", "metrics.json"): "69f94580ff49fa039fb07999446d048889381b4474541a4e219403cb83c3af3d",
    ("single_feeder", "uniform", "xcheck.json"): "824c665a23ffca7ce22c1fb52148603cb8a93761824f966e8c07f0540724fe15",
    ("feeder_tree", "literal", "profile.csv"): "09902ab05c1e2d94f58c804ab0951075b3da0e66433ccee4ed88eadb05fe450f",
    ("feeder_tree", "literal", "metrics.json"): "bb2c4c8d72a03adb2f4ae2af5f8a3b95c131edba1e18616f2e2f916e91331bee",
    ("feeder_tree", "principle", "profile.csv"): "41bf01f2b2f398163ba7926d7347e5b7d59f5678a36bbbf49b98b31d9dbad89c",
    ("feeder_tree", "principle", "metrics.json"): "3d2bc176c4fe17edf47072426b14c85dfab7d3622faf42db9e9b312988d44925",
    ("feeder_tree", "uniform", "profile.csv"): "356b687bc2b7a94c329c50aa60a9205b6083c7247366acfc1dfc5f4b4b360541",
    ("feeder_tree", "uniform", "metrics.json"): "fdbe15f99a1cf8e6110e4769fa631f032e8142f0955f9b02f0a078a850d7ea8c",
}


def count_rows(monkeypatch) -> list:
    """The kind of every SegmentProfile, StationDispatch and HandOff row
    built from now on, in order."""
    built = []
    for module, kind in ((solver_module, "SegmentProfile"), (dispatch_module, "StationDispatch"),
                         (dispatch_module, "HandOff")):
        def counting(*args, row=getattr(module, kind)):
            built.append(row.__name__)
            return row(*args)
        monkeypatch.setattr(module, kind, counting)
    return built


@pytest.mark.parametrize("name,mode", sorted({key[:2] for key in PROFILE_OUTPUT_SHA256}))
def test_cli_reads_profile_columns_and_builds_no_rows(tmp_path, monkeypatch, name, mode):
    built = count_rows(monkeypatch)
    grid = str(bundled_grid_path(name))
    pinned = {"run": ("profile.csv", "metrics.json"), "compare": (), "xcheck": ("xcheck.json",)}
    commands = ["run", "compare"] if mode != "uniform" else ["run"]
    if name == "single_feeder":
        commands.append("xcheck")
    for command in commands:
        out = tmp_path / command
        assert main([command, "--grid", grid, "--mode", mode, "--pref", "0.1",
                     "--out", str(out)]) == 0
        for file in pinned[command]:
            digest = hashlib.sha256((out / file).read_bytes()).hexdigest()
            assert digest == PROFILE_OUTPUT_SHA256[name, mode, file], file
    assert built == []


def test_a_rejected_plan_builds_no_rows(monkeypatch):
    # far clamps and hands its residual to near, far outside near's bounds
    grid = GridTree(PerUnitBase(1.0, 1.0), (FeederSegment("main", 5.0, 3.881, 6.856),), (
        Device("station", "main", 3.0, "far", p_min_pu=-0.001, p_max_pu=0.001),
        Device("station", "main", 1.0, "near", p_min_pu=-0.0001, p_max_pu=0.0001),
        Device("load", "main", 3.5, "l", p_pu=-0.5),
    ))
    plan = synthesize(grid, 0.5)
    built = count_rows(monkeypatch)
    with pytest.raises(ValueError) as err:
        power_density(grid, plan)
    assert str(err.value) == ("station 'near': p=0.4991 outside effective bounds "
                              "[-9e-05, 9e-05]; P hand-offs received: 0.4991 from 'far'")
    assert built == []


# sha256 of the five files that `compare --pref 0.1` writes, recorded before
# run, compare and xcheck shared one request step and one evaluate step
COMPARE_OUTPUT_SHA256 = {
    ("single_feeder", "literal", "compare.json"): "e6a2dd63c0299361680919ce8f4d0949fc806686877e2195d6cb567dc9df17b6",
    ("single_feeder", "literal", "dispatch_synthesized.csv"): "349fa2b5d05f3ca9d815d19d937f3a77df65cee357e6af081232f29727d3412c",
    ("single_feeder", "literal", "dispatch_uniform.csv"): "23f25e0b22b97f86e7eb0d94d21ab0371e0c17ad2bb1c90c588acc2d10ef74f4",
    ("single_feeder", "literal", "profile_synthesized.csv"): "c1768812752758ceb0ce6351472b8ecb9bf4b34b036e38ef1e78fa15bc61feec",
    ("single_feeder", "literal", "profile_uniform.csv"): "006570401fff9b8bce882dfea6bf996eae6f74f844a415b70b7ad7d63a6e75f9",
    ("single_feeder", "principle", "compare.json"): "e6a2dd63c0299361680919ce8f4d0949fc806686877e2195d6cb567dc9df17b6",
    ("single_feeder", "principle", "dispatch_synthesized.csv"): "349fa2b5d05f3ca9d815d19d937f3a77df65cee357e6af081232f29727d3412c",
    ("single_feeder", "principle", "dispatch_uniform.csv"): "23f25e0b22b97f86e7eb0d94d21ab0371e0c17ad2bb1c90c588acc2d10ef74f4",
    ("single_feeder", "principle", "profile_synthesized.csv"): "c1768812752758ceb0ce6351472b8ecb9bf4b34b036e38ef1e78fa15bc61feec",
    ("single_feeder", "principle", "profile_uniform.csv"): "006570401fff9b8bce882dfea6bf996eae6f74f844a415b70b7ad7d63a6e75f9",
    ("feeder_tree", "literal", "compare.json"): "f81f0214d173deb16e1f29314156eb319b14d07c7821e58276b0a2e2591f0c9f",
    ("feeder_tree", "literal", "dispatch_synthesized.csv"): "2f1bb00193218286357539dfcdf5692ae422f460740ef5d5839df7ebe18a96ab",
    ("feeder_tree", "literal", "dispatch_uniform.csv"): "d9f5dea42f33748308d41dedcb4b8d731a2f8f65124b889fe92cfe967fa5e619",
    ("feeder_tree", "literal", "profile_synthesized.csv"): "09902ab05c1e2d94f58c804ab0951075b3da0e66433ccee4ed88eadb05fe450f",
    ("feeder_tree", "literal", "profile_uniform.csv"): "356b687bc2b7a94c329c50aa60a9205b6083c7247366acfc1dfc5f4b4b360541",
    ("feeder_tree", "principle", "compare.json"): "bd02ef5e1465bcfa9f4a37d6ce04a2b14190b7c3c31d6174e21913b22498977e",
    ("feeder_tree", "principle", "dispatch_synthesized.csv"): "99f289a246fb2f49ad11edebf9ad724a6cd7842033a0cd018ffc767772315878",
    ("feeder_tree", "principle", "dispatch_uniform.csv"): "d9f5dea42f33748308d41dedcb4b8d731a2f8f65124b889fe92cfe967fa5e619",
    ("feeder_tree", "principle", "profile_synthesized.csv"): "41bf01f2b2f398163ba7926d7347e5b7d59f5678a36bbbf49b98b31d9dbad89c",
    ("feeder_tree", "principle", "profile_uniform.csv"): "356b687bc2b7a94c329c50aa60a9205b6083c7247366acfc1dfc5f4b4b360541",
}

# sha256 of stdout with `--pref 0.1 --out o`, recorded at the same commit;
# xcheck refuses the tree with exit 1, one stderr line and no stdout
STDOUT_SHA256 = {
    ("single_feeder", "literal", "run"): "9d0b49dfb7e037a2ecc1e1e0af0b7fd6c818aca8bd43f23286b52ec279d16471",
    ("single_feeder", "literal", "compare"): "a8c4ae9d188ea91d8d01b94d1b7eebc4932a253398ef7766419b913c2c9de48d",
    ("single_feeder", "literal", "xcheck"): "211561ac876c04c66ad4ed082848c16b5bbc5010df6365642eadff18b97bab5d",
    ("single_feeder", "principle", "run"): "ae52df7b8b4d08eb1737d58dbc73136c8036eee881429987fd995c1f2ddc69c4",
    ("single_feeder", "principle", "compare"): "a8c4ae9d188ea91d8d01b94d1b7eebc4932a253398ef7766419b913c2c9de48d",
    ("single_feeder", "principle", "xcheck"): "211561ac876c04c66ad4ed082848c16b5bbc5010df6365642eadff18b97bab5d",
    ("feeder_tree", "literal", "run"): "de3b01c8c7f768894831155cb2b61c710c0cc237c17123324077d5a02c904d9e",
    ("feeder_tree", "literal", "compare"): "b3dcdc0f5d7755781816082d2765245ffcb554ebd902093d8c7a30b98d786771",
    ("feeder_tree", "principle", "run"): "2a6e92dce727345a0e9d9843d596467beab4ca86f40955f411534e6cddfdaca2",
    ("feeder_tree", "principle", "compare"): "4141204eed791882bdb048e89eb1aec8a70d2721c020cb8234b70f86d4fc6139",
}


@pytest.mark.parametrize("name", ["single_feeder", "feeder_tree"])
@pytest.mark.parametrize("mode", ["literal", "principle"])
@pytest.mark.parametrize("command", ["run", "compare", "xcheck"])
def test_cli_outputs_match_their_pins(tmp_path, monkeypatch, capsys, command, mode, name):
    monkeypatch.chdir(tmp_path)
    code = main([command, "--grid", str(bundled_grid_path(name)), "--mode", mode,
                 "--pref", "0.1", "--out", "o"])
    out, err = capsys.readouterr()
    if (name, mode, command) not in STDOUT_SHA256:
        assert (code, out) == (1, "")
        assert err == ("error: xcheck needs a single straight feeder "
                       "(closed forms are not defined across junctions)\n")
        assert not (tmp_path / "o").exists()
        return
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name, mode, command]
    if command == "compare":
        written = sorted(p.name for p in (tmp_path / "o").iterdir())
        assert written == sorted(f for n, m, f in COMPARE_OUTPUT_SHA256 if (n, m) == (name, mode))
        for file in written:
            digest = hashlib.sha256((tmp_path / "o" / file).read_bytes()).hexdigest()
            assert digest == COMPARE_OUTPUT_SHA256[name, mode, file], file


def test_compare_writes_nothing_when_the_second_solve_fails(tmp_path, monkeypatch, capsys):
    calls = []
    solve = cli_module.solve_nonlinear

    def second_call_collapses(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise solver_module.VoltageCollapseError(0.42)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli_module, "solve_nonlinear", second_call_collapses)
    out = tmp_path / "o"
    assert main(["compare", "--grid", SINGLE, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: voltage collapse region: v dropped to 0.4200 pu (floor 0.5)\n"
    assert len(calls) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv,file,key", [
    (["run", "--mode", "uniform"], "metrics.json", "leftover_p"),
    (["compare"], "compare.json", "uniform"),
    (["xcheck"], "xcheck.json", "pref"),
])
def test_json_files_write_no_negative_zero(tmp_path, capsys, argv, file, key):
    out = tmp_path / "o"
    assert main([*argv, "--grid", SINGLE, "--pref=-0.0", "--out", str(out)]) == 0
    text = (out / file).read_text()
    assert "-0.0" not in text
    value = json.loads(text)[key]
    value = value["leftover_p"] if isinstance(value, dict) else value
    assert (value, math.copysign(1.0, value)) == (0.0, 1.0)


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_ids_that_would_break_the_csv_files_are_rejected(tmp_path, capsys, char):
    seg, station = f"ma{char}in", f"st{char}1"
    path = tmp_path / "ids.yaml"
    path.write_text(yaml.safe_dump({
        "segments": [{"id": seg, "length_km": 5.0, "g_pu_per_km": 3.881,
                      "b_pu_per_km": 6.856}],
        "devices": [{"kind": "station", "segment": seg, "xi_km": 1.0, "id": station,
                     "p_min_pu": -0.03, "p_max_pu": 0.03}],
    }))
    assert main(["validate", "--grid", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"violation: segment id {seg!r} holds a comma, quote or line break\n" in out
    assert f"violation: device id {station!r} holds a comma, quote or line break\n" in out
    assert main(["run", "--grid", str(path), "--out", str(tmp_path / "o")]) == 1
    assert repr(station) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# a grid with every field that validate_grid checks for finiteness: the
# child segment's offset, loads with p and q, and a station's bounds
FIELD_GRID = {
    "segments": [
        {"id": "m", "length_km": 5.0, "g_pu_per_km": 3.881, "b_pu_per_km": 6.856},
        {"id": "c", "parent": "m", "offset_km": 2.0, "length_km": 1.0,
         "g_pu_per_km": 3.881, "b_pu_per_km": 6.856},
    ],
    "devices": [
        {"kind": "load", "segment": "m", "xi_km": 4.0, "p_pu": -0.05, "q_pu": -0.01},
        {"kind": "load", "segment": "c", "xi_km": 2.5, "p_pu": -0.02, "q_pu": 0.0},
        {"kind": "station", "segment": "m", "xi_km": 1.0, "p_min_pu": -0.03, "p_max_pu": 0.03},
    ],
}

# what validate_grid's message says about each field, given the value's str
FIELD_MESSAGES = {
    "length_km": "length must be positive, got {}",
    "g_pu_per_km": "g_pu_per_km must be finite, got {}",
    "b_pu_per_km": "b_pu_per_km must be finite, got {}",
    "offset_km": "attachment offset {} outside",
    "xi_km": "xi={} must lie strictly inside",
    "p_pu": "p_pu must be finite, got {}",
    "q_pu": "q_pu must be finite, got {}",
    "p_min_pu": "p_min_pu must be finite, got {}",
    "p_max_pu": "p_max_pu must be finite, got {}",
}


@st.composite
def grids_with_one_non_finite_number(draw):
    """FIELD_GRID with one numeric field set to YAML's .nan, .inf or -.inf."""
    section = draw(st.sampled_from(["segments", "devices"]))
    index = draw(st.integers(0, len(FIELD_GRID[section]) - 1))
    entry = FIELD_GRID[section][index]
    field = draw(st.sampled_from(sorted(k for k in entry if k in FIELD_MESSAGES)))
    token = draw(st.sampled_from([".nan", ".inf", "-.inf"]))
    doc = yaml.safe_load(yaml.safe_dump(FIELD_GRID))
    doc[section][index][field] = "TOKEN"
    text = yaml.safe_dump(doc).replace("TOKEN", token)
    return text, field, str(yaml.safe_load(token))


@settings(max_examples=60, deadline=None)
@given(grids_with_one_non_finite_number())
def test_a_non_finite_number_in_any_checked_field_is_named(case):
    text, field, value = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "grid.yaml", Path(tmp) / "o"
        path.write_text(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(["validate", "--grid", str(path)]) == 1
            assert main(["run", "--grid", str(path), "--out", str(out)]) == 1
        message = FIELD_MESSAGES[field].format(value)
        assert message in stdout.getvalue()
        assert stderr.getvalue().startswith("error: invalid grid: ")
        assert message in stderr.getvalue()
        assert not out.exists()


@pytest.mark.parametrize("text,unknown", [
    (NO_DEVICES + "1: x\nfoo: y\n", "top level: unknown keys [1, 'foo']"),
    (NO_DEVICES.replace("length_km: 5.0", "length_km: 5.0, ~: 1, a: 2"),
     "segments[0]: unknown keys [None, 'a']"),
    (STATIONS_ONLY.replace("xi_km: 1.5", "xi_km: 1.5, 1: x, foo: y"),
     "devices[0]: unknown keys [1, 'foo']"),
], ids=["top_level", "segment", "device"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_unknown_keys_of_mixed_types_are_io_errors(tmp_path, capsys, command, text, unknown):
    # sorting keys of types that do not compare used to raise a TypeError
    path, out = tmp_path / "grid.yaml", tmp_path / "o"
    path.write_text(text)
    argv = [command, "--grid", str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {unknown}; allowed keys [")
    assert err.count("\n") == 1 and err.endswith("]\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_repeated_key_is_an_io_error(tmp_path, capsys, command):
    # YAML alone keeps the last value: this grid would load a 50 km line
    path, out = tmp_path / "grid.yaml", tmp_path / "o"
    path.write_text(NO_DEVICES.replace("length_km: 5.0", "length_km: 5.0, length_km: 50.0"))
    argv = [command, "--grid", str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: line 2: key 'length_km' is repeated\n"
    assert not out.exists()


def test_an_integer_beyond_the_float_range_is_domain_error(tmp_path, capsys):
    # float() of it used to raise OverflowError; it reads as inf, as 1.0e400 does
    path, out = tmp_path / "grid.yaml", tmp_path / "o"
    path.write_text(NO_DEVICES.replace("length_km: 5.0", "length_km: 1" + "0" * 400))
    message = "segment 'm': length must be positive, got inf"
    assert main(["validate", "--grid", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"violation: {message}\n" in captured.out
    assert captured.err == ""
    assert main(["run", "--grid", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid grid: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare", "xcheck"])
def test_a_subnormal_z2_collapses_on_one_error_line(tmp_path, capsys, command):
    # G = B = 1e-160 passes validation; the sweep overflows and collapses,
    # and numpy's overflow warnings no longer precede the error line
    path, out = tmp_path / "line.yaml", tmp_path / "o"
    path.write_text(HEAVY.replace("3.881", "1e-160").replace("6.856", "1e-160"))
    assert main([command, "--grid", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: voltage collapse region: v dropped to -inf pu (floor 0.5)\n")
    assert not out.exists()
