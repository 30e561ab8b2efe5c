import csv
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import feederflow.dispatch as dispatch_module
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
