"""Tests of the benchmark's own code: generators, output checks, spans.

    python3 -m pytest perfbench/tests -q
"""
import math

import pytest
import yaml

import checks
import grids
import run
import spans
import feederflow as ff
import feederflow.cli as cli


@pytest.mark.parametrize("workload", sorted(grids.GENERATORS))
def test_generator_is_deterministic_and_valid(workload):
    gen = grids.GENERATORS[workload]
    text = grids.to_yaml(gen(3))
    assert grids.to_yaml(gen(3)) == text
    assert grids.to_yaml(gen(4)) != text
    doc = yaml.safe_load(text)
    assert doc == gen(3)
    grid = ff.parse_grid(doc)
    assert ff.validate_grid(grid).ok
    inputs = grids.study_inputs(doc, 3)
    assert inputs == grids.study_inputs(gen(3), 3)
    assert sorted({mode for _pref, mode in inputs}) == sorted(grids.MODES)
    assert len(set(inputs)) == grids.PREF_STRATA * len(grids.MODES)


def test_cli_inputs_cover_every_grid_and_mode():
    for seed in range(6):
        inputs = grids.cli_inputs(seed)
        assert sorted(inputs) == sorted(grids.cli_inputs(0))
        assert len(set(inputs)) == 6
        assert all(a[0] != b[0] for a, b in zip(inputs, inputs[1:]))


def _run(tmp_path, name, pref, mode="literal"):
    out = tmp_path / name
    args = ["run", "--grid", str(ff.bundled_grid_path(name)), "--pref", repr(pref),
            "--mode", mode, "--out", str(out)]
    assert cli.main(args) == 0
    return out, checks.grid_facts(ff.load_grid(ff.bundled_grid_path(name)))


def _reference(name, mode, pref):
    return run.load_reference("cli_bundled", 0)[f"{name} {mode} {pref!r}"]


@pytest.mark.parametrize("name,pref", grids.BUNDLED)
def test_checks_accept_the_cli_outputs(tmp_path, capsys, name, pref):
    out, facts = _run(tmp_path, name, pref)
    outputs = checks.read_run_outputs(out)
    assert checks.check(facts, pref, outputs, _reference(name, "literal", pref)) == []
    again = checks.read_run_outputs(_run(tmp_path / "again", name, pref)[0])
    repeat = checks.RepeatCheck()
    assert repeat("k", outputs.digest) == [] and repeat("k", again.digest) == []


def _corrupt(path, row, column, text):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = text
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("row,column,text,expect", [
    (-1, 5, "0.001", "terminal_w residual"),          # w at the open end
    (-1, 4, "-0.002", "terminal_s residual"),         # s at the open end
    (1, 3, "1.01", "bank residual"),                  # v at the bank
    (7, 3, "nan", "nan or inf token"),
])
def test_checks_reject_a_corrupted_profile(tmp_path, capsys, row, column, text, expect):
    out, facts = _run(tmp_path, "single_feeder", 0.1)
    _corrupt(out / "profile.csv", row, column, text)
    problems = checks.check(facts, 0.1, checks.read_run_outputs(out))
    assert any(expect in p for p in problems), problems


def test_checks_reject_a_broken_junction(tmp_path, capsys):
    out, facts = _run(tmp_path, "feeder_tree", 0.01)
    lines = (out / "profile.csv").read_text().splitlines()
    first_child_row = next(k for k, line in enumerate(lines) if line.startswith("fdrA,"))
    _corrupt(out / "profile.csv", first_child_row, 4, "0.5")
    problems = checks.check(facts, 0.01, checks.read_run_outputs(out))
    assert any("junction_s residual" in p for p in problems), problems


def test_checks_reject_missing_files_and_reference_drift(tmp_path, capsys):
    out, facts = _run(tmp_path, "single_feeder", 0.1)
    reference = dict(_reference("single_feeder", "literal", 0.1))
    reference["l2_dev"] += 1e-8
    problems = checks.check(facts, 0.1, checks.read_run_outputs(out), reference)
    assert any("l2_dev" in p for p in problems), problems
    (out / "metrics.json").unlink()
    assert checks.read_run_outputs(out).problems == ["metrics.json was not written"]


def _library_outputs(grid, pref):
    plan = ff.synthesize(grid, pref)
    profile = ff.solve_nonlinear(grid, ff.power_density(grid, plan))
    return checks.library_outputs(plan, profile, ff.compute_metrics(profile, plan))


def test_checks_reject_a_plan_that_breaks_a_bound():
    grid = ff.load_single_feeder()
    facts = checks.grid_facts(grid)
    good = _library_outputs(grid, 0.1)
    assert checks.check(facts, 0.1, good) == []

    sid, p, q = good.stations[0]
    lo, hi = facts.bounds[sid]
    cases = {
        "outside derated bounds": [(sid, hi + 1e-9, 0.0)],
        "power-factor cone": [(sid, p, checks.Q_PER_P * abs(p) + 1e-9)],
    }
    for expect, first in cases.items():
        bad = checks.Outputs(first + good.stations[1:], good.total_p, good.leftover_p,
                             good.profile, good.metrics)
        problems = checks.check(facts, 0.1, bad)
        assert any(expect in msg for msg in problems), (expect, problems)
    unbalanced = checks.Outputs(good.stations, good.total_p, 1e-9, good.profile, good.metrics)
    assert any("!= pref" in msg for msg in checks.check(facts, 0.1, unbalanced))
    lost = checks.Outputs(good.stations[1:], good.total_p, good.leftover_p, good.profile,
                          good.metrics)
    assert any("every station" in msg for msg in checks.check(facts, 0.1, lost))


def test_cell_check_rejects_a_wrong_profile_or_density():
    grid = ff.load_single_feeder()
    facts = checks.grid_facts(grid)
    good = _library_outputs(grid, 0.1)
    assert checks.check_cells(facts, good, 0.05) == []
    assert any("cell_s" in p for p in checks.check_cells(facts, good, 0.0501))

    sid, p, q = good.stations[0]
    shifted = [(sid, p + 1e-7, q)] + good.stations[1:]
    bad = checks.Outputs(shifted, good.total_p, good.leftover_p, good.profile, good.metrics)
    assert any("cell_s" in msg for msg in checks.check_cells(facts, bad, 0.05))

    seg_id, seg = next(iter(good.profile.items()))
    v = seg["v"].copy()
    v[len(v) // 2] += 1e-9
    profile = {**good.profile, seg_id: {**seg, "v": v}}
    bad = checks.Outputs(good.stations, good.total_p, good.leftover_p, profile, good.metrics)
    assert any("cell_v" in msg for msg in checks.check_cells(facts, bad, 0.05))


def test_study_references_are_keyed_by_seed():
    for workload in grids.GENERATORS:
        assert run.load_reference(workload, 0) is not None
        assert run.load_reference(workload, 10 ** 6) is None


def _span(name, start, end, parent=None, op=1):
    return spans.Span(name, start, end, parent, op)


def test_self_time_arithmetic_on_a_span_tree():
    tree = [
        _span("root", 0, 100),
        _span("a", 10, 40, parent=0),
        _span("b", 30, 60, parent=0),      # overlaps a: the union is 10..60
        _span("a.x", 15, 20, parent=1),
        _span("a.y", 35, 45, parent=1),    # runs past its parent's end
        _span("other", 200, 250, op=2),
    ]
    assert spans.self_times(tree) == [50, 20, 30, 5, 10, 50]
    table = spans.totals(tree, [1])
    assert table["root"] == {"calls": 1, "total_ns": 100, "self_ns": 50}
    assert "other" not in table
    assert spans.coverage(tree, {1: (0, 200), 2: (200, 300)}) == {1: 0.5, 2: 0.5}
    assert spans.coverage(tree, {1: (0, 100)}, skip=("root",)) == {1: 0.5}


def test_tracer_records_nested_spans_and_restores_the_originals():
    tracer = spans.Tracer()
    targets = [(ff.DensityField, "sample", "grid.sample", lambda a, r: {"points": len(a[2])}),
               (ff, "solve_nonlinear", "solver.solve", None)]
    original = ff.DensityField.__dict__["sample"], ff.solve_nonlinear
    grid = ff.load_single_feeder()
    density = ff.power_density(grid, None)
    with tracer.patched(targets):
        tracer.op = 7
        ff.solve_nonlinear(grid, density)
    assert (ff.DensityField.__dict__["sample"], ff.solve_nonlinear) == original
    names = [s.name for s in tracer.spans]
    assert names == ["solver.solve", "grid.sample", "grid.sample"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.spans[1].counts == {"points": 2001}
    assert all(s.op == 7 and s.end_ns >= s.start_ns for s in tracer.spans)


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(k) for k in range(1, 101)])
    assert value == 90.0 and math.isclose(pct, 90.0)
