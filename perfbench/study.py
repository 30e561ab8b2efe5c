"""Child process of one study workload: set up, then run the closed loop.

    python3 perfbench/study.py '<json arguments from run.py>'

Set-up covers `import feederflow`, generating the grid file, `load_grid`,
`validate_grid` and one untimed warm-up operation, timed from the start of
this process's main code.  The loop then evaluates the cycled (pref, mode)
inputs one after another until the time is up, checks every result and
prints one JSON line.  The first result of each input also gets the
per-cell check of the feeder equations; each repeat must then reproduce
it byte for byte.  With tracing on, every second operation runs with
the layer wrappers installed; the others give the untraced comparison.
"""
import time

T0 = time.perf_counter_ns()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import grids  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

MIN_OPS = 40  # enough that ten samples beyond the tail leave it above the median


def evaluate(ff, grid, pref: float, mode: str):
    """(pref, mode) -> plan -> density -> nonlinear profile -> metrics.

    Every function is looked up on the package at call time, so the traced
    run sees the wrappers installed there."""
    if mode == "uniform":
        plan = ff.uniform_baseline(grid, pref)
    elif grid.is_single_feeder():
        plan = ff.synthesize(grid, pref, mode=mode)
    else:
        plan = ff.synthesize_tree(grid, pref, mode=mode)
    density = ff.power_density(grid, plan, sigma_km=grids.SIGMA_KM)
    profile = ff.solve_nonlinear(grid, density, ff.SolverSettings(step_km=grids.STEP_KM))
    return plan, profile, ff.compute_metrics(profile, plan)


def load_study_grid(ff, workload: str, seed: int, path: Path):
    """Generate, write, load and validate the workload's grid."""
    doc = grids.GENERATORS[workload](seed)
    path.write_text(grids.to_yaml(doc), encoding="utf-8")
    grid = ff.load_grid(path)
    report = ff.validate_grid(grid)
    if not report.ok:
        raise ValueError(f"generated grid is invalid: {report.violations[:3]}")
    return doc, grid


def main() -> None:
    args = json.loads(sys.argv[1])
    sys.path.insert(0, args["src"])
    import feederflow as ff

    workdir = Path(args["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args["trace"] else None
    targets = layers.targets(ff) if tracer else []

    def traced(on: bool):
        return tracer.patched(targets) if on else nullcontext()

    with traced(tracer is not None):
        if tracer:
            tracer.op = "setup"
        doc, grid = load_study_grid(ff, args["workload"], args["seed"], workdir / "grid.yaml")
    grid_sha = hashlib.sha256((workdir / "grid.yaml").read_bytes()).hexdigest()
    facts = checks.grid_facts(grid)
    inputs = grids.study_inputs(doc, args["seed"])
    reference = args.get("reference")
    repeat = checks.RepeatCheck()
    solved: set[str] = set()
    failures: list[str] = []
    attempted = failed = 0

    def run_op(op, k: int, trace_on: bool) -> tuple[int, int, float]:
        """Time input k, time the host-speed kernel, then check the result:
        (t0 ns, t1 ns, kernel ms)."""
        nonlocal attempted, failed
        pref, mode = inputs[k % len(inputs)]
        attempted += 1
        with traced(trace_on):
            if tracer:
                tracer.op = op
            t0 = time.perf_counter_ns()
            try:
                result = evaluate(ff, grid, pref, mode)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            t1 = time.perf_counter_ns()
        kernel = hostspeed.kernel_ms()
        if isinstance(result, Exception):
            problems = [f"raised {result!r}"]
        else:
            out = checks.library_outputs(*result)
            key = f"{pref!r} {mode}"
            problems = checks.check(facts, pref, out, reference[key] if reference else None)
            if key not in solved:
                solved.add(key)
                problems += checks.check_cells(facts, out, grids.SIGMA_KM)
            problems += repeat(key, out.digest)
        failed += bool(problems)
        failures.extend(f"{mode} pref={pref!r}: {p}" for p in problems)
        return t0, t1, kernel

    _t0, t1, kernel = run_op("warmup", 0, False)
    result = {"setup_s": (t1 - T0) / 1e9, "setup_kernel_ms": kernel, "grid_sha256": grid_sha}
    if not args["setup_only"]:
        walls, scaled, traced_walls, op_walls = [], [], [], {}
        phase_ms = phase_scaled_ms = 0.0
        start = time.perf_counter()
        cycle_start = time.perf_counter_ns()
        op = 0
        while time.perf_counter() - start < args["seconds"] or len(walls) < MIN_OPS:
            # traced runs give each input to an untraced and a traced operation
            trace_on = tracer is not None and op % 2 == 1
            before = kernel
            t0, t1, kernel = run_op(op, op // 2 if tracer else op, trace_on)
            if trace_on:
                traced_walls.append(t1 - t0)
                op_walls[op] = (t0, t1)
            else:
                walls.append(t1 - t0)
                scaled.append(hostspeed.scale((t1 - t0) / 1e6, before, kernel))
            # the whole cycle: operation, host-speed kernel and checks
            cycle_end = time.perf_counter_ns()
            phase_ms += (cycle_end - cycle_start) / 1e6
            phase_scaled_ms += hostspeed.scale((cycle_end - cycle_start) / 1e6, before, kernel)
            cycle_start = cycle_end
            op += 1
        result.update(walls_ns=walls, scaled_ms=scaled, traced_walls_ns=traced_walls,
                      phase_ms=phase_ms, phase_scaled_ms=phase_scaled_ms,
                      rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer:
            result["layers"] = layers.layer_metrics(tracer.spans, op_walls)
            tracer.dump(args["spans_path"])
    result.update(attempted=attempted, failed=failed, problems=failures[:5])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
