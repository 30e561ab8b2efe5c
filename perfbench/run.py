"""feederflow benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
./src.  Load is a closed loop: one client in one process, no threads, each
operation starting after the previous one has finished.

Workloads (why each exists is recorded in BENCHMARK.json):
  cli_bundled         `feederflow run` as a child process on the two bundled
                      grids, timed from spawn to exit with the files written.
  study_dense_feeder  the library pipeline in process on a seeded 50 km
                      feeder with 1000 stations and 1000 loads.
  study_wide_tree     the same pipeline on a seeded 10 km trunk with 100
                      one-kilometre laterals.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a run in which the public entry point of each layer is wrapped in a
span.  Every operation's outputs are checked; a failed check counts the
operation as failed.  End-to-end times are given at a reference host speed
(see hostspeed.py), and each line also shows them as measured; per-layer
times are as measured.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import grids
import hostspeed
import layers
import spans
from study import MIN_OPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("cli_bundled", "study_dense_feeder", "study_wide_tree")
SETUPS = 3            # setup_s is the median of this many set-ups
IMPORT_PAIRS = 7      # fresh `import feederflow` / bare interpreter pairs
CHILD_TIMEOUT_S = 60  # one CLI run
CLI_MAIN = "import sys; from feederflow.cli import main; sys.exit(main())"


class Failure(Exception):
    """The benchmark cannot run: no result is printed."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def spawn(argv: list[str], out_err: Path) -> tuple[int, int, int]:
    """Run argv to completion: (exit code, wall ns from spawn to exit, ru_maxrss KB)."""
    def expire(_signum, _frame):
        raise TimeoutError(f"{argv[:4]} ran longer than {CHILD_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    with open(out_err, "wb") as err:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        t1 = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t1 - t0, usage.ru_maxrss


def import_ms(workdir: Path) -> float:
    """Fresh `import feederflow` minus a bare interpreter, medians of
    alternating pairs."""
    imports, bare = [], []
    for _ in range(IMPORT_PAIRS):
        for argv, sink in (([sys.executable, "-c", "import feederflow"], imports),
                           ([sys.executable, "-c", "pass"], bare)):
            code, wall, _rss = spawn(argv, workdir / "import.err")
            if code != 0:
                raise Failure(f"{argv} exited with {code}")
            sink.append(wall / 1e6)
    return statistics.median(imports) - statistics.median(bare)


def load_reference(workload: str, seed: int):
    """Recorded max_dev, l2_dev and min_terminal_v by input: for every CLI
    input, and for the study inputs of the recorded seeds; None for a study
    seed that was not recorded."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    return ref if workload == "cli_bundled" else ref.get(str(seed))


class CliRuns:
    """`feederflow run` on the bundled grids, as a child process or, traced,
    in process through feederflow.cli.main."""

    def __init__(self, ff, seed: int, workdir: Path):
        self.ff = ff
        self.inputs = grids.cli_inputs(seed)
        self.workdir = workdir
        self.reference = load_reference("cli_bundled", seed)
        self.repeat = checks.RepeatCheck()
        self.facts = {}
        self.count = 0
        self.failures: list[str] = []
        self.failed = 0

    def load_grids(self) -> None:
        self.facts = {name: checks.grid_facts(self.ff.load_grid(self.ff.bundled_grid_path(name)))
                      for name, _pref in grids.BUNDLED}

    def _run(self, k: int, execute) -> tuple:
        """Run input k with execute(args) -> (exit code, *timings), then
        check its files and remove them."""
        name, pref, mode = self.inputs[k % len(self.inputs)]
        out = self.workdir / f"op{self.count}"
        self.count += 1
        code, *timings = execute(["run", "--grid", str(self.ff.bundled_grid_path(name)),
                                  "--pref", repr(pref), "--mode", mode, "--out", str(out)])
        key = f"{name} {mode} {pref!r}"
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            outputs = checks.read_run_outputs(out)
            problems = checks.check(self.facts[name], pref, outputs, self.reference[key])
            problems += self.repeat(key, outputs.digest)
        self.failed += bool(problems)
        self.failures += [f"{key}: {p}" for p in problems]
        shutil.rmtree(out, ignore_errors=True)
        return tuple(timings)

    def spawned(self, k: int) -> tuple[int, int, float]:
        """One child-process run: (wall ns from spawn to exit, ru_maxrss KB,
        host-speed kernel ms right after the run)."""
        def execute(args):
            code, wall, rss = spawn([sys.executable, "-c", CLI_MAIN, *args],
                                    self.workdir / "cli.err")
            return code, wall, rss, hostspeed.kernel_ms()
        return self._run(k, execute)

    def in_process(self, k: int) -> tuple[int, int]:
        """One in-process call of feederflow.cli.main: (t0, t1) in ns."""
        def execute(args):
            cli = sys.modules["feederflow.cli"]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter_ns()
                code = cli.main(args)
                t1 = time.perf_counter_ns()
            return code, t0, t1
        return self._run(k, execute)


def run_cli(ff, seed: int, seconds: float, spans_path: Path | None, workdir: Path) -> dict:
    runs = CliRuns(ff, seed, workdir)
    if spans_path:
        return run_cli_traced(runs, seconds, spans_path)
    setups = []
    for k in range(SETUPS):
        before = hostspeed.kernel_ms()
        t0 = time.perf_counter_ns()
        runs.load_grids()
        t1 = time.perf_counter_ns()
        wall, _rss, after = runs.spawned(k)
        setups.append(((t1 - t0 + wall) / 1e9, before, after))
    walls, scaled, peak = [], [], 0
    phase_ms = phase_scaled_ms = 0.0
    kernel = hostspeed.kernel_ms()
    start = time.perf_counter()
    cycle_start = time.perf_counter_ns()
    k = 0
    while time.perf_counter() - start < seconds or len(walls) < MIN_OPS:
        before = kernel
        wall, rss, kernel = runs.spawned(k)
        walls.append(wall)
        scaled.append(hostspeed.scale(wall / 1e6, before, kernel))
        peak = max(peak, rss)
        # the whole cycle: child process, host-speed kernel and checks
        cycle_end = time.perf_counter_ns()
        phase_ms += (cycle_end - cycle_start) / 1e6
        phase_scaled_ms += hostspeed.scale((cycle_end - cycle_start) / 1e6, before, kernel)
        cycle_start = cycle_end
        k += 1
    return {"setups": setups, "walls_ns": walls, "scaled_ms": scaled, "rss_kb": peak,
            "phase_ms": phase_ms, "phase_scaled_ms": phase_scaled_ms,
            "attempted": runs.count, "failed": runs.failed, "problems": runs.failures[:5]}


def run_cli_traced(runs: CliRuns, seconds: float, spans_path: Path) -> dict:
    import feederflow.cli as cli

    runs.load_grids()
    runs.in_process(0)
    tracer = spans.Tracer()
    targets = layers.targets(cli) + [(cli, "main", "cli.main", None)]
    walls, traced_walls, op_walls = [], [], {}
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or len(walls) < MIN_OPS:
        # each input runs once untraced, then once traced
        if k % 2:
            with tracer.patched(targets):
                tracer.op = k
                op_walls[k] = runs.in_process(k // 2)
            traced_walls.append(op_walls[k][1] - op_walls[k][0])
        else:
            t0, t1 = runs.in_process(k // 2)
            walls.append(t1 - t0)
        k += 1
    tracer.dump(spans_path)
    return {"walls_ns": walls, "traced_walls_ns": traced_walls, "attempted": runs.count,
            "failed": runs.failed, "problems": runs.failures[:5],
            "layers": layers.layer_metrics(tracer.spans, op_walls)}


def run_study_child(workload: str, seed: int, seconds: float, spans_path: Path | None,
                    workdir: Path, setup_only: bool) -> dict:
    args = {"src": str(SRC), "workload": workload, "seed": seed, "seconds": seconds,
            "trace": spans_path is not None, "spans_path": str(spans_path),
            "setup_only": setup_only, "workdir": str(workdir),
            "reference": load_reference(workload, seed)}
    proc = subprocess.run([sys.executable, str(HERE / "study.py"), json.dumps(args)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=seconds + 120)
    if proc.returncode != 0:
        raise Failure(f"{workload} child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_study(workload: str, seed: int, seconds: float, spans_path: Path | None,
              workdir: Path) -> dict:
    """SETUPS children that only set up, the last of which also measures;
    a traced run starts just the measuring one."""
    children = []
    for k in range(1 if spans_path else SETUPS):
        before = hostspeed.kernel_ms()  # the child times the kernel again after its set-up
        child = run_study_child(workload, seed, seconds, spans_path, workdir / f"child{k}",
                                setup_only=not spans_path and k < SETUPS - 1)
        child["setup"] = (child["setup_s"], before, child["setup_kernel_ms"])
        children.append(child)
    result = children[-1]
    result["setups"] = [c["setup"] for c in children]
    result["attempted"] = sum(c["attempted"] for c in children)
    result["failed"] = sum(c["failed"] for c in children)
    result["problems"] = [p for c in children for p in c["problems"]]
    if len({c["grid_sha256"] for c in children}) != 1:
        result["attempted"] += 1
        result["failed"] += 1
        result["problems"].append("the same seed generated different grid files")
    return result


def end_to_end(raw: dict) -> dict:
    """Times at the reference host speed (see hostspeed.py); the notes give
    the times as measured."""
    scaled = raw["scaled_ms"]
    measured = [w / 1e6 for w in raw["walls_ns"]]
    setups = [hostspeed.scale(*s) for s in raw["setups"]]
    value, pct = tail(scaled)
    return {
        "wall_ms.p50": (statistics.median(scaled), "ms",
                        f"measured {statistics.median(measured):.1f}"),
        "wall_ms.tail": (value, "ms", f"p{pct:.1f} of {len(scaled)} operations, "
                                      f"measured {tail(measured)[0]:.1f}"),
        "ops_per_s": (1e3 * len(scaled) / raw["phase_scaled_ms"], "1/s",
                      f"{len(scaled)} operations in {raw['phase_scaled_ms'] / 1e3:.2f} s of "
                      f"timed phase, measured {1e3 * len(scaled) / raw['phase_ms']:.3f}"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups, measured "
                    f"{statistics.median(s[0] for s in raw['setups']):.3f}"),
        "peak_rss_mb": (raw["rss_kb"] / 1024.0, "MB", ""),
    }


def per_layer(raw: dict, import_time_ms: float) -> dict:
    # each traced operation repeats the input of the untraced one before it
    overhead = statistics.median(
        t / u for u, t in zip(raw["walls_ns"], raw["traced_walls_ns"]))
    table = {"cli.import_ms": (import_time_ms, "ms", "fresh import minus bare interpreter")}
    table.update((name, (value, unit, "")) for name, (value, unit) in raw["layers"].items())
    table["trace.overhead_pct"] = ((overhead - 1.0) * 100.0, "%",
                                   "median of traced / untraced over pairs of one input")
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "feederflow" / "__init__.py").is_file():
        print(f"error: no feederflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import feederflow as ff

    hostspeed.pin_to_one_cpu()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    spans_path = None
    if args.trace:
        spans_path = WORK / "traces" / f"{args.workload}.jsonl"  # the last traced run
        spans_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli_bundled":
            raw = run_cli(ff, args.seed, args.seconds, spans_path, workdir)
        else:
            raw = run_study(args.workload, args.seed, args.seconds, spans_path, workdir)
        table = per_layer(raw, import_ms(workdir)) if args.trace else end_to_end(raw)
    except (Failure, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  (closed loop, 1 client)")
    for name, (value, unit, note) in table.items():
        print(f"{name:34s} {value:14.6g} {unit:6s} {note}")
    if load_reference(args.workload, args.seed) is None:
        print(f"note: no reference values recorded for seed {args.seed}; the per-cell "
              "feeder-equation check still ran on every input")
    error_rate = raw["failed"] / raw["attempted"]
    print(f"{'error_rate':34s} {error_rate:14.6g} {'ratio':6s} "
          f"{raw['failed']} failed of {raw['attempted']} attempted")
    for problem in raw["problems"][:5]:
        print(f"failed check: {problem}")
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
