"""Record the reference metrics that the output checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: max_dev, l2_dev and min_terminal_v of
every `feederflow run` input of cli_bundled, read from the metrics.json the
CLI writes, and of every study input for each of STUDY_SEEDS.  A study
result is recorded only after it passes the output checks, the per-cell
check of the feeder equations included.  Run it only on a commit whose
outputs are known good; the benchmark then holds every later commit to
these values within checks.REFERENCE_TOL.
"""
from __future__ import annotations

import json
import shutil
import sys

import checks
import grids
import run
import study

DEFAULT_SEED = 0
STUDY_SEEDS = range(32)


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    import feederflow as ff

    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {"cli_bundled": {}}
    for name, pref, mode in grids.cli_inputs(DEFAULT_SEED):
        out = workdir / "out"
        code, _wall, _rss = run.spawn(
            [sys.executable, "-c", run.CLI_MAIN, "run", "--grid", str(ff.bundled_grid_path(name)),
             "--pref", repr(pref), "--mode", mode, "--out", str(out)], workdir / "cli.err")
        if code != 0:
            raise SystemExit(f"{name} {mode}: exit code {code}")
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        reference["cli_bundled"][f"{name} {mode} {pref!r}"] = {
            k: metrics[k] for k in checks.REFERENCE_KEYS}
    for workload in grids.GENERATORS:
        reference[workload] = {}
        for seed in STUDY_SEEDS:
            doc, grid = study.load_study_grid(ff, workload, seed, workdir / "grid.yaml")
            facts = checks.grid_facts(grid)
            values = {}
            for pref, mode in grids.study_inputs(doc, seed):
                out = checks.library_outputs(*study.evaluate(ff, grid, pref, mode))
                problems = checks.check(facts, pref, out)
                problems += checks.check_cells(facts, out, grids.SIGMA_KM)
                if problems:
                    raise SystemExit(f"{workload} seed {seed} {mode} {pref!r}: {problems[:3]}")
                values[f"{pref!r} {mode}"] = out.metrics
            reference[workload][str(seed)] = values
    shutil.rmtree(workdir)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")


if __name__ == "__main__":
    main()
