"""Run one workload of the uqbench benchmark and print its metrics.

    python3 perfbench/run.py --workload nichols-gram --seed 1 --seconds 35 --trace 0

Every job is one `uqbench` command line, run in this process through
`uqbench.cli.main` with stdout captured, one job after another on one
thread.  Each report is checked (see checks.py) before the next job starts;
check time is not part of any job's time.

With `--trace 0` the jobs of one pass are run again and again until
`--seconds` have passed (at least one whole pass), times are scaled by the
host's speed over the run (see calibration.py), and the last line printed
is the JSON result with the end-to-end metrics.  With `--trace 1`
the run does a fixed amount of work instead: an untraced pass and a pass
with every layer wrapped (see tracer.py), twice over; it prints the
per-layer metrics and fails if any per-job count differs between the two
traced passes.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibration
import checks
import pools
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 8
SUBCOMMAND_METRICS = ("nichols-dims", "hopf-check", "ybe-check", "braid-rep",
                      "rigidity-solve", "trivialize")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pools.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """A fresh import of `uqbench.cli` from this checkout's `src/`."""
    for name in [n for n in sys.modules
                 if n == "uqbench" or n.startswith("uqbench.")]:
        del sys.modules[name]
    cli = importlib.import_module("uqbench.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"uqbench imported from {cli.__file__}, not {SRC}")
    return cli


def run_job(cli, job: pools.Job) -> tuple[float, int, str]:
    """Run one job; returns (seconds, exit code, stdout)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(job.argv))
    except Exception:  # a crash is a failed job, not a failed benchmark
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - start, rc, buf.getvalue()


def setup(workload: str, jobs: list[pools.Job], cal=None):
    """Import uqbench afresh, load the presets the jobs name and run one
    warm-up job; returns the import and the seconds it all took, less the
    time spent in `cal`'s handler."""
    spent = _spent(cal)
    start = time.perf_counter()
    cli = import_cli()
    for datum in sorted({job.option("--datum", "A1") for job in jobs}):
        cli.load_datum(datum)
    _, rc, _ = run_job(cli, pools.WARMUP[workload])
    if rc != 0:
        raise RuntimeError(f"warm-up job exited with {rc}")
    return cli, time.perf_counter() - start - (_spent(cal) - spent)


def _spent(cal) -> float:
    return cal.spent if cal else 0.0


class Runs:
    """Times, exit codes and check results of every job run."""

    def __init__(self, checker: checks.Checker, cal=None):
        self.checker = checker
        self.cal = cal
        self.times: dict[str, list[float]] = defaultdict(list)
        self.jobs: dict[str, pools.Job] = {}
        self.ok: list[tuple[str, bool]] = []
        self.braid_matrices: dict[str, list] = {}
        self.report_bytes: dict[str, int] = {}

    def run(self, cli, job: pools.Job) -> float:
        spent = _spent(self.cal)
        seconds, rc, text = run_job(cli, job)
        seconds -= _spent(self.cal) - spent
        self.times[job.key].append(seconds)
        self.jobs[job.key] = job
        self.report_bytes[job.key] = len(text.encode())
        problems = self.checker.problems(job, rc, text)
        for problem in problems:
            print(f"FAILED {job.key}: {problem}", file=sys.stderr)
        self.ok.append((job.key, not problems))
        if job.subcommand == "braid-rep" and not problems:
            self.braid_matrices[job.key] = json.loads(text)["result"]["matrix"]
        return seconds

    def failed(self, unstable=()) -> int:
        """Job runs that failed a check, or whose job is in `unstable`."""
        relation = checks.braid_relation_failures(self.braid_matrices)
        for key in relation:
            print(f"FAILED {key}: braid relation with 1,2,1", file=sys.stderr)
        bad = set(relation) | set(unstable)
        return sum(1 for key, ok in self.ok if not ok or key in bad)

    def job_means(self) -> dict[str, float]:
        return {key: statistics.mean(ts) for key, ts in self.times.items()}

    def subcommand_seconds(self) -> dict[str, float]:
        """Per subcommand, the summed mean time of its jobs."""
        sums: dict[str, float] = defaultdict(float)
        for key, mean in self.job_means().items():
            sums[self.jobs[key].subcommand] += mean
        return sums


def load_checker() -> checks.Checker:
    references = json.loads((Path(__file__).parent / "reference.json").read_text())
    return checks.Checker(SRC / "uqbench" / "presets", references)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(args, jobs) -> dict:
    """Passes of `jobs` until `args.seconds` have gone by, stopping after
    the first job past the deadline once every job has run.  Set-up is
    repeated every `args.seconds / SETUP_SAMPLES` seconds between jobs, so
    that its samples, like the job times, span the whole run.  Times are
    divided by the host's mean slowdown over the run (see calibration.py);
    job times are averaged, not taken as medians, to match that mean."""
    with calibration.Calibration() as cal:
        cli, seconds = setup(args.workload, jobs, cal)
        setup_times = [seconds]
        runs = Runs(load_checker(), cal)
        pass_walls = []
        start = last_setup = time.perf_counter()
        while not pass_walls or time.perf_counter() - start < args.seconds:
            wall = 0.0
            for job in jobs:
                wall += runs.run(cli, job)
                now = time.perf_counter()
                if pass_walls and now - start >= args.seconds:
                    break
                if now - last_setup >= args.seconds / SETUP_SAMPLES:
                    cli, seconds = setup(args.workload, jobs, cal)
                    setup_times.append(seconds)
                    last_setup = time.perf_counter()
            else:
                pass_walls.append(wall)
    slowdown = cal.slowdown()
    means = runs.job_means()
    raw_wall = sum(means.values())
    raw_setup = statistics.median(setup_times)
    sub = runs.subcommand_seconds()
    print(f"{args.workload} seed {args.seed}: {len(runs.ok)} job runs, "
          f"{len(pass_walls)} whole passes of {len(jobs)} jobs; pass walls "
          + " ".join(f"{w:.3f}" for w in pass_walls)
          + f" s; host slowdown {slowdown:.3f} from {len(cal.samples)} samples;"
          f" unscaled wall {raw_wall:.3f} s, setup {raw_setup:.4f} s;"
          f" job_s.p50 {statistics.median(means.values()) / slowdown:.4f} s"
          f" over {len(means)} jobs; per subcommand "
          + " ".join(f"{k}={v / slowdown:.3f}s" for k, v in sorted(sub.items())))
    failed = runs.failed()
    return {
        "correct": failed == 0,
        "attempted": len(runs.ok),
        "failed": failed,
        "metrics": {
            "wall_s": metric(raw_wall / slowdown, "s"),
            "setup_s": metric(raw_setup / slowdown, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        },
    }


def traced_pass(tracer, runs: Runs, cli, jobs, first_job: int):
    """One pass with the tracer installed; returns the pass wall time, the
    counter deltas of the pass and the per-job counts."""
    tracer.install()
    try:
        wall, per_job = 0.0, {}
        pass_start = tracer.snapshot()
        for index, job in enumerate(jobs):
            tracer.begin_job(first_job + index)
            before = tracer.snapshot()
            wall += runs.run(cli, job)
            per_job[job.key] = {k: v - before.get(k, 0)
                                for k, v in tracer.snapshot().items()
                                if not k.endswith(".self_s")
                                and v != before.get(k, 0)}
        delta = {k: v - pass_start.get(k, 0)
                 for k, v in tracer.snapshot().items()}
    finally:
        tracer.uninstall()
    return wall, delta, per_job


def traced_run(args, jobs) -> dict:
    """Untraced and traced passes in turn, twice each, so that drift in the
    host's speed falls on both alike."""
    cli, _ = setup(args.workload, jobs)
    checker = load_checker()
    untraced, traced = Runs(checker), Runs(checker)
    tracer = tracing.Tracer()
    untraced_walls, traced_walls, deltas, per_job = [], [], [], []
    for n in range(2):
        untraced_walls.append(sum(untraced.run(cli, job) for job in jobs))
        wall, delta, counts = traced_pass(tracer, traced, cli, jobs, n * len(jobs))
        traced_walls.append(wall)
        deltas.append(delta)
        per_job.append(counts)

    unstable = [key for key in per_job[0] if per_job[0][key] != per_job[1][key]]
    for key in unstable:
        diff = sorted(k for k in per_job[0][key]
                      if per_job[0][key][k] != per_job[1][key].get(k))
        print(f"FAILED {key}: counts differ between traced passes: {diff[:5]}",
              file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.tsv"
    n_spans = tracer.write_spans(spans_path)

    mean = {k: (deltas[0].get(k, 0) + deltas[1].get(k, 0)) / 2
            for k in set(deltas[0]) | set(deltas[1])}
    values = tracing.layer_metrics(mean)
    values["cli.report_bytes"] = (sum(untraced.report_bytes.values()), "bytes")
    values["trace.overhead_s"] = (
        statistics.mean(traced_walls) - statistics.mean(untraced_walls), "s")
    sub = untraced.subcommand_seconds()
    for name in SUBCOMMAND_METRICS:
        values[name.replace("-", "_") + "_s"] = (sub.get(name, 0.0), "s")
    print(f"{args.workload} seed {args.seed}: untraced passes "
          + " ".join(f"{w:.3f}" for w in untraced_walls) + " s, traced passes "
          + " ".join(f"{w:.3f}" for w in traced_walls)
          + f" s; {n_spans} spans kept in {spans_path.relative_to(ROOT)}")
    failed = untraced.failed() + traced.failed(unstable)
    return {
        "correct": failed == 0,
        "attempted": len(untraced.ok) + len(traced.ok),
        "failed": failed,
        "metrics": {k: metric(v, unit) for k, (v, unit) in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uqbench" / "cli.py").is_file():
        print(f"uqbench sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("UQBENCH_PRESET_PATH", None)
    sys.path.insert(0, str(SRC))
    jobs = pools.draw(args.workload, args.seed)
    result = traced_run(args, jobs) if args.trace else timed_run(args, jobs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
