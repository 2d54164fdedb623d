"""Self-test of the benchmark on a tiny job pool.

    python3 perfbench/smoke.py

Runs run.py on the `smoke` pool (A1 `nichols-dims` and one `converge-cert`),
untraced and traced, and checks that each last line has the keys and
metric names BENCHMARK.json lists and reports no failure.  It also checks
that the checks catch a corrupted report and that run.py exits non-zero,
printing nothing, in a directory without the uqbench sources.  It takes a
few seconds and is not part of the test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import pools

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed",
         "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def check_result(proc, names: list[str]) -> None:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(names), sorted(result["metrics"])


def check_oracles() -> None:
    presets = ROOT / "src" / "uqbench" / "presets"
    assert len(checks.positive_roots(checks.load_pairing(presets, "G2"))) == 6
    table = checks.kostant_table(checks.load_pairing(presets, "A2"), 2)
    assert table == {"(0, 0)": 1, "(0, 1)": 1, "(1, 0)": 1, "(0, 2)": 1,
                     "(1, 1)": 2, "(2, 0)": 1}
    job = pools.Job(("nichols-dims", "--datum", "A2", "--max-degree", "2"))
    report = {"command": "nichols-dims", "status": "OK",
              "result": {"dims": dict(table, **{"(1, 1)": 1})}}
    problems = checks.Checker(presets, {}).problems(job, 0, json.dumps(report))
    assert "dimension table differs from the Kostant partition function" in problems
    assert checks.braid_relation_failures(
        {"w --word 1,2,1": [["1"]], "w --word 2,1,2": [["q"]]}) == ["w --word 2,1,2"]


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = run(bare, 0)
        assert proc.returncode != 0 and not proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracles()
    check_result(run(ROOT, 0), [m["name"] for m in spec["end_to_end"]])
    check_result(run(ROOT, 1), [m["name"] for m in spec["per_layer"]])
    check_bare_directory()
    print("perfbench smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
