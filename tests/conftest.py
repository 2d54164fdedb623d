"""Prints one PASS/FAIL line per acceptance criterion after the run, and
lets the tests that run `python -m uqbench` in a subprocess import the
package from this checkout's `src/` (pytest's `pythonpath` setting only
reaches the test process itself)."""

import os
import re


def pytest_configure(config):
    src = str(config.rootpath / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([src] + paths)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    del exitstatus, config
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            m = re.search(r"test_criterion_(\d+)_(\w+)", nodeid)
            if not m:
                continue
            num = int(m.group(1))
            label = m.group(2).replace("_", " ")
            verdict = "PASS" if outcome == "passed" else "FAIL"
            rows[num] = (verdict, label)
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(rows):
        verdict, label = rows[num]
        marker = "green" if verdict == "PASS" else "red"
        terminalreporter.write_line(
            f"criterion {num}: {verdict} - {label}", **{marker: True})
