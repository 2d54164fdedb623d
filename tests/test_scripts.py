"""Smoke runs of the scripts under scripts/ through their main(argv), at
small sizes: each exits 0 and prints what it promises."""

import contextlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest

from uqbench import weightmods
from uqbench.weightmods import tensor_module

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(name):
    return _module(name).main


def test_dimension_sweep(capsys):
    assert _main("dimension_sweep")(["--data", "A1,A2,G2", "--max-total",
                                     "4"]) == 0
    out = capsys.readouterr().out
    assert "== G2 (rank 2) ==" in out
    # G2 in degree (1, 2): three words, quotient dimension 2 (the Kostant
    # count), and the Serre element of (1, 0) spans the radical
    assert "      (1, 2)       3     2        1" in out.splitlines()


@pytest.fixture(scope="module")
def braiding_audit_run():
    """One small run of braiding_audit.py, recording its tensor_module calls
    and the E-actions its windows read coactions from:
    (module, exit code, stdout, calls, reads)."""
    audit = _module("braiding_audit")
    calls, reads = [], []

    def counted(*args):
        calls.append(args)
        return tensor_module(*args)

    def read(nichols, labels, e_cols):
        reads.append(e_cols)
        return reader(nichols, labels, e_cols)

    reader = weightmods._dual_basis_coaction
    audit.tensor_module = counted
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(weightmods, "_dual_basis_coaction", read)
        code = audit.main(["--lam-max", "1", "--cap", "2", "--ybe-cap", "2"])
    return audit, code, out.getvalue(), calls, reads


# the small run's report up to its timing line; the naturality and hexagon
# stages run on the fixed MIXED windows, so those 15 lines are the default
# run's too
SMALL_AUDIT = [
    "closed-form audit: 24 pairs, 0 mismatches",
    "ybe A1 lam=0 cap=2: exact",
    "ybe A1 lam=1 cap=2: exact",
    "ybe A2 lam=(0, 1) cap=2: exact",
    "ybe A2 lam=(1, 0) cap=2: exact",
    "ybe B2 lam=(0, 1) cap=2: exact",
    "ybe B2 lam=(1, 0) cap=2: exact",
    "ybe G2 lam=(0, 1) cap=2: exact",
    "ybe G2 lam=(1, 0) cap=2: exact",
    "ybe A1xA1 lam=(0, 1) cap=2: exact",
    "ybe A1xA1 lam=(1, 0) cap=2: exact",
    "naturality A1 lam=2/-1 cap=4: 59 cases, 0 failures",
    "hexagon A1 lam=2/-1 cap=4: 146 cases, 0 failures",
    "left-hexagon A1 lam=2/-1 cap=4: 50 cases, 0 failures",
    "naturality A2 lam=(1, 1)/(0, 2) cap=3: 420 cases, 0 failures",
    "hexagon A2 lam=(1, 1)/(0, 2) cap=3: 1474 cases, 0 failures",
    "left-hexagon A2 lam=(1, 1)/(0, 2) cap=3: 338 cases, 0 failures",
    "naturality B2 lam=(1, 1)/(2, 0) cap=3: 442 cases, 0 failures",
    "hexagon B2 lam=(1, 1)/(2, 0) cap=3: 1646 cases, 0 failures",
    "left-hexagon B2 lam=(1, 1)/(2, 0) cap=3: 392 cases, 0 failures",
    "naturality G2 lam=(1, 0)/(0, 1) cap=2: 152 cases, 0 failures",
    "hexagon G2 lam=(1, 0)/(0, 1) cap=2: 350 cases, 0 failures",
    "left-hexagon G2 lam=(1, 0)/(0, 1) cap=2: 98 cases, 0 failures",
    "naturality A1xA1 lam=(1, 2)/(0, 1) cap=3: 356 cases, 0 failures",
    "hexagon A1xA1 lam=(1, 2)/(0, 1) cap=3: 1025 cases, 0 failures",
    "left-hexagon A1xA1 lam=(1, 2)/(0, 1) cap=3: 200 cases, 0 failures",
]


def test_braiding_audit(braiding_audit_run):
    _, code, out, _, _ = braiding_audit_run
    assert code == 0
    *lines, elapsed = out.splitlines()
    assert lines == SMALL_AUDIT
    assert elapsed.startswith("elapsed ")


def test_braiding_audit_builds_each_tensor_window_once(braiding_audit_run):
    # M (x) N and N (x) M, once per datum, serve naturality and both hexagons
    audit, _, _, calls, _ = braiding_audit_run
    assert len(calls) == 2 * len(audit.YBE_DATA) == 10


def test_braiding_audit_reads_each_coaction_once(braiding_audit_run):
    # every window, Verma or tensor, reads its coaction at most once; the
    # recorded E-actions stay alive, so equal ids mean the same window
    _, _, _, _, reads = braiding_audit_run
    assert reads
    assert len({id(e_cols) for e_cols in reads}) == len(reads)


@pytest.mark.parametrize("script, argv", [
    ("braiding_audit", ["--cap", "-1"]),
    ("braiding_audit", ["--ybe-cap", "-1"]),
    ("braiding_audit", ["--lam-max", "-1"]),
    ("dimension_sweep", ["--max-total", "-1"]),
    ("dimension_sweep", ["--data", "X"]),
], ids=["audit-cap", "audit-ybe-cap", "audit-lam-max", "sweep-max-total",
        "sweep-data"])
def test_bad_arguments_exit_2_without_a_traceback(script, argv):
    # a negative size or an unknown preset is a configuration error: exit 2
    # with argparse's usage and one error line, no traceback, no report
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{script}.py"), *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: ")
    errors = [line for line in proc.stderr.splitlines() if ": error: " in line]
    assert errors == [proc.stderr.splitlines()[-1]]
    assert errors[0].startswith(f"{script}.py: error: ")
