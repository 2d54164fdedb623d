"""Smoke runs of the scripts under scripts/ through their main(argv), at
small sizes: each exits 0 and prints what it promises."""

import contextlib
import importlib.util
import io
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


def test_braiding_audit(braiding_audit_run):
    _, code, out, _, _ = braiding_audit_run
    assert code == 0
    assert ", 0 mismatches" in out
    assert "FAILED" not in out
    assert "ybe A2 lam=(0, 1) cap=2: exact" in out
    for stage in ("naturality", "hexagon", "left-hexagon"):
        lines = [line for line in out.splitlines() if line.startswith(stage)]
        assert len(lines) == 5
        assert all(line.endswith(", 0 failures") for line in lines)
    assert "naturality A2 lam=(1, 1)/(0, 2) cap=3: 420 cases, 0 failures" in out
    assert "left-hexagon A2 lam=(1, 1)/(0, 2) cap=3: 338 cases, 0 failures" in out


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
