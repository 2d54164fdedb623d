"""Smoke runs of the scripts under scripts/ through their main(argv), at
small sizes: each exits 0 and prints what it promises."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

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
    """One small run of braiding_audit.py, counting its tensor_module calls:
    (module, exit code, stdout, calls)."""
    audit = _module("braiding_audit")
    calls = []

    def counted(*args):
        calls.append(args)
        return tensor_module(*args)

    audit.tensor_module = counted
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = audit.main(["--lam-max", "1", "--cap", "2", "--ybe-cap", "2"])
    return audit, code, out.getvalue(), calls


def test_braiding_audit(braiding_audit_run):
    _, code, out, _ = braiding_audit_run
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
    audit, _, _, calls = braiding_audit_run
    assert len(calls) == 2 * len(audit.YBE_DATA) == 10


@pytest.mark.parametrize("argv", [[], ["--cap", "4", "--window", "2",
                                       "--order", "2"]])
def test_rigidity_demo(capsys, argv):
    assert _main("rigidity_demo")(argv) == 0
    out = capsys.readouterr().out
    assert "gauge recovered" in out
