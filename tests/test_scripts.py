"""Smoke runs of the scripts under scripts/ through their main(argv), at
small sizes: each exits 0 and prints what it promises."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_dimension_sweep(capsys):
    assert _main("dimension_sweep")(["--data", "A1,A2,G2", "--max-total",
                                     "4"]) == 0
    out = capsys.readouterr().out
    assert "== G2 (rank 2) ==" in out
    # G2 in degree (1, 2): three words, quotient dimension 2 (the Kostant
    # count), and the Serre element of (1, 0) spans the radical
    assert "      (1, 2)       3     2        1" in out.splitlines()


def test_braiding_audit(capsys):
    assert _main("braiding_audit")(["--lam-max", "1", "--cap", "2",
                                    "--ybe-cap", "2"]) == 0
    out = capsys.readouterr().out
    assert ", 0 mismatches" in out
    assert "FAILED" not in out
    assert "ybe A2 lam=(0, 1) cap=2: exact" in out
    for stage in ("naturality", "hexagon"):
        lines = [line for line in out.splitlines() if line.startswith(stage)]
        assert len(lines) == 5
        assert all(line.endswith(", 0 failures") for line in lines)
    assert "naturality A2 lam=(1, 1)/(0, 2) cap=3: 420 cases, 0 failures" in out


@pytest.mark.parametrize("argv", [[], ["--cap", "4", "--window", "2",
                                       "--order", "2"]])
def test_rigidity_demo(capsys, argv):
    assert _main("rigidity_demo")(argv) == 0
    out = capsys.readouterr().out
    assert "gauge recovered" in out
