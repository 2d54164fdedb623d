"""Command-line interface: canonical reports, determinism, exit codes.

Every subcommand is run twice through a fresh interpreter and its stdout
compared byte for byte; hash randomization is varied between the runs so
accidental dict-order dependence cannot hide.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqbench.cli import main

CASES = {
    "nichols-dims": ["nichols-dims", "--datum", "A2", "--max-degree", "3"],
    "serre-check": ["serre-check", "--datum", "A2", "--cap", "6"],
    "hopf-check": ["hopf-check", "--datum", "A1", "--cap", "6",
                   "--samples", "2"],
    "ybe-check": ["ybe-check", "--datum", "A1", "--lam", "2", "--cap", "3"],
    "braid-rep": ["braid-rep", "--datum", "A1", "--lam", "1",
                  "--strands", "3", "--word", "1,2,-1", "--cap", "2"],
    "verma": ["verma", "--datum", "A1", "--lam", "3", "--cap", "3"],
    "mlambda": ["mlambda", "--datum", "A1", "--lam", "3", "--window", "2,2"],
    "converge-cert": ["converge-cert", "--p", "5", "--vh", "1"],
    "admissible": ["admissible", "--datum", "A1", "--p", "5", "--vh", "2",
                   "--r-exp", "1", "--s-exp", "1"],
    "rigidity-solve": ["rigidity-solve", "--order", "3"],
    "trivialize": ["trivialize"],
}


def run_cli(args, hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "uqbench", *args],
        capture_output=True, text=True, env=env)


@pytest.mark.parametrize("name", sorted(CASES))
def test_byte_determinism(name):
    first = run_cli(CASES[name], hash_seed=0)
    second = run_cli(CASES[name], hash_seed=31337)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stdout.strip(), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_are_json_with_config_echo(name):
    proc = run_cli(CASES[name])
    report = json.loads(proc.stdout)
    assert report["command"] == name
    assert "config" in report and "result" in report and "status" in report


def test_exit_zero_on_success():
    assert run_cli(CASES["serre-check"]).returncode == 0
    assert run_cli(CASES["converge-cert"]).returncode == 0


def test_exit_one_on_mathematical_failure():
    proc = run_cli(["admissible", "--datum", "A1", "--p", "5", "--vh", "1",
                    "--r-exp", "0", "--s-exp", "0"])
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["status"] == "FAIL"
    assert report["result"]["admissible"] is False


def test_exit_one_on_obstruction():
    proc = run_cli(["rigidity-solve", "--cap", "8", "--window", "3",
                    "--order", "1", "--seed-coeff", "4,0,0"])
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["status"] == "FAIL"
    assert report["result"]["obstructed_order"] == 1


def test_exit_two_on_unknown_preset():
    proc = run_cli(["serre-check", "--datum", "NOPE"])
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["status"] == "ERROR"


def test_exit_two_on_convergence_boundary():
    proc = run_cli(["converge-cert", "--p", "5", "--vh", "1/4"])
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert "slope" in report["result"]["error"]


def test_exit_two_on_malformed_weight():
    proc = run_cli(["verma", "--datum", "A1", "--lam", "x"])
    assert proc.returncode == 2


def test_exit_two_on_negative_max_degree():
    proc = run_cli(["nichols-dims", "--datum", "A2", "--max-degree", "-1"])
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "ERROR"
    assert "max-degree" in report["result"]["error"]


@pytest.mark.parametrize("args", [
    ["converge-cert", "--p", "4", "--vh", "1"],
    ["converge-cert", "--p", "5", "--vh", "0"],
    ["admissible", "--datum", "A1", "--p", "3", "--vh", "1/3"],
    ["braid-rep", "--datum", "A2", "--lam", "1,1", "--strands", "3",
     "--cap", "2"],
    ["braid-rep", "--datum", "A1xA1", "--lam", "1,1", "--strands", "3",
     "--cap", "2"],
    ["ybe-check", "--datum", "A2", "--lam", "1,1", "--cap", "2"],
    ["ybe-check", "--datum", "A1xA1", "--lam", "1,1", "--cap", "2"],
    ["rigidity-solve", "--order", "2", "--prime", "1"],
    ["rigidity-solve", "--order", "2", "--prime=-1"],
    ["rigidity-solve", "--order", "2", "--prime", "4"],
], ids=lambda a: " ".join(a))
def test_exit_two_outside_domain_without_traceback(args):
    proc = run_cli(args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "ERROR"
    assert report["result"]["error"]


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["converge-cert", "admissible"]),
       datum=st.sampled_from(["A1", "B2"]),
       p=st.integers(min_value=2, max_value=12),
       vh=st.sampled_from(["0", "-1", "-1/2", "1/4", "1/3", "1/2", "1",
                           "3/2", "2"]))
def test_padic_commands_always_report(command, datum, p, vh):
    argv = [command, "--p", str(p), "--vh=" + vh]
    if command == "admissible":
        argv += ["--datum", datum]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    report = json.loads(out.getvalue())
    assert report["command"] == command and "status" in report


def test_exit_three_on_window_escape():
    proc = run_cli(["braid-rep", "--datum", "A1", "--lam", "3",
                    "--strands", "2", "--word", "1", "--cap", "2",
                    "--module-cap", "1"])
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["status"] == "ERROR"


def test_nichols_dims_worked_entries():
    proc = run_cli(["nichols-dims", "--datum", "A2", "--max-degree", "4"])
    dims = json.loads(proc.stdout)["result"]["dims"]
    assert dims["(1, 1)"] == 2
    assert dims["(2, 1)"] == 2
    assert dims["(0, 0)"] == 1


def test_serre_check_summary_line():
    proc = run_cli(["serre-check", "--datum", "A2"])
    report = json.loads(proc.stdout)
    assert report["result"]["summary"] == "PASS: 2 Serre elements in radical"
    assert report["status"] == "PASS"


def test_admissible_worked_pass_case():
    proc = run_cli(["admissible", "--datum", "A1", "--p", "5", "--vh", "1",
                    "--r-exp", "1", "--s-exp", "0"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["admissible"] is True


def test_converge_cert_slope_value():
    proc = run_cli(CASES["converge-cert"])
    result = json.loads(proc.stdout)["result"]
    assert result["slope"] == "3/4"
    assert result["reverified"] is True


def test_rigidity_solve_report_shape():
    proc = run_cli(["rigidity-solve", "--order", "4", "--prime", "5"])
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["residual_zero_mod_next_order"] is True
    assert result["conjugator"][1] == {"(0, 0, 1)": "1"}
    first = result["transcript"][0]
    assert first["defect"] == "solved"
    assert first["u_valuations"] == {"(0, 0, 1)": "0"}


def test_trivialize_report_shape():
    proc = run_cli(["trivialize", "--plant", "E=H"])
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["verified"] is True
    assert result["transcript"][0]["defect"] == "solved"


def test_out_flag_duplicates_stdout(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli(["nichols-dims", "--datum", "A1", "--max-degree", "2",
                    "--out", str(target)])
    assert proc.returncode == 0
    assert target.read_text() == proc.stdout


def test_preset_env_var_reaches_cli(tmp_path):
    payload = {"name": "W1", "rank": 1, "pairing": [[2]],
               "simple_roots": [[2]], "coroots": [[1]], "comments": ""}
    (tmp_path / "W1.json").write_text(json.dumps(payload))
    env = dict(os.environ)
    env["UQBENCH_PRESET_PATH"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "uqbench", "nichols-dims", "--datum", "W1",
         "--max-degree", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["dims"]["(2,)"] == 1
