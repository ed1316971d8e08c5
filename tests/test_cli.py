import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainlab
from chainlab.cli import main


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


def test_classify_bundled_config(tmp_path, capsys):
    code = run(tmp_path, "classify", "--chain", "p1_condition_c")
    assert code == 0
    out = capsys.readouterr().out
    assert "kind: C" in out
    report = tmp_path / "p1_condition_c_verdict.txt"
    assert report.exists()
    text = report.read_text()
    assert "config-sha256" in text and "decay_beta: 3" in text


def test_classify_missing_config(tmp_path, capsys):
    code = run(tmp_path, "classify", "--chain", "does_not_exist")
    assert code == 2
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize("mass,pinning", [("1.0", "nan"), ("inf", "1.0")])
def test_classify_rejects_non_finite_config(tmp_path, capsys, mass, pinning):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{s}/{f} = 1.0\n" for s in ("bulk_minus", "bulk_plus")
                           for f in ("mass", "coupling", "pinning"))
                   + f"defect_mass = {mass}\ndefect_pinning = {pinning}\n")
    assert run(tmp_path, "classify", "--chain", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "error: config:" in err and "must be finite" in err
    assert not (tmp_path / "bad_verdict.txt").exists()


@pytest.mark.parametrize("module", ["chainlab", "chainlab.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    src = str(Path(chainlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", module, "classify", "--chain", "p1_condition_c",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "kind: C" in proc.stdout
    assert (tmp_path / "p1_condition_c_verdict.txt").exists()


def test_simulate_zero_state_and_determinism(tmp_path):
    code = run(tmp_path, "simulate", "--chain", "r1_zero_mode",
               "--T", "4", "--dt", "0.01", "--sample-dt", "0.5")
    assert code == 0
    traj = tmp_path / "r1_zero_mode_trajectory.csv"
    first = traj.read_bytes()
    code = run(tmp_path, "simulate", "--chain", "r1_zero_mode",
               "--T", "4", "--dt", "0.01", "--sample-dt", "0.5")
    assert code == 0
    assert traj.read_bytes() == first
    body = [l for l in first.decode().splitlines() if not l.startswith("#")]
    assert body[0].startswith("t,energy,")
    assert len(body) == 10  # header + 9 samples


def test_simulate_zero_initial_data(tmp_path):
    code = run(tmp_path, "simulate", "--chain", "p1_condition_c",
               "--zero-state", "--T", "2", "--dt", "0.01", "--sample-dt", "0.5")
    assert code == 0
    text = (tmp_path / "p1_condition_c_trajectory.csv").read_text()
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    assert all(float(x) == 0.0 for row in rows for x in row[1:])


def test_convergence_failure_exit_code(tmp_path, monkeypatch, capsys):
    from chainlab import cli
    from chainlab.errors import ConvergenceError

    def boom(args):
        raise ConvergenceError("stub quadrature failure")

    monkeypatch.setattr(cli, "cmd_classify", boom)
    monkeypatch.setitem(cli.__dict__, "cmd_classify", boom)
    code = main(["classify", "--chain", "p1_condition_c", "--out", str(tmp_path)])
    assert code == 3
    assert "error: convergence:" in capsys.readouterr().err


def test_simulate_snapshots(tmp_path):
    code = run(tmp_path, "simulate", "--chain", "p1_condition_c",
               "--T", "3", "--dt", "0.01", "--sample-dt", "1.0",
               "--snapshot", "2.0")
    assert code == 0
    snaps = list(tmp_path.glob("p1_condition_c_snapshot_t*.csv"))
    assert len(snaps) == 1
    lines = [l for l in snaps[0].read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "n,u,v"


def test_kernel_and_gamma_csv(tmp_path):
    code = run(tmp_path, "kernel", "--chain", "p1_condition_c",
               "--T", "10", "--dt-out", "0.5")
    assert code == 0
    text = (tmp_path / "p1_condition_c_kernel.csv").read_text()
    data_lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert data_lines[0].split(",")[:2] == ["t", "N_00_d0"]
    first_row = data_lines[1].split(",")
    assert float(first_row[1]) == pytest.approx(0.0, abs=1e-12)

    code = run(tmp_path, "kernel", "--chain", "p1_condition_c",
               "--kind", "boundary", "--n", "1", "--T", "10", "--dt-out", "0.5")
    assert code == 0
    assert (tmp_path / "p1_condition_c_gamma.csv").exists()


def test_kernel_refuses_real_zero_chain(tmp_path, capsys):
    code = run(tmp_path, "kernel", "--chain", "r2_real_zero", "--T", "5")
    assert code == 2
    assert "poles" in capsys.readouterr().err


def test_greens_table(tmp_path):
    code = run(tmp_path, "greens", "--chain", "p2_condition_c",
               "--side", "minus", "--times", "0.0,2.0", "--n-max", "4")
    assert code == 0
    text = (tmp_path / "p2_condition_c_greens_minus.csv").read_text()
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    # t = 0 row with n = 0 is the identity block
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_report(tmp_path, capsys):
    code = run(tmp_path, "decay-fit", "--chain", "p1_condition_c",
               "--T", "60", "--dt", "0.002", "--sample-dt", "0.05",
               "--fit-window", "10", "60")
    assert code == 0
    out = capsys.readouterr().out
    assert "slope:" in out and "expected_slope:" in out
    assert (tmp_path / "p1_condition_c_envelope.csv").exists()


def test_resonance_command(tmp_path, capsys):
    code = run(tmp_path, "resonance", "--chain", "r2_real_zero", "--T", "60")
    assert code == 0
    out = capsys.readouterr().out
    assert "passed: True" in out
    code = run(tmp_path, "resonance", "--chain", "p1_condition_c")
    assert code == 2


def test_reproduce_exit_codes(tmp_path, monkeypatch):
    # the battery itself runs in test_acceptance; here only the exit wiring
    from chainlab import acceptance

    def fake_battery(printer=print):
        return [acceptance.CriterionResult(1, "stub", True, 0.0),
                acceptance.CriterionResult(2, "stub", True, 0.0)]

    monkeypatch.setattr(acceptance, "run_battery", fake_battery)
    assert run(tmp_path, "reproduce") == 0
    assert (tmp_path / "acceptance_summary.txt").exists()

    def fake_battery_fail(printer=print):
        return [acceptance.CriterionResult(1, "stub", False, 0.0)]

    monkeypatch.setattr(acceptance, "run_battery", fake_battery_fail)
    assert run(tmp_path, "reproduce") == 4
