"""Tests of the benchmark itself: every correctness check can fail, and the
tracer wraps, counts and restores.

    python3 -m pytest perfbench/test_perfbench.py -q

Each check is fed a real chainlab result and a perturbed copy of it; the
real one must pass and the perturbed one must be rejected.
"""

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import chainlab as cl  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_energy_check_rejects_injected_drift():
    chain = cl.bundled_chain("p1_condition_c")
    traj = cl.evolve(chain, cl.state_from_dict({0: (0.0, 1.0)}), 2.0)
    assert wl.check_energy(traj.energy) == []
    drifted = traj.energy * (1.0 + 1e-7 * traj.t / traj.t[-1])
    assert wl.check_energy(drifted)


def test_trajectory_checks_pass_on_slow_zero_mode_approach():
    # on this seed u0 nears its limit slowly: the deviation on [3T/4, T]
    # is 0.63 of that on [T/4, T/2]
    work = wl.Trajectories(cl, seed=460417786)
    jobs = {j.name: j for j in work.jobs(0)}
    out = jobs["r1_zero_mode"].run()
    assert jobs["r1_zero_mode"].check(out) == []
    traj = out[0]
    y0 = work.inputs[2][2]
    exact = ref.finite_chain_block_displacement(
        traj.chain, list(y0.sites), y0.u, y0.v, traj.t, work.HORIZON)
    assert wl.check_block_displacement(exact, traj.defect_u) == []
    assert wl.check_block_displacement(exact, traj.defect_u + 2e-7 * traj.t / traj.t[-1])


def test_initial_kernel_check_rejects_derivative_offset():
    chain = cl.bundled_chain("p1_condition_c")
    t = 0.1 * np.arange(201)
    ker = cl.kernel_N(chain, cl.classify(chain), t, orders=(0, 1))
    assert wl.check_initial_kernel(ker.data, chain.defect_mass, list(ker.orders)) == []
    data = ker.data.copy()
    data[1, 0, 0, 0] += 1e-6
    assert wl.check_initial_kernel(data, chain.defect_mass, list(ker.orders))


def test_block_response_check_rejects_shift():
    chain = cl.bundled_chain("p1_c0_ii")
    y0 = cl.state_from_dict({-2: (0.3, 0.0), 0: (0.1, 1.0), 1: (-0.2, 0.2)})
    traj = cl.evolve(chain, y0, 2.0, dt=2.5e-4, sample_dt=1.25e-3)
    kernels = cl.kernel_N(chain, cl.classify(chain), traj.t, orders=(0, 1))
    feeds = cl.boundary_feeds(chain, y0, traj.t)
    response = cl.defect_response(chain, y0, kernels, *feeds)
    assert wl.check_block_response(response, traj.defect_u) == []
    assert wl.check_block_response(response + 2e-4, traj.defect_u)


@pytest.mark.parametrize("name, flipped", [("p1_condition_c", "C0"),
                                           ("p1_c0_ii", "C"),
                                           ("r2_real_zero", "C")])
def test_verdict_check_rejects_flipped_kind(name, flipped):
    chain = cl.bundled_chain(name)
    verdict = cl.classify(chain)
    expected = ref.spectral_count(chain)
    assert wl.check_verdict(chain, verdict, expected) == []
    assert wl.check_verdict(chain, dataclasses.replace(verdict, kind=flipped), expected)


def test_verdict_check_rejects_missing_or_wrong_zero():
    chain = cl.bundled_chain("r2_real_zero")
    verdict = cl.classify(chain)
    expected = ref.spectral_count(chain)
    for star in (None, math.nan, 1.01 * verdict.omega_star):
        assert wl.check_verdict(chain, dataclasses.replace(verdict, omega_star=star), expected)


def test_fault_chains_are_counted_known_faults():
    sweep = wl.ClassifySweep(cl, seed=0)
    sweep.prepare()
    jobs = {j.name: j for j in sweep.jobs(0)}
    for name in wl.ClassifySweep.FAULT_CHAINS:
        chain = dict(sweep.fixed)[name]
        expected = ref.spectral_count(chain)
        assert expected["kind"] == "real_zero" and max(expected["zeros"]) == 2
        verdict = jobs[name].run()
        assert verdict.omega_star is None
        assert jobs[name].known_fault and jobs[name].check(verdict)
        # the redraw rule for random chains catches both ways the scan fails
        assert wl._meets_scan_fault(chain, expected, wl.ClassifySweep.CLOSE_PAIR)
    assert len(sweep.random) == 6 * wl.ClassifySweep.PER_SIZE


def test_spectral_count_matches_dense_determinant_scan():
    # zeros per gap equal the sign changes of det D on a grid finer than
    # their spacing (the reproducer's pair is 4e-3 apart)
    chain = cl.build_chain(wl.ClassifySweep.FAULT_CHAINS["reproducer"])
    count = ref.spectral_count(chain)
    lo = count["gaps"][-1][0]
    grid = np.linspace(lo + 1e-9, 4.0 * lo, 20001)
    dets = np.array([np.linalg.det(ref._real_symbol(chain, w)) for w in grid])
    assert count["zeros"] == [2]
    assert np.count_nonzero(np.diff(np.sign(dets))) == 2


def test_tracer_wraps_every_binding_counts_and_restores():
    original = cl.simulate.evolve
    tracer = Tracer()
    tracer.install()
    try:
        assert cl.evolve is not original and cl.simulate.evolve is cl.evolve
        chain = cl.bundled_chain("p1_condition_c")
        traj = cl.evolve(chain, cl.state_from_dict({0: (0.0, 1.0)}), 1.0)
    finally:
        tracer.uninstall()
    assert cl.evolve is original and cl.simulate.evolve is original
    stats = tracer.stats
    assert stats["simulate.evolve"].calls == 1
    assert stats["simulate.evolve"].count == len(traj.t)
    assert stats["kernels.advance"].count == wl._site_steps(traj)
    assert stats["chain.load_chain"].calls == 1
    assert 0.0 < stats["simulate.evolve"].self_s < stats["simulate.evolve"].time_s


def test_tracer_reports_absent_target(monkeypatch):
    monkeypatch.delattr(cl.propagator, "_gl")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "propagator.gauss_nodes" in tracer.absent


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
