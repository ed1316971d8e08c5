import math

import numpy as np
import pytest
from scipy.special import jv

from chainlab.chain import SideParams
from chainlab.classify import classify
from chainlab.errors import ResonancePoleError
from chainlab.propagator import (free_green, gamma_kernel, green_table,
                                 halfline_field, halfline_green, kernel_N)

from oracles import dirichlet_leapfrog, elevated_line_kernel
from util import make_chain, uniform_chain

UNIT_SIDE = SideParams(mass=1.0, coupling=1.0, pinning=0.0)


# ---------------------------------------------------------------------------
# free Green function


def test_free_green_initial_identity():
    g = free_green(0, 0.0, UNIT_SIDE)
    assert np.allclose(g, np.eye(2), atol=1e-14)
    g1 = free_green(3, 0.0, UNIT_SIDE)
    assert np.allclose(g1, 0.0, atol=1e-14)


def test_free_green_bessel_oracle():
    # unpinned unit chain: G00_t(n) = J_{2n}(2t)
    for n, t in [(0, 2.0), (1, 3.7), (4, 9.0)]:
        g = free_green(n, t, UNIT_SIDE)
        assert g[0, 0] == pytest.approx(jv(2 * n, 2 * t), abs=1e-12)
        assert g[1, 1] == g[0, 0]


def test_free_green_even_in_n():
    side = SideParams(mass=1.3, coupling=0.8, pinning=0.4)
    g00, g01, g10 = green_table(side, 4.0, 6)
    gm = free_green(-5, 4.0, side)
    assert gm[0, 0] == pytest.approx(g00[5], abs=1e-13)
    assert gm[0, 1] == pytest.approx(g01[5], abs=1e-13)


def test_free_green_time_derivative_structure():
    # d/dt G00 = -(m)(-nu^2 Delta + kappa^2) applied to G01 column
    side = SideParams(mass=1.5, coupling=0.9, pinning=0.3)
    t, h = 3.0, 1e-5
    n = 2
    d_fd = (free_green(n, t + h, side)[0, 0] - free_green(n, t - h, side)[0, 0]) / (2 * h)
    g01 = {m: free_green(m, t, side)[0, 1] for m in (n - 1, n, n + 1)}
    lap = g01[n + 1] - 2.0 * g01[n] + g01[n - 1]
    rhs = -side.mass * (-side.nu ** 2 * lap + side.kappa ** 2 * g01[n])
    assert d_fd == pytest.approx(rhs, rel=1e-7, abs=1e-9)


def test_free_green_column_conserves_energy():
    from chainlab.chain import LatticeState, energy
    side = SideParams(mass=1.0, coupling=1.0, pinning=0.5)
    chain = make_chain(m_minus=1.0, g_minus=1.0, mu_minus=0.5,
                       defect_mass=(1.0,), defect_pinning=(0.5,))
    import warnings as _warnings
    vals = []
    for t in (0.0, 2.0, 6.0, 12.0):
        g00, g01, g10 = green_table(side, t, 40)
        u = np.concatenate([g00[:0:-1], g00])
        v = np.concatenate([g10[:0:-1], g10])
        st = LatticeState(-39, u, v)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")  # far tails touch the window edge
            vals.append(energy(chain, st))
    assert np.allclose(vals, vals[0], rtol=1e-8)


# ---------------------------------------------------------------------------
# half-line Green function


def test_halfline_wall_value_zero():
    z, vz = halfline_field(UNIT_SIDE, [1.0, -0.3], [0.2, 0.0],
                           np.array([0.0, 1.5, 4.0]), [0, 1, 2])
    assert np.allclose(z[0], 0.0, atol=1e-14)
    assert np.allclose(z[1][0], 1.0, atol=1e-12)


def test_halfline_initial_identity():
    g = halfline_green(2, 2, 0.0, UNIT_SIDE)
    assert np.allclose(g, np.eye(2), atol=1e-13)
    g2 = halfline_green(-3, -1, 0.0, UNIT_SIDE)
    assert np.allclose(g2, 0.0, atol=1e-13)
    with pytest.raises(ValueError, match="same side"):
        halfline_green(2, -1, 1.0, UNIT_SIDE)


@pytest.mark.parametrize("side", [
    UNIT_SIDE, SideParams(mass=1.4, coupling=0.7, pinning=0.6)])
def test_halfline_matches_dirichlet_leapfrog(side):
    rng = np.random.default_rng(2)
    u0 = np.zeros(6)
    v0 = np.zeros(6)
    u0[:4] = rng.normal(size=4) * 0.5
    v0[:4] = rng.normal(size=4) * 0.5
    horizon = 20.0
    times, hist_u, hist_v = dirichlet_leapfrog(
        side, u0, v0, horizon, dt=2.0e-4,
        n_sites=int(6 + side.nu * horizon) + 24)
    probe_t = np.array([5.0, 12.0, 20.0])
    j_targets = np.array([1, 2, 7])
    z, vz = halfline_field(side, u0, v0, probe_t, j_targets)
    steps = np.rint(probe_t / 2.0e-4).astype(int)
    for it, s in enumerate(steps):
        for ij, j in enumerate(j_targets):
            assert abs(hist_u[s, j - 1] - z[ij, it]) < 1e-6
            assert abs(hist_v[s, j - 1] - vz[ij, it]) < 1e-6


# ---------------------------------------------------------------------------
# boundary kernel Gamma


def test_gamma_bessel_oracle():
    # unit side: Gamma_1(t) = 2 J_2(2t) / t
    t = np.array([0.4, 1.0, 3.3, 8.0, 21.0])
    g = gamma_kernel(UNIT_SIDE, 1, t)
    assert np.allclose(g.values, 2.0 * jv(2, 2.0 * t) / t, atol=1e-10)


def test_gamma_initial_ramp():
    # Gamma_n(0) = 0 and dGamma_1/dt(0) = nu^2
    side = SideParams(mass=1.2, coupling=0.9, pinning=0.5)
    t = np.array([0.0, 1e-4, 2e-4])
    g = gamma_kernel(side, -1, t)
    assert g.values[0] == pytest.approx(0.0, abs=1e-12)
    slope = (g.values[2] - g.values[0]) / 2e-4
    assert slope == pytest.approx(side.nu ** 2, rel=1e-6)


def test_gamma_reproduces_driven_halfline():
    # drive the wall with smooth data and compare the interior response
    side = SideParams(mass=1.0, coupling=1.0, pinning=0.2)

    def drive(t):
        return (1.0 - math.cos(0.8 * t)) * math.exp(-0.05 * t) * 0.3

    horizon = 20.0
    dt = 5e-4
    times, hist_u, _ = dirichlet_leapfrog(
        side, np.zeros(4), np.zeros(4), horizon, dt,
        n_sites=int(side.nu * horizon) + 30, boundary=drive)
    grid = times
    drive_vals = np.array([drive(s) for s in grid])
    for n in (1, 3):
        gam = gamma_kernel(side, n, grid)
        conv = np.convolve(gam.values, drive_vals)[: len(grid)]
        conv = dt * (conv - 0.5 * (gam.values * drive_vals[0]
                                   + gam.values[0] * drive_vals))
        for frac in (0.3, 0.65, 1.0):
            s = int((len(grid) - 1) * frac)
            assert abs(conv[s] - hist_u[s, n - 1]) < 1e-5


def test_gamma_small_t_matches_elevated_line():
    from oracles import elevated_line_gamma
    side = SideParams(mass=1.3, coupling=0.9, pinning=0.4)
    t = np.array([0.3, 0.6, 1.0])
    g = gamma_kernel(side, 1, t)
    ref = elevated_line_gamma(side, t)
    assert np.allclose(g.values, ref, atol=2e-6)


def test_kernel_c0_decay_envelope():
    # borderline case: kernel envelope decays like t^{-1/2}
    chain = uniform_chain(m=1.0, gamma=1.0, mu=1.0,
                          defect_mass=(2.0,), defect_pinning=(2.0,))
    v = classify(chain)
    assert v.kind == "C0"
    t = np.linspace(0.5, 400.0, 3200)
    ker = kernel_N(chain, v, t, orders=(0,))
    from chainlab.decay import fit_decay
    fit = fit_decay(t, np.abs(ker.entry(0, 0, 0)), window=(20.0, 400.0),
                    bin_width=math.pi / chain.band_top_max)
    assert -0.65 < fit.slope < -0.35


def test_gamma_halfline_decay_bound():
    t = np.linspace(20.0, 200.0, 1200)
    g = gamma_kernel(UNIT_SIDE, 1, t)
    weighted = np.abs(g.values) * (1.0 + t) ** 1.5
    first = weighted[t <= 63.0].max()
    last = weighted[t >= 63.0].max()
    assert last <= 1.2 * first


# ---------------------------------------------------------------------------
# defect kernel N


def test_kernel_zero_mode_bessel_oracle():
    chain = uniform_chain(defect_mass=(1.0,), defect_pinning=(0.0,))
    v = classify(chain)
    t = np.array([0.0, 0.7, 2.0, 9.0, 30.0, 120.0])
    ker = kernel_N(chain, v, t, orders=(0, 1, 2))
    assert np.allclose(ker.entry(0, 0, 1), jv(0, 2.0 * t), atol=1e-9)
    assert ker.entry(0, 0, 0)[0] == pytest.approx(0.0, abs=1e-12)
    # N(t) -> 1/(2 sqrt(gamma m)) = 0.5
    assert ker.entry(0, 0, 0)[-1] == pytest.approx(0.5, abs=0.03)


def test_kernel_initial_conditions_and_realness():
    chain = uniform_chain(m=1.0, gamma=1.0, mu=1.0,
                          defect_mass=(2.0, 2.0), defect_pinning=(3.0, 3.0),
                          defect_coupling=(1.0,))
    v = classify(chain)
    t = np.linspace(0.0, 30.0, 400)
    ker = kernel_N(chain, v, t, orders=(0, 1))
    for n in range(2):
        for k in range(2):
            assert ker.entry(n, k, 0)[0] == pytest.approx(0.0, abs=1e-12)
            expect = (1.0 / chain.defect_mass[k]) if n == k else 0.0
            assert ker.entry(n, k, 1)[0] == pytest.approx(expect, abs=1e-8)
    assert np.array_equal(ker.entry(0, 1), ker.entry(1, 0))


def test_kernel_small_t_matches_elevated_line():
    chain = uniform_chain(m=1.0, gamma=1.0, mu=0.0,
                          defect_mass=(2.0,), defect_pinning=(1.0,))
    v = classify(chain)
    assert v.kind == "C"
    t = np.array([0.25, 0.6, 1.0])
    ker = kernel_N(chain, v, t, orders=(0,))
    ref = elevated_line_kernel(chain, t)
    assert np.allclose(ker.entry(0, 0, 0), ref, atol=2e-6)


@pytest.mark.parametrize("spec,expect_intervals", [
    # disjoint bands (a_- < kappa_+): two quadrature intervals
    (dict(m_minus=1.0, g_minus=0.25, mu_minus=0.0, m_plus=1.0, g_plus=1.0,
          mu_plus=9.0, defect_mass=(1.0,), defect_pinning=(10.0,)), 2),
    # nested bands: three intervals split at the interior edges
    (dict(m_minus=1.0, g_minus=1.0, mu_minus=0.5, m_plus=1.0, g_plus=0.4,
          mu_plus=0.9, defect_mass=(1.4,), defect_pinning=(1.2,)), 3),
])
def test_kernel_multi_interval_bands_sum_rule(spec, expect_intervals):
    from chainlab.propagator import _positive_band_intervals
    chain = make_chain(**spec)
    assert len(_positive_band_intervals(chain)) == expect_intervals
    v = classify(chain)
    assert v.kind == "C"
    t = np.array([0.0, 0.5, 2.0, 10.0])
    ker = kernel_N(chain, v, t, orders=(0, 1))
    assert ker.entry(0, 0, 0)[0] == pytest.approx(0.0, abs=1e-12)
    assert ker.entry(0, 0, 1)[0] == pytest.approx(1.0 / chain.defect_mass[0],
                                                  abs=1e-8)


def test_kernel_memo_hands_out_read_only_copies():
    chain = uniform_chain(mu=1.0, defect_mass=(2.0,), defect_pinning=(3.0,))
    v = classify(chain)
    t = np.linspace(0.0, 5.0, 51)
    ker = kernel_N(chain, v, t, orders=(0,))
    assert kernel_N(chain, v, t.copy(), orders=(0,)) is ker
    t[:] = -1.0                      # the caller reuses its own grid
    assert ker.t[-1] == 5.0
    assert kernel_N(chain, v, np.linspace(0.0, 5.0, 51), orders=(0,)) is ker
    with pytest.raises(ValueError):
        ker.data[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        ker.t[0] = 1.0


def test_kernel_refuses_real_zero_resonance():
    chain = uniform_chain(m=1.0, gamma=1.0, mu=1.0,
                          defect_mass=(0.5,), defect_pinning=(0.5,))
    v = classify(chain)
    assert v.resonance_kind == "real_zero"
    with pytest.raises(ResonancePoleError) as err:
        kernel_N(chain, v, np.linspace(0, 10, 50))
    assert err.value.omega_star == pytest.approx(v.omega_star)


def test_kernel_c_decay_envelope():
    chain = uniform_chain(m=1.0, gamma=1.0, mu=0.0,
                          defect_mass=(2.0,), defect_pinning=(1.0,))
    v = classify(chain)
    t = np.linspace(0.5, 400.0, 3200)
    ker = kernel_N(chain, v, t, orders=(0,))
    vals = np.abs(ker.entry(0, 0, 0))
    # log-log envelope slope ~ -3/2 over [20, 400]
    from chainlab.decay import fit_decay
    fit = fit_decay(t, vals, window=(20.0, 400.0),
                    bin_width=math.pi / chain.band_top_max)
    assert -1.7 < fit.slope < -1.3
