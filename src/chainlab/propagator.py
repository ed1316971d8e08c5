"""Green functions and inverse Fourier-Laplace kernels.

The free-chain matrix Green function is the torus integral

    G_t(n) = (1/2pi) int_T e^{-i n theta} Ghat_t(theta) dtheta,
    Ghat_t = [[cos(phi t),            sin(phi t)/(m phi)],
              [-m phi sin(phi t),     cos(phi t)        ]],

evaluated by the periodic trapezoid rule (spectrally accurate; the node
count follows M >= 64 ceil(a t / pi) and at least twice the index range to
keep aliasing beyond the causal cone).  Half-line (Dirichlet) Green
functions follow by the image difference G_t(n-k) - G_t(n+k).

The boundary kernels Gamma_n(t) and the defect kernel N(t) are inverse
Fourier-Laplace transforms evaluated as band-jump integrals: after folding
the negative band onto the positive one,

    Gamma_n(t) = (2/pi) int_band sin(n theta(w)) sin(w t) dw,
    N_jk(t)    = (2/pi) int_band Im Ninv_jk(w + i0) sin(w t) dw,

with time derivatives taken analytically (extra weights w cos(w t) and
-w^2 sin(w t)).  Each band endpoint gets the substitution w = edge -+ s^2,
which absorbs both the square-root edge factors of the regular cases and
the inverse-square-root factor of the borderline (C0) case.  Node counts
scale with the time horizon and are gated by a node-doubling convergence
check.  When the chain carries the zero-frequency resonance (all pinning
constants zero), the simple 1/w part of the jump is removed analytically
and restored through the sine integral, so the kernel remains accurate at
large times; chains with a real spectral zero off the bands are refused
with the pole pair reported.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import sici

from ._kernels import mix
from .classify import KIND_RESONANCE, RES_REAL_ZERO
from .dispersion import DispersionBranch, PLUS_I0, theta_branch
from .errors import ConvergenceError, ResonancePoleError
from .jacobi import boundary_diagonals, ladder_inverse_entries

_GATE_RTOL = 1e-8
_GATE_ATOL = 1e-11
_MAX_DOUBLINGS = 3


# ---------------------------------------------------------------------------
# free-chain Green function


def _torus_nodes(side, t, n_max):
    a = side.band_top
    m = max(256, 64 * int(math.ceil(a * max(abs(t), 1e-9) / math.pi)),
            4 * (n_max + 8))
    return m


def _torus_phi(side, m_count):
    """Dispersion phi(theta) on the M-point trapezoid grid of the torus."""
    theta = 2.0 * math.pi * np.arange(m_count) / m_count
    return np.sqrt(side.nu ** 2 * (2.0 - 2.0 * np.cos(theta)) + side.kappa ** 2)


def _green_spectra(side, phi, t):
    """g00, g01, g10 at every offset n = 0..M/2 of the grid behind ``phi``.

    The trapezoid sums of cos(phi t), sin(phi t)/(m phi) and
    -m phi sin(phi t), one real FFT each.
    """
    m_count = len(phi)
    ct = np.cos(phi * t)
    st_over = t * np.sinc(phi * t / math.pi) / side.mass
    st_phi = -side.mass * phi * np.sin(phi * t)
    return (np.fft.rfft(ct).real / m_count, np.fft.rfft(st_over).real / m_count,
            np.fft.rfft(st_phi).real / m_count)


def green_table(side, t, n_max, m_nodes=None):
    """G_t(n) entries for n = 0..n_max (even in n), as arrays g00, g01, g10.

    g11 equals g00.  ``m_nodes`` overrides the automatic trapezoid size.
    """
    M = m_nodes or _torus_nodes(side, t, n_max)
    return tuple(g[: n_max + 1].copy() for g in _green_spectra(side, _torus_phi(side, M), t))


def free_green(n, t, side, m_nodes=None, gate=True):
    """2x2 free Green matrix at lattice offset n and time t."""
    n = abs(int(n))
    g00, g01, g10 = green_table(side, t, n, m_nodes)
    if gate and m_nodes is None:
        M = _torus_nodes(side, t, n)
        h00, h01, h10 = green_table(side, t, n, 2 * M)
        err = max(abs(g00[n] - h00[n]), abs(g01[n] - h01[n]), abs(g10[n] - h10[n]))
        if err > _GATE_ATOL + _GATE_RTOL * max(1.0, abs(h00[n])):
            raise ConvergenceError(f"torus quadrature not converged (err {err:.2e})")
        g00, g01, g10 = h00, h01, h10
    return np.array([[g00[n], g01[n]], [g10[n], g00[n]]])


def halfline_green(n, k, t, side, m_nodes=None):
    """Dirichlet half-line Green matrix G_t(n,k) = G_t(n-k) - G_t(n+k).

    ``n`` and ``k`` must lie on the same side of the wall (both >= 1 or both
    <= -1); the result only depends on |n|, |k| by evenness.
    """
    if n * k <= 0:
        raise ValueError("n and k must be nonzero and on the same side")
    n, k = abs(int(n)), abs(int(k))
    g00, g01, g10 = green_table(side, t, n + k, m_nodes)
    def ent(tab):
        return tab[abs(n - k)] - tab[n + k]
    return np.array([[ent(g00), ent(g01)], [ent(g10), ent(g00)]])


def halfline_field(side, u0, v0, times, j_targets, m_nodes=None, gate=True):
    """Solve the Dirichlet half-line problem spectrally.

    Initial data ``u0[k-1], v0[k-1]`` live on sites k = 1..len(u0); returns
    ``(z, vz)`` arrays of shape (len(j_targets), len(times)) with the
    displacement and momentum at the requested sites j >= 0 (j = 0 gives the
    wall value, identically zero).  With ``gate`` (default) the run is
    checked against a doubled trapezoid grid at the latest time.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    times = np.asarray(times, dtype=float)
    j_targets = np.asarray(j_targets, dtype=int)
    if np.any(j_targets < 0):
        raise ValueError("targets must be >= 0")
    k_idx = np.arange(1, len(u0) + 1)
    n_max = int(j_targets.max() + len(u0)) if len(j_targets) else len(u0)
    M = m_nodes or _torus_nodes(side, float(np.max(np.abs(times), initial=0.0)), n_max)

    diff_idx = np.abs(j_targets[:, None] - k_idx[None, :])
    sum_idx = j_targets[:, None] + k_idx[None, :]

    def run(m_count, time_list):
        phi = _torus_phi(side, m_count)
        z = np.empty((len(j_targets), len(time_list)))
        vz = np.empty_like(z)
        for it, t in enumerate(time_list):
            g00, g01, g10 = _green_spectra(side, phi, t)
            k00 = g00[diff_idx] - g00[sum_idx]
            k01 = g01[diff_idx] - g01[sum_idx]
            k10 = g10[diff_idx] - g10[sum_idx]
            z[:, it] = k00 @ u0 + k01 @ v0
            vz[:, it] = k10 @ u0 + k00 @ v0
        return z, vz

    z, vz = run(M, times)
    if gate and len(times):
        worst = [float(np.max(np.abs(times)))]
        probe, _ = run(M, worst)
        probe2, _ = run(2 * M, worst)
        err = float(np.max(np.abs(probe - probe2)))
        if err > _GATE_ATOL + _GATE_RTOL * max(1.0, float(np.max(np.abs(probe2)))):
            raise ConvergenceError(
                f"half-line torus quadrature not converged (err {err:.2e})")
    return z, vz


# ---------------------------------------------------------------------------
# band-jump quadrature


@lru_cache(maxsize=64)
def _gl(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _edge_mapped_nodes(lo, hi, n_per_half):
    """Nodes/weights on [lo, hi] with w = edge -+ s^2 maps at both ends."""
    mid = 0.5 * (lo + hi)
    x, w = _gl(n_per_half)
    nodes, weights = [], []
    for edge, sign in ((lo, +1.0), (hi, -1.0)):
        span = math.sqrt(abs(mid - edge))
        s = 0.5 * span * (x + 1.0)
        ws = 0.5 * span * w
        nodes.append(edge + sign * s ** 2)
        weights.append(2.0 * s * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def _positive_band_intervals(chain):
    """Elementary intervals of the positive band union, split at all edges."""
    sides = (chain.bulk_minus, chain.bulk_plus)
    bands = [(s.kappa, s.band_top) for s in sides]
    points = sorted({p for b in bands for p in b})
    intervals = []
    for p, q in zip(points[:-1], points[1:]):
        mid = 0.5 * (p + q)
        if any(lo <= mid <= hi for lo, hi in bands):
            intervals.append((p, q))
    return intervals


def _nodes_per_half(t_max, halfwidth):
    return 48 + int(math.ceil(0.75 * t_max * halfwidth))


def _band_nodes(chain, t_max, refine=0):
    nodes, weights = [], []
    for lo, hi in _positive_band_intervals(chain):
        n_half = _nodes_per_half(t_max, 0.5 * (hi - lo)) * (2 ** refine)
        x, w = _edge_mapped_nodes(lo, hi, n_half)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def _mix_orders(coef_base, omega, t, orders):
    out = np.empty((len(orders), len(t)))
    for i, j in enumerate(orders):
        if j == 0:
            out[i] = mix(0, coef_base, omega, t)
        elif j == 1:
            out[i] = mix(1, coef_base * omega, omega, t)
        elif j == 2:
            out[i] = -mix(0, coef_base * omega ** 2, omega, t)
        else:
            raise ValueError("derivative orders 0, 1, 2 are supported")
    return out


# ---------------------------------------------------------------------------
# boundary kernels Gamma


@dataclass
class GammaSeries:
    t: np.ndarray
    values: np.ndarray
    n: int


def gamma_kernel(side, n, t):
    """Boundary kernel Gamma_n(t) of one half-line side (|n| >= 1).

    Positive-side kernels take n >= 1, negative-side n <= -1; by symmetry
    only |n| enters.
    """
    if n == 0:
        raise ValueError("Gamma_n is defined for |n| >= 1")
    n = abs(int(n))
    t = np.asarray(t, dtype=float)
    branch = DispersionBranch.from_side(side)
    t_max = float(np.max(np.abs(t), initial=1.0))

    prev = None
    for refine in range(_MAX_DOUBLINGS + 1):
        n_half = _nodes_per_half(t_max, 0.25 * (side.band_top - side.kappa)) * (2 ** refine)
        omega, w = _edge_mapped_nodes(side.kappa, side.band_top, n_half)
        th = np.asarray(theta_branch(branch, omega, PLUS_I0)).real
        coef = (2.0 / math.pi) * w * np.sin(n * th)
        vals = mix(0, coef, omega, t)
        if prev is not None:
            err = np.max(np.abs(vals - prev))
            if err <= _GATE_ATOL + _GATE_RTOL * max(1.0, float(np.max(np.abs(vals)))):
                return GammaSeries(t=t, values=vals, n=n)
        prev = vals
    raise ConvergenceError("Gamma kernel quadrature did not converge")


# ---------------------------------------------------------------------------
# defect kernel N


@dataclass
class KernelSeries:
    """Defect kernel N_{nk}(t) and its time derivatives on a grid.

    ``data[i, n, k, :]`` is the series of derivative order ``orders[i]`` for
    the block entry (n, k).
    """

    t: np.ndarray
    orders: tuple
    data: np.ndarray

    @property
    def block_size(self):
        return self.data.shape[1]

    def entry(self, n, k, order=0):
        return self.data[self.orders.index(order), n, k]


def zero_mode_residue(chain):
    """Large-time kernel limit R of an all-unpinned chain (N(t) -> R).

    Equals 1/(sqrt(m_- g_-) + sqrt(m_+ g_+)), reducing to 1/(2 sqrt(m g))
    for identical halves.
    """
    bm, bp = chain.bulk_minus, chain.bulk_plus
    return 1.0 / (math.sqrt(bm.mass * bm.coupling) + math.sqrt(bp.mass * bp.coupling))


def _kernel_data(chain, t, orders, refine, residue):
    omega, w = _band_nodes(chain, float(np.max(np.abs(t), initial=1.0)), refine)
    diag, gamma = boundary_diagonals(chain, omega, PLUS_I0)
    inv = ladder_inverse_entries(diag, gamma)
    nblk = inv.shape[0]
    data = np.empty((len(orders), nblk, nblk, len(t)))
    base_w = (2.0 / math.pi) * w
    if residue is not None:
        sub = residue / omega
        band_top = _positive_band_intervals(chain)[-1][1]
        si_t = sici(band_top * t)[0]
    for n in range(nblk):
        for k in range(n, nblk):
            coef = base_w * inv[n, k].imag
            series = _mix_orders(coef, omega, t, orders)
            if residue is not None and 0 in orders:
                # the 1/omega part of the jump integrates to a sine integral;
                # the analytic weights of orders >= 1 already cancel the pole
                i0 = orders.index(0)
                series[i0] = (mix(0, coef - base_w * sub, omega, t)
                              + (2.0 * residue / math.pi) * si_t)
            data[:, n, k, :] = series
            data[:, k, n, :] = series
    return data


# completed kernel runs, keyed by (chain, grid, orders); reused by the
# simulator when it revisits the same grid (inserts are atomic under the GIL).
# Every caller of a grid shares one KernelSeries, so its arrays are read-only.
_KERNEL_MEMO = {}
_KERNEL_MEMO_MAX = 8


def kernel_N(chain, verdict, t, orders=(0, 1, 2)):
    """Defect kernel matrix series N^{(j)}(t) via the band-jump integral.

    ``verdict`` is the chain's classification.  Regimes with dispersive decay
    (C, C0) and the zero-frequency resonance are integrable; a real-zero
    resonance is refused with :class:`ResonancePoleError` carrying the pole
    pair, since the band jump alone misses the pole contribution.
    """
    t = np.array(t, dtype=float)     # a private copy: the memo hands it out
    t.setflags(write=False)
    residue = None
    if verdict.kind == KIND_RESONANCE:
        if verdict.resonance_kind == RES_REAL_ZERO:
            raise ResonancePoleError(verdict.omega_star)
        residue = zero_mode_residue(chain)
    orders = tuple(orders)

    key = (chain, t.tobytes(), orders)
    cached = _KERNEL_MEMO.get(key)
    if cached is not None:
        return cached

    prev = None
    for refine in range(_MAX_DOUBLINGS + 1):
        data = _kernel_data(chain, t, orders, refine, residue)
        if prev is not None:
            err = float(np.max(np.abs(data - prev)))
            scale = max(1.0, float(np.max(np.abs(data))))
            if err <= _GATE_ATOL + _GATE_RTOL * scale:
                data.setflags(write=False)
                series = KernelSeries(t=t, orders=orders, data=data)
                if len(_KERNEL_MEMO) >= _KERNEL_MEMO_MAX:
                    _KERNEL_MEMO.pop(next(iter(_KERNEL_MEMO)))
                _KERNEL_MEMO[key] = series
                return series
        prev = data
    raise ConvergenceError("defect kernel quadrature did not converge")
