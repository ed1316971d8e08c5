"""Reference computations made apart from chainlab.

Every function here works from the chain constants alone (masses, couplings,
pinnings) with NumPy/SciPy; none calls into chainlab.  The workload checks
compare chainlab's outputs with these values or with properties the method
must have.
"""

import math

import numpy as np
from scipy.special import jv, struve


def _constants(chain):
    """(m, gamma, mu) per side and the block arrays, as plain floats."""
    sides = [(s.mass, s.coupling, s.pinning) for s in (chain.bulk_minus, chain.bulk_plus)]
    return (sides, np.array(chain.defect_mass, float),
            np.array(chain.defect_coupling, float), np.array(chain.defect_pinning, float))


def small_root(m, gam, mu, omega):
    """Root |z| <= 1 of z^2 - (2 + (mu/m - omega^2) m/gam) z + 1 = 0.

    This is exp(i theta(omega)) of one bulk half for omega off its band (and
    the limits +1 / -1 at the lower / upper band edge).
    """
    omega = np.asarray(omega, dtype=complex)
    s = 2.0 + (mu / m - omega ** 2) * (m / gam)
    root = np.sqrt(s * s - 4.0)
    big = np.where(np.abs(s + root) >= np.abs(s - root), s + root, s - root) / 2.0
    return 1.0 / big


def symbol_diag(chain, omega):
    """Diagonal of the block symbol D(omega), shape (N+1, len(omega)).

    D_nn = mu_n - m_n w^2 + (couplings of the two bonds at site n), where a
    bond leaving the block into a bulk half contributes gamma (1 - z(w)).
    The off-diagonal entries are -gamma_n of the interior bonds.
    """
    sides, mass, coup, pin = _constants(chain)
    omega = np.atleast_1d(np.asarray(omega, dtype=complex))
    # bonds[i] and bonds[i + 1] are the two bonds at site i
    bonds = ([g * (1.0 - small_root(m, g, mu, omega)) for m, g, mu in sides[:1]]
             + list(coup)
             + [g * (1.0 - small_root(m, g, mu, omega)) for m, g, mu in sides[1:]])
    diag = pin[:, None] - mass[:, None] * omega[None, :] ** 2 + 0j
    for i in range(len(mass)):
        diag[i] += bonds[i] + bonds[i + 1]
    return diag


def _gap_regions(chain):
    """Components (lo, hi) of (0, inf) outside both bands; hi = inf last."""
    bands = sorted((math.sqrt(s.pinning / s.mass),
                    math.sqrt((s.pinning + 4.0 * s.coupling) / s.mass))
                   for s in (chain.bulk_minus, chain.bulk_plus))
    (k1, a1), (k2, a2) = bands
    gaps = []
    if k1 > 0.0:
        gaps.append((0.0, k1))
    if a1 < k2:
        gaps.append((a1, k2))
    gaps.append((max(a1, a2), math.inf))
    return gaps, bands


def _real_symbol(chain, omega):
    """Dense real symmetric D(omega) at a real point outside the open bands."""
    diag = symbol_diag(chain, [omega])[:, 0].real
    coup = np.array(chain.defect_coupling, float)
    return np.diag(diag) - np.diag(coup, 1) - np.diag(coup, -1)


def _eigs(chain, omega):
    mat = _real_symbol(chain, omega)
    lam = np.linalg.eigvalsh(mat)
    return lam, 1e-9 * max(1.0, float(np.max(np.abs(mat).sum(axis=1))))


def spectral_count(chain):
    """Classification by inertia counts of D on the spectral gaps.

    D(omega) is real symmetric and strictly decreasing on every gap, so the
    number of zeros inside (lo, hi) is the number of negative eigenvalues at
    hi minus the number of non-positive ones at lo (all N+1 at infinity).
    Returns a dict with ``kind`` ("C", "C0", "zero_mode", "real_zero"), the
    zero count per gap and the band edges where D is singular.
    """
    gaps, bands = _gap_regions(chain)
    size = len(chain.defect_mass)
    zeros = []
    for lo, hi in gaps:
        lam_lo, tol_lo = _eigs(chain, lo)
        at_lo = int(np.sum(lam_lo <= tol_lo))
        if math.isinf(hi):
            at_hi = size
        else:
            lam_hi, tol_hi = _eigs(chain, hi)
            at_hi = int(np.sum(lam_hi < -tol_hi))
        zeros.append(at_hi - at_lo)
    singular_edges = []
    for e in sorted({x for band in bands for x in band if x > 0.0}):
        if any(k < e < a for k, a in bands):
            continue            # inside the other band D is complex there
        lam, tol = _eigs(chain, e)
        if np.any(np.abs(lam) <= tol):
            singular_edges.append(e)
    zero_mode = False
    if bands[0][0] == 0.0:
        lam, tol = _eigs(chain, 0.0)
        zero_mode = bool(np.any(np.abs(lam) <= tol))
    if zero_mode:
        kind = "zero_mode"
    elif any(z > 0 for z in zeros):
        kind = "real_zero"
    elif singular_edges:
        kind = "C0"
    else:
        kind = "C"
    return {"kind": kind, "gaps": gaps, "zeros": zeros,
            "singular_edges": singular_edges}


def is_bracketed_zero(chain, omega, rel=1e-6):
    """True when one more eigenvalue of D is negative just above ``omega``
    than just below it, with both probes in one spectral gap."""
    if omega is None or not math.isfinite(omega) or omega <= 0.0:
        return False
    gaps, _ = _gap_regions(chain)
    inside = [(lo, hi) for lo, hi in gaps if lo < omega < hi]
    if not inside:
        return False
    lo, hi = inside[0]
    # probe no further than halfway to the gap's ends: zeros can sit within
    # 1e-7 of a band edge
    delta = min(rel * max(1.0, omega), 0.5 * (omega - lo), 0.5 * (hi - omega))
    return _negatives(chain, omega + delta) > _negatives(chain, omega - delta)


def _negatives(chain, omega):
    return int(np.sum(np.linalg.eigvalsh(_real_symbol(chain, omega)) < 0.0))


def zeros_above(chain, omega):
    """Zeros of det D above ``omega``, which must lie above all bands."""
    return len(chain.defect_mass) - _negatives(chain, omega)


def min_zero_spacing(chain, lo, hi, resolution):
    """Smallest distance between zeros of det D in the gap (lo, hi).

    The negative-eigenvalue count steps up by one at each zero, so bisecting
    on it isolates every zero; each is located to ``resolution``.  An
    unbounded gap is cut where all N+1 eigenvalues are negative.
    """
    size = len(chain.defect_mass)
    if math.isinf(hi):
        hi = 2.0 * max(1.0, lo)
        while _negatives(chain, hi) < size:
            hi *= 2.0
    zeros = []
    stack = [(lo, hi, _negatives(chain, lo), _negatives(chain, hi))]
    while stack:
        a, b, ca, cb = stack.pop()
        if cb == ca:
            continue
        if b - a <= resolution:
            zeros.extend([0.5 * (a + b)] * (cb - ca))
            continue
        mid = 0.5 * (a + b)
        cm = _negatives(chain, mid)
        stack += [(a, mid, ca, cm), (mid, b, cm, cb)]
    zeros.sort()
    return min((b - a for a, b in zip(zeros, zeros[1:])), default=math.inf)


# ---------------------------------------------------------------------------
# time-domain references


def homogeneous_block_displacement(m, gam, mu, sites, u0, p0, t, nodes=2048):
    """u_0(t) of a homogeneous chain from data (u0, p0) at ``sites``.

    u_0(t) = sum_k u0_k C_k(t) + p0_k / m S_k(t) with
    C_k = (1/2pi) int cos(k theta) cos(phi t) dtheta and
    S_k = (1/2pi) int cos(k theta) sin(phi t) / phi dtheta,
    phi^2 = (gam / m)(2 - 2 cos theta) + mu / m, by the periodic trapezoid
    rule (spectrally accurate once ``nodes`` exceeds the causal range).
    """
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    phi = np.sqrt((gam / m) * (2.0 - 2.0 * np.cos(theta)) + mu / m)
    weight_u = np.cos(np.outer(sites, theta)).T @ np.asarray(u0, float) / nodes
    weight_p = np.cos(np.outer(sites, theta)).T @ (np.asarray(p0, float) / m) / nodes
    t = np.asarray(t, dtype=float)
    out = np.empty(len(t))
    for lo in range(0, len(t), 128):
        arg = np.outer(t[lo:lo + 128], phi)
        out[lo:lo + 128] = np.cos(arg) @ weight_u + (np.sin(arg) / phi) @ weight_p
    return out


def finite_chain_block_displacement(chain, sites, u0, p0, t, horizon, margin=40):
    """Block displacements u_n(t), n = 0..N, from the normal modes of a
    finite chain.

    The chain is cut ``ceil(c horizon) + margin`` sites beyond the data and
    the block on each side, c = max sqrt(gamma / m) being the largest group
    velocity of the bulk halves, and held fixed at its ends.  Up to
    ``horizon`` the cut changes the block's motion only by the lattice's
    super-exponentially small leakage beyond the light cone.  With
    x = M^(1/2) u the equations read x'' = -A x for the symmetric A =
    M^(-1/2) K M^(-1/2), solved exactly by its eigenvectors.
    """
    sides, mass, coup, pin = _constants(chain)
    N = len(mass) - 1
    speed = max(math.sqrt(g / m) for m, g, _ in sides)
    pad = int(math.ceil(speed * horizon)) + margin
    lo = min(int(min(sites)), 0) - pad
    hi = max(int(max(sites)), N) + pad
    n = np.arange(lo, hi + 1)
    blk = (n >= 0) & (n <= N)
    m = np.where(n < 0, sides[0][0], sides[1][0])
    mu = np.where(n < 0, sides[0][2], sides[1][2])
    m[blk], mu[blk] = mass, pin
    b = np.arange(lo - 1, hi + 1)          # bond (b, b + 1)
    g = np.where(b < 0, sides[0][1], sides[1][1])
    g[(b >= 0) & (b < N)] = coup
    stiffness = (np.diag(mu + g[:-1] + g[1:])
                 - np.diag(g[1:-1], 1) - np.diag(g[1:-1], -1))
    scale = 1.0 / np.sqrt(m)
    lam, modes = np.linalg.eigh(scale[:, None] * stiffness * scale[None, :])
    omega = np.sqrt(lam)
    x0, xdot0 = np.zeros(len(n)), np.zeros(len(n))
    idx = np.asarray(sites) - lo
    x0[idx] = np.asarray(u0, float) / scale[idx]
    xdot0[idx] = np.asarray(p0, float) * scale[idx]
    cos_w, sin_w = modes.T @ x0, (modes.T @ xdot0) / omega
    rows = modes[blk] * scale[blk][:, None]
    t = np.asarray(t, dtype=float)
    out = np.empty((N + 1, len(t)))
    for j in range(0, len(t), 256):
        arg = np.outer(omega, t[j:j + 256])
        out[:, j:j + 256] = rows @ (np.cos(arg) * cos_w[:, None] + np.sin(arg) * sin_w[:, None])
    return out


def hamiltonian(chain, sites, u0, p0):
    """Energy of data (u0, p0) on consecutive ``sites`` (zero elsewhere)."""
    sides, mass, coup, pin = _constants(chain)
    N = len(mass) - 1

    def site(n):
        if n < 0:
            return sides[0][0], sides[0][2]
        if n > N:
            return sides[1][0], sides[1][2]
        return mass[n], pin[n]

    def bond(n):           # bond (n, n + 1)
        if n < 0:
            return sides[0][1]
        if n >= N:
            return sides[1][1]
        return coup[n]

    u = dict(zip(sites, u0))
    total = 0.0
    for n, un, pn in zip(sites, u0, p0):
        m, mu = site(n)
        total += pn * pn / m + mu * un * un
    for n in range(sites[0] - 1, sites[-1] + 1):
        total += bond(n) * (u.get(n + 1, 0.0) - u.get(n, 0.0)) ** 2
    return 0.5 * total


def zero_mode_limit(chain):
    """R = 1 / (sqrt(m_- g_-) + sqrt(m_+ g_+)), the large-time value of N(t)."""
    bm, bp = chain.bulk_minus, chain.bulk_plus
    return 1.0 / (math.sqrt(bm.mass * bm.coupling) + math.sqrt(bp.mass * bp.coupling))


def unit_chain_kernel(t):
    """N, dN/dt, d2N/dt2 of the homogeneous unit unpinned chain.

    dN/dt = J0(2t), so N(t) = (1/2) int_0^{2t} J0 and d2N/dt2 = -2 J1(2t).
    """
    x = 2.0 * np.asarray(t, dtype=float)
    int_j0 = x * jv(0, x) + 0.5 * math.pi * x * (jv(1, x) * struve(0, x)
                                                - jv(0, x) * struve(1, x))
    return 0.5 * int_j0, jv(0, x), -2.0 * jv(1, x)


def unit_gamma(n, t):
    """Gamma_n(t) of the unit unpinned half line: 2n J_{2n}(2t) / t."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(len(t))
    pos = t > 0.0
    out[pos] = 2.0 * n * jv(2 * n, 2.0 * t[pos]) / t[pos]
    return out


def elevated_line_kernel(chain, t, c=0.5, half_width=200.0, step=0.02):
    """Scalar (N = 0) kernel N(t) from the inverse transform on Im w = c.

    N(t) = (1/2pi) int e^{-i w t} / D(w) dw along the line above all
    singularities.  The -1/(m0 w^2) tail is subtracted in the regularized
    form -1/(m0 (w^2 + 4)), whose transform exp(-2t)/(4 m0) is added back,
    so the truncated line converges like |w|^-4.
    """
    m0 = chain.defect_mass[0]
    x = np.arange(-half_width, half_width + 0.5 * step, step)
    w = x + 1j * c
    integrand = 1.0 / symbol_diag(chain, w)[0] + 1.0 / (m0 * (w ** 2 + 4.0))
    out = np.empty(len(t))
    for i, ti in enumerate(np.asarray(t, dtype=float)):
        line = np.trapezoid(np.exp(-1j * w * ti) * integrand, x) / (2.0 * math.pi)
        out[i] = line.real - math.exp(-2.0 * ti) / (4.0 * m0)
    return out


def envelope_slope(t, values, window, bin_width):
    """Least-squares slope of log(bin maxima of |values|) against log t.

    Bins of ``bin_width`` start at the window's lower end; a trailing partial
    bin is dropped.
    """
    t = np.asarray(t, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    lo, hi = window
    n_bins = int(math.floor((hi - lo) / bin_width + 1e-12))
    keep = (t >= lo) & (t <= hi) & (vals > 0.0)
    t, vals = t[keep], vals[keep]
    bins = np.floor((t - lo) / bin_width).astype(int)
    pts_t, pts_v = [], []
    for b in range(n_bins):
        sel = np.flatnonzero(bins == b)
        if len(sel):
            j = sel[np.argmax(vals[sel])]
            pts_t.append(t[j])
            pts_v.append(vals[j])
    if len(pts_t) < 3:
        return math.nan
    return float(np.polyfit(np.log(pts_t), np.log(pts_v), 1)[0])
