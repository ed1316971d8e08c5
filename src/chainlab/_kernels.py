"""Hot numeric kernels: leapfrog stepping and oscillatory sums.

Both are vectorized NumPy: the stepper updates the whole window per step,
and the oscillatory sum forms trig matrices over chunks of the time grid.
"""

import numpy as np


# ---------------------------------------------------------------------------
# velocity-Verlet advance on a finite window with hard-zero walls
#
# Site layout: arrays of length W cover consecutive lattice sites; gam has
# length W+1 and gam[i] is the bond between site i-1 and site i (ghost sites
# outside the window are clamped to zero displacement).


def force_into(u, mu, gam, out):
    """Lattice force with hard-zero ghost sites, written into ``out``."""
    W = u.shape[0]
    e = np.empty(W + 1)
    e[0] = u[0]
    np.subtract(u[1:], u[:-1], out=e[1:W])
    e[W] = -u[W - 1]
    np.multiply(gam, e, out=e)
    np.subtract(e[1:], e[:-1], out=out)
    out -= mu * u
    return out


def advance(u, v, f, minv, mu, gam, dt, nsteps):
    """``nsteps`` velocity-Verlet steps in place; ``f`` holds the force at ``u``."""
    half = 0.5 * dt
    for _ in range(nsteps):
        v += half * f
        u += dt * v * minv
        force_into(u, mu, gam, f)
        v += half * f


# ---------------------------------------------------------------------------
# oscillatory mixing: out[k] = sum_j coef[j] * trig(omega[j] * t[k])
#
# This is the time-side assembly of every band-jump quadrature; node counts
# reach a few thousand and time grids a few thousand points.

_MIX_CHUNK = 256


def mix(kind, coef, omega, t):
    """sin (``kind == 0``) or cos mixing of ``coef`` at frequencies ``omega``."""
    out = np.empty(t.shape[0])
    trig = np.sin if kind == 0 else np.cos
    for lo in range(0, t.shape[0], _MIX_CHUNK):
        hi = min(lo + _MIX_CHUNK, t.shape[0])
        out[lo:hi] = trig(np.outer(t[lo:hi], omega)) @ coef
    return out
