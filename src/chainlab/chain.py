"""Chain parameters, lattice states, weighted norms and the Hamiltonian.

A chain consists of two semi-infinite homogeneous halves (sites n <= -1 and
n >= N+1) and a defect block at sites 0..N whose masses, bond couplings and
pinning constants may differ from the bulk values.  The bond between sites n
and n+1 carries constant gamma_n, with the aliases gamma_{-1} = gamma_minus
and gamma_N = gamma_plus at the block boundaries.

All quantities are dimensionless model units.  States live on finite windows
of the lattice; entries outside the window are exact zeros.
"""

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ChainConfigError


@dataclass(frozen=True)
class SideParams:
    """Bulk constants of one semi-infinite half of the chain."""

    mass: float
    coupling: float
    pinning: float

    @property
    def nu(self):
        return math.sqrt(self.coupling / self.mass)

    @property
    def kappa(self):
        return math.sqrt(self.pinning / self.mass)

    @property
    def band_top(self):
        """Upper edge a = sqrt(kappa^2 + 4 nu^2) of the propagation band."""
        return math.sqrt(self.kappa ** 2 + 4.0 * self.nu ** 2)


@dataclass(frozen=True)
class Chain:
    """Full parameter record of a defect chain.

    ``defect_mass`` and ``defect_pinning`` hold N+1 entries for sites 0..N;
    ``defect_coupling`` holds N entries for the interior bonds 0..N-1.
    """

    bulk_minus: SideParams
    bulk_plus: SideParams
    defect_mass: tuple
    defect_coupling: tuple
    defect_pinning: tuple
    label: str = ""

    @property
    def n_defects(self):
        """Largest defect index N (the block is sites 0..N)."""
        return len(self.defect_mass) - 1

    @property
    def is_uniform_bulk(self):
        """True iff the two bulk halves carry identical constants."""
        bm, bp = self.bulk_minus, self.bulk_plus
        return bm.mass == bp.mass and bm.coupling == bp.coupling and bm.pinning == bp.pinning

    @property
    def band_top_max(self):
        return max(self.bulk_minus.band_top, self.bulk_plus.band_top)

    @property
    def group_velocity_max(self):
        return max(self.bulk_minus.nu, self.bulk_plus.nu)

    def site_mass(self, n):
        if n < 0:
            return self.bulk_minus.mass
        if n > self.n_defects:
            return self.bulk_plus.mass
        return self.defect_mass[n]

    def site_pinning(self, n):
        if n < 0:
            return self.bulk_minus.pinning
        if n > self.n_defects:
            return self.bulk_plus.pinning
        return self.defect_pinning[n]

    def bond_coupling(self, n):
        """Coupling gamma_n of the bond (n, n+1), including the boundary aliases."""
        if n <= -1:
            return self.bulk_minus.coupling
        if n >= self.n_defects:
            return self.bulk_plus.coupling
        return self.defect_coupling[n]

    def window_arrays(self, n_lo, n_hi):
        """Per-site (mass, pinning) and per-bond coupling arrays for a window.

        The coupling array has one extra leading entry: ``gam[i]`` is the bond
        between sites ``n_lo + i - 1`` and ``n_lo + i``, so ``gam`` aligns with
        the hard-zero ghost convention of the integrator kernels.
        """
        sites = np.arange(n_lo, n_hi + 1)
        m = np.array([self.site_mass(int(n)) for n in sites])
        mu = np.array([self.site_pinning(int(n)) for n in sites])
        gam = np.array([self.bond_coupling(int(n) - 1) for n in sites]
                       + [self.bond_coupling(int(n_hi))])
        return m, mu, gam

    def local_frequency_bound(self):
        """max_n sqrt((mu_n + 2 gamma_n + 2 gamma_{n-1}) / m_n) over all sites."""
        worst = 0.0
        for n in range(-1, self.n_defects + 2):
            w2 = (self.site_pinning(n) + 2.0 * self.bond_coupling(n)
                  + 2.0 * self.bond_coupling(n - 1)) / self.site_mass(n)
            worst = max(worst, math.sqrt(w2))
        return worst


@dataclass
class LatticeState:
    """Displacement/momentum pair on a finite window, zero outside it."""

    n_lo: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise ValueError("u and v must be 1-d arrays of equal length")

    @property
    def n_hi(self):
        return self.n_lo + len(self.u) - 1

    @property
    def sites(self):
        return np.arange(self.n_lo, self.n_hi + 1)

    def support_bounds(self, tol=0.0):
        """Smallest site interval containing all entries with |u|+|v| > tol."""
        mask = (np.abs(self.u) + np.abs(self.v)) > tol
        if not mask.any():
            return None
        idx = np.nonzero(mask)[0]
        return self.n_lo + int(idx[0]), self.n_lo + int(idx[-1])


def state_from_dict(values, n_lo=None, n_hi=None):
    """Build a LatticeState from ``{site: (u, v)}`` entries."""
    if not values:
        raise ValueError("empty state specification")
    lo = min(values) if n_lo is None else n_lo
    hi = max(values) if n_hi is None else n_hi
    u = np.zeros(hi - lo + 1)
    v = np.zeros(hi - lo + 1)
    for n, (un, vn) in values.items():
        u[n - lo] = un
        v[n - lo] = vn
    return LatticeState(lo, u, v)


def build_chain(spec, label=""):
    """Validate a raw parameter record and return the Chain.

    ``spec`` is a mapping with keys ``bulk_minus``, ``bulk_plus`` (each a
    mapping with ``mass``/``coupling``/``pinning``), ``defect_mass``,
    ``defect_pinning`` (sequences of N+1 floats) and ``defect_coupling``
    (sequence of N floats).  Every constant must be finite; masses and
    couplings positive, pinnings nonnegative.
    """
    def side(key):
        try:
            raw = spec[key]
        except KeyError:
            raise ChainConfigError(f"missing section {key!r}") from None
        vals = {}
        for name in ("mass", "coupling", "pinning"):
            try:
                vals[name] = float(raw[name])
            except (KeyError, TypeError, ValueError):
                raise ChainConfigError(f"{key}/{name} missing or not a number") from None
            if not math.isfinite(vals[name]):
                raise ChainConfigError(f"{key}/{name} must be finite")
        if vals["mass"] <= 0.0:
            raise ChainConfigError(f"{key}/mass must be > 0")
        if vals["coupling"] <= 0.0:
            raise ChainConfigError(f"{key}/coupling must be > 0")
        if vals["pinning"] < 0.0:
            raise ChainConfigError(f"{key}/pinning must be >= 0")
        return SideParams(**vals)

    bulk_minus = side("bulk_minus")
    bulk_plus = side("bulk_plus")

    try:
        masses = tuple(float(x) for x in spec["defect_mass"])
        pinnings = tuple(float(x) for x in spec["defect_pinning"])
        couplings = tuple(float(x) for x in spec.get("defect_coupling", ()))
    except (KeyError, TypeError, ValueError):
        raise ChainConfigError("defect arrays missing or not numeric") from None

    if len(masses) < 1:
        raise ChainConfigError("defect_mass must list at least one site (N >= 0)")
    if len(pinnings) != len(masses):
        raise ChainConfigError(
            f"defect_pinning has {len(pinnings)} entries, expected {len(masses)}")
    if len(couplings) != len(masses) - 1:
        raise ChainConfigError(
            f"defect_coupling has {len(couplings)} entries, expected {len(masses) - 1}")
    for name, vals in (("defect_mass", masses), ("defect_pinning", pinnings),
                       ("defect_coupling", couplings)):
        for i, x in enumerate(vals):
            if not math.isfinite(x):
                raise ChainConfigError(f"{name}[{i}] must be finite")
    for i, mn in enumerate(masses):
        if mn <= 0.0:
            raise ChainConfigError(f"defect_mass[{i}] must be > 0")
    for i, mun in enumerate(pinnings):
        if mun < 0.0:
            raise ChainConfigError(f"defect_pinning[{i}] must be >= 0")
    for i, gn in enumerate(couplings):
        if gn <= 0.0:
            raise ChainConfigError(f"defect_coupling[{i}] must be > 0")

    return Chain(bulk_minus, bulk_plus, masses, couplings, pinnings, label=label)


# ---------------------------------------------------------------------------
# plain-text configuration files
#
# Schema (one `key = value(s)` per line, '#' starts a comment):
#   bulk_minus/mass, bulk_minus/coupling, bulk_minus/pinning
#   bulk_plus/mass,  bulk_plus/coupling,  bulk_plus/pinning
#   defect_mass     = m_0 ... m_N        (N+1 whitespace-separated floats)
#   defect_pinning  = mu_0 ... mu_N      (N+1 floats)
#   defect_coupling = g_0 ... g_{N-1}    (N floats; omit for N = 0)

_SIDE_KEYS = {f"{s}/{f}" for s in ("bulk_minus", "bulk_plus")
              for f in ("mass", "coupling", "pinning")}
_LIST_KEYS = {"defect_mass", "defect_pinning", "defect_coupling"}


def parse_chain_config(text, label=""):
    """Parse the plain-text chain schema into a Chain."""
    spec = {"bulk_minus": {}, "bulk_plus": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ChainConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in _SIDE_KEYS:
            section, field_name = key.split("/")
            try:
                spec[section][field_name] = float(val)
            except ValueError:
                raise ChainConfigError(f"line {lineno}: {key} is not a number") from None
        elif key in _LIST_KEYS:
            try:
                spec[key] = [float(x) for x in val.split()]
            except ValueError:
                raise ChainConfigError(f"line {lineno}: {key} has a non-numeric entry") from None
        else:
            raise ChainConfigError(f"line {lineno}: unknown key {key!r}")
    return build_chain(spec, label=label)


def load_chain(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_chain_config(text, label=str(path))


def config_digest(path):
    """Stable hash of a config file, embedded in output headers."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# norms and energy


def weighted_norm(state, alpha):
    """Weighted l2 norm (sum <n>^{2 alpha} (u_n^2 + v_n^2))^{1/2}."""
    n = state.sites.astype(float)
    w = (1.0 + n * n) ** alpha
    return math.sqrt(float(np.sum(w * (state.u ** 2 + state.v ** 2))))


def energy(chain, state, include_boundary=True):
    """Hamiltonian H = 1/2 sum (v^2/m + gamma (u_{n+1}-u_n)^2 + mu u^2).

    With ``include_boundary`` (default) the window is treated as a state of
    the infinite chain that vanishes outside it, so the two bonds crossing
    the window edges contribute gamma * u_edge^2; this matches the invariant
    conserved by the truncated-window integrator.  ``include_boundary=False``
    drops those two bonds, which is the appropriate quadratic form when the
    window is a cutout of a wider (e.g. constant) profile.

    Warns when the support touches the window edge, since the value is then
    a truncation of the intended state's energy.
    """
    m, mu, gam = chain.window_arrays(state.n_lo, state.n_hi)
    u, v = state.u, state.v
    if u[0] != 0.0 or u[-1] != 0.0 or v[0] != 0.0 or v[-1] != 0.0:
        warnings.warn("state support touches the window edge; energy is truncated",
                      stacklevel=2)
    interior = gam[1:-1] * (u[1:] - u[:-1]) ** 2
    total = float(np.sum(v * v / m) + np.sum(mu * u * u) + np.sum(interior))
    if include_boundary:
        total += gam[0] * u[0] ** 2 + gam[-1] * u[-1] ** 2
    return 0.5 * total
