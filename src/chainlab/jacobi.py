"""The tridiagonal symbol of the defect block and its minor algebra.

For the Fourier-Laplace transformed defect equations the block unknowns
satisfy D(omega) r = rhs with a complex symmetric tridiagonal (N+1)x(N+1)
matrix

    D_00 = mu_0 - m_0 w^2 + gamma_-(1 - e^{i theta_-(w)}) + gamma_0
    D_nn = mu_n - m_n w^2 + gamma_n + gamma_{n-1}          (0 < n < N)
    D_NN = mu_N - m_N w^2 + gamma_+(1 - e^{i theta_+(w)}) + gamma_{N-1}
    D_{n,n+1} = D_{n+1,n} = -gamma_n

(for N = 0 the single entry carries both boundary terms).  One builder
assembles this diagonal, at one evaluation point or over an array of them.
Determinants come from one ladder, the leading-minor recurrence

    alpha_i = d_i alpha_{i-1} - gamma_{i-1}^2 alpha_{i-2}

run over any trailing batch axes of the diagonal.  The trailing minors
beta_i are the leading minors of the reversed matrix, inner minors are the
ladder of an interior block, and the inverse follows in closed form from
the minor products (Usmani's formula).  Dense elimination exists only as a
test oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionBranch, INTERIOR, exp_itheta
from .errors import (PivotBreakdownError, SingularFrameError,
                     UnsupportedConfigurationError)

MODE_ANALYTIC = "analytic"
MODE_AT_KAPPA = "at_kappa"   # omega = kappa with e^{i theta(kappa)} := 1
MODE_AT_TOP = "at_a"         # omega = a with e^{i theta(a)} := -1

_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class TridiagonalFrame:
    """Symbol matrix at one evaluation point, stored as diagonal + couplings.

    ``gamma[i]`` is the positive coupling of bond (i, i+1); the matrix
    off-diagonal entries are ``-gamma[i]``.
    """

    diag: np.ndarray
    gamma: np.ndarray
    omega: complex
    mode: str = MODE_ANALYTIC

    @property
    def size(self):
        return len(self.diag)

    def dense(self):
        n = self.size
        mat = np.zeros((n, n), dtype=self.diag.dtype)
        mat[np.arange(n), np.arange(n)] = self.diag
        if n > 1:
            idx = np.arange(n - 1)
            mat[idx, idx + 1] = -self.gamma
            mat[idx + 1, idx] = -self.gamma
        return mat

    def scale(self):
        """Relative gauge Prod max(1, |d_n|) for singularity thresholds."""
        return float(np.prod(np.maximum(1.0, np.abs(self.diag))))


def _symbol_diagonals(chain, w2, z_minus, z_plus):
    """Diagonal of D and the bond couplings from omega^2 and the branch
    factors z_-+ = e^{i theta_-+}.

    Scalar arguments give a diagonal of shape (N+1,), arrays of length M
    one of shape (N+1, M).
    """
    N = chain.n_defects
    pin, mass, cpl = chain.defect_pinning, chain.defect_mass, chain.defect_coupling
    boundary_minus = chain.bulk_minus.coupling * (1.0 - z_minus)
    boundary_plus = chain.bulk_plus.coupling * (1.0 - z_plus)
    # a Python scalar w2 has no shape; np.shape would convert it to an array,
    # which costs as much as the rest of a scalar assembly
    diag = np.empty((N + 1,) + getattr(w2, "shape", ()), dtype=complex)
    if N == 0:
        diag[0] = pin[0] - mass[0] * w2 + boundary_minus + boundary_plus
    else:
        diag[0] = pin[0] - mass[0] * w2 + boundary_minus + cpl[0]
        for n in range(1, N):
            diag[n] = pin[n] - mass[n] * w2 + cpl[n] + cpl[n - 1]
        diag[N] = pin[N] - mass[N] * w2 + boundary_plus + cpl[N - 1]
    gamma = np.array([chain.bond_coupling(n) for n in range(N)], dtype=float)
    return diag, gamma


def _branch_factors(chain, omega, side):
    return (exp_itheta(DispersionBranch.from_side(chain.bulk_minus), omega, side),
            exp_itheta(DispersionBranch.from_side(chain.bulk_plus), omega, side))


def assemble_frame(chain, omega=None, mode=MODE_ANALYTIC, side=INTERIOR):
    """Build the symbol matrix of ``chain`` at one evaluation point.

    ``mode="analytic"`` evaluates the branch factors at complex ``omega``
    (``side`` selects interior or a boundary limit for real omega).  The
    substitution modes ``at_kappa``/``at_a`` build the real matrices used by
    the sign tests at the band edges of a uniform bulk; they fix the branch
    factor to +1/-1 and require identical bulk halves.
    """
    if mode == MODE_ANALYTIC:
        if omega is None:
            raise ValueError("analytic mode requires omega")
        z_minus, z_plus = _branch_factors(chain, omega, side)
        w = complex(omega)
    elif mode in (MODE_AT_KAPPA, MODE_AT_TOP):
        if not chain.is_uniform_bulk:
            raise UnsupportedConfigurationError(
                "substitution modes require identical bulk halves")
        if mode == MODE_AT_KAPPA:
            w = chain.bulk_minus.kappa
            z_minus = z_plus = 1.0
        else:
            w = chain.bulk_minus.band_top
            z_minus = z_plus = -1.0
        if omega is not None and not math.isclose(abs(omega), abs(w), rel_tol=1e-12):
            raise ValueError(f"mode {mode} evaluates at omega = {w}, got {omega}")
    else:
        raise ValueError(f"unknown mode {mode!r}")

    diag, gamma = _symbol_diagonals(chain, w * w, z_minus, z_plus)
    if np.max(np.abs(diag.imag)) == 0.0:
        diag = diag.real.astype(complex)
    return TridiagonalFrame(diag=diag, gamma=gamma, omega=complex(w), mode=mode)


def boundary_diagonals(chain, omega, side):
    """Diagonals of the boundary frames over an array of real omega.

    Returns ``(diag, gamma)`` with ``diag`` of shape (N+1, len(omega)).
    """
    omega = np.asarray(omega, dtype=float)
    z_minus, z_plus = _branch_factors(chain, omega, side)
    return _symbol_diagonals(chain, omega.astype(complex) ** 2, z_minus, z_plus)


# ---------------------------------------------------------------------------
# the minor ladder


def _ladder(diag, gamma):
    """alpha_{-1}..alpha_N of the leading-minor recurrence (alpha_{-1} = 1).

    ``diag`` has shape (N+1,) or (N+1, M...); the ladder runs over the
    trailing axes at once and has shape (N+2, M...).
    """
    alpha = np.empty((len(diag) + 1,) + diag.shape[1:], dtype=complex)
    alpha[0] = prev1 = 1.0
    prev2 = 0.0                  # alpha_{-2}
    for i in range(len(diag)):
        g2 = gamma[i - 1] ** 2 if i >= 1 else 0.0
        prev2, prev1 = prev1, diag[i] * prev1 - g2 * prev2
        alpha[i + 1] = prev1
    return alpha


def _trailing_ladder(diag, gamma):
    """beta_0..beta_{N+1} (beta_{N+1} = 1): the ladder of the reversed matrix."""
    return _ladder(diag[::-1], gamma[::-1])[::-1]


def leading_minors(frame):
    """alpha_0..alpha_N (alpha_N = det), via the three-term recurrence."""
    return _ladder(frame.diag, frame.gamma)[1:]


def trailing_minors(frame):
    """beta_0..beta_N (beta_0 = det), recursing from the lower-right corner."""
    return _trailing_ladder(frame.diag, frame.gamma)[:-1]


def frame_det(frame):
    """(det, scale) with det from the leading-minor ladder."""
    return complex(leading_minors(frame)[-1]), frame.scale()


def pivots(frame):
    """Forward pivots c_n and backward pivots e_n of the LDL sweeps.

    c_0 = d_0, c_n = d_n - gamma_{n-1}^2 / c_{n-1};
    e_N = d_N, e_n = d_n - gamma_n^2 / e_{n+1}.
    Products of either sequence reproduce the determinant.  A vanishing pivot
    raises :class:`PivotBreakdownError` naming the index (the determinant is
    still reachable through the minor recurrences).
    """
    d, g = frame.diag, frame.gamma
    n = frame.size
    c = np.empty(n, dtype=complex)
    for i in range(n):
        c[i] = d[i] if i == 0 else d[i] - g[i - 1] ** 2 / c[i - 1]
        if abs(c[i]) < 1e-13 * max(1.0, abs(d[i])):
            raise PivotBreakdownError(i, "forward")
    e = np.empty(n, dtype=complex)
    for i in range(n - 1, -1, -1):
        e[i] = d[i] if i == n - 1 else d[i] - g[i] ** 2 / e[i + 1]
        if abs(e[i]) < 1e-13 * max(1.0, abs(d[i])):
            raise PivotBreakdownError(i, "backward")
    return c, e


def inner_minor(frame, j, k):
    """Determinant of the interior block with rows/columns j..k (1-based defect
    indices, 1 <= j <= k <= N-1).

    Interior diagonal entries carry no branch factor, so the block is real
    for real omega.  The degenerate conventions Delta_{j-1}^j = 1 and
    Delta_{j-2}^j = 0 of the recurrences are honored for k = j-1, j-2.
    """
    N = frame.size - 1
    if N < 2:
        raise ValueError("inner minors require N >= 2")
    if not (1 <= j <= N - 1):
        raise ValueError(f"j = {j} out of range 1..{N - 1}")
    if k == j - 1:
        return 1.0 + 0.0j
    if k == j - 2:
        return 0.0 + 0.0j
    if not (j <= k <= N - 1):
        raise ValueError(f"k = {k} out of range {j - 1}..{N - 1}")
    return complex(_ladder(frame.diag[j:k + 1], frame.gamma[j:k])[-1])


def _usmani(alpha, beta, gamma):
    """Inverse entries from the ladders alpha_{-1}..alpha_N, beta_0..beta_{N+1}.

    N_ij = gamma_j ... gamma_{i-1} alpha_{j-1} beta_{i+1} / alpha_N for
    j < i, with the diagonal alpha_{i-1} beta_{i+1} / alpha_N; symmetric by
    construction.  Batch axes of the ladders trail the two matrix axes.
    """
    n = len(alpha) - 1
    det = alpha[n]
    inv = np.empty((n, n) + alpha.shape[1:], dtype=complex)
    for i in range(n):
        inv[i, i] = alpha[i] * beta[i + 1] / det
        prod = 1.0
        for j in range(i - 1, -1, -1):
            prod *= gamma[j]
            inv[i, j] = prod * alpha[j] * beta[i + 1] / det
            inv[j, i] = inv[i, j]
    return inv


def invert_usmani(frame):
    """Closed-form inverse from the minor ladders (Usmani's formula).

    Raises :class:`SingularFrameError` when |det| falls below 1e-12 times
    the frame scale.
    """
    alpha = _ladder(frame.diag, frame.gamma)
    det = alpha[-1]
    scale = frame.scale()
    if abs(det) < _SINGULAR_RTOL * max(1.0, scale):
        raise SingularFrameError(det, scale, frame.omega)
    return _usmani(alpha, _trailing_ladder(frame.diag, frame.gamma), frame.gamma)


def ladder_inverse_entries(diag, gamma):
    """All entries of the Usmani inverse over an evaluation-point array.

    ``diag`` has shape (N+1, M); returns shape (N+1, N+1, M).
    """
    return _usmani(_ladder(diag, gamma), _trailing_ladder(diag, gamma), gamma)
