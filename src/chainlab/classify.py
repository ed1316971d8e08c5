"""Constant-regime classification: condition C, condition C0, or resonance.

The verdict is decided by the real zeros of det D(omega):

* condition C:  det D(omega) != 0 on (R \\ Lambda) u Lambda^0  -> decay t^{-3/2}
* condition C0: det D vanishes only at a nonzero band edge     -> decay t^{-1/2}
* resonance:    a zero mode at omega = 0 (with 0 in Lambda^0) or a real zero
  omega_* off the bands -> non-decaying solutions exist.

For N = 0 the decision reduces to sign tests of the scalar symbol at the
real-valued limits on the band-edge set, plus monotonicity of the symbol on
each spectral gap; the closed-form inequality systems for the particular
parameter families (uniform bulk; unit masses; pinned defect only) are
evaluated alongside and must agree.  For N >= 1 with identical bulk halves
the decision runs on the leading-minor sign ladders of the substituted edge
matrices D(a) and D(kappa).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import Chain
from .dispersion import PLUS_I0
from .errors import UnsupportedConfigurationError
from .jacobi import (MODE_AT_KAPPA, MODE_AT_TOP, _ladder, assemble_frame,
                     boundary_diagonals, leading_minors)

# relative width of the numerical equality band used wherever the trichotomy
# turns a strict inequality into an equality case
EQ_RTOL = 1e-9

KIND_C = "C"
KIND_C0 = "C0"
KIND_RESONANCE = "resonance"
RES_ZERO_MODE = "zero_mode"
RES_REAL_ZERO = "real_zero"


def _num(x):
    """17 significant digits: round-trips a float, whatever its type."""
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class TrailEntry:
    criterion: str
    value: float
    threshold: float
    outcome: str

    def format(self):
        return (f"{self.criterion}: value={_num(self.value)} "
                f"threshold={_num(self.threshold)} -> {self.outcome}")


@dataclass
class ClassificationVerdict:
    kind: str
    decay_beta: int | None
    c0_witness: float | None = None
    c0_witnesses: tuple = ()
    resonance_kind: str | None = None
    omega_star: float | None = None
    trail: list = field(default_factory=list)

    def describe(self):
        lines = [f"kind: {self.kind}"]
        if self.decay_beta is not None:
            lines.append(f"decay_beta: {self.decay_beta}")
        if self.kind == KIND_C0:
            lines.append(f"c0_witness: {_num(self.c0_witness)}")
            if len(self.c0_witnesses) > 1:
                lines.append("c0_witnesses: " + " ".join(_num(w) for w in self.c0_witnesses))
        if self.kind == KIND_RESONANCE:
            lines.append(f"resonance_kind: {self.resonance_kind}")
            if self.omega_star is not None:
                lines.append(f"omega_star: {_num(self.omega_star)}")
        lines.append("trail:")
        lines.extend("  " + e.format() for e in self.trail)
        return "\n".join(lines)


def _band(ref):
    return EQ_RTOL * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# auxiliary spectral functions (N = 0 closed forms)


def kbar_squared(chain):
    """Mean squared pinning frequency (kappa_-^2 + kappa_+^2)/2."""
    return 0.5 * (chain.bulk_minus.kappa ** 2 + chain.bulk_plus.kappa ** 2)


def k_zero(chain, omega):
    """K_0(omega) on |omega| <= kappa_+ (below the right propagation band)."""
    kp = chain.bulk_plus.kappa
    ap = chain.bulk_plus.band_top
    if abs(omega) > kp:
        raise ValueError(f"K_0 requires |omega| <= kappa_+ = {kp!r}")
    return (kbar_squared(chain)
            - 0.5 * math.sqrt(kp ** 2 - omega ** 2) * math.sqrt(ap ** 2 - omega ** 2))


def _k_side(chain, omega, side):
    kap, a = side.kappa, side.band_top
    if abs(omega) < a:
        raise ValueError(f"K_+/- requires |omega| >= a = {a!r}")
    return (kbar_squared(chain)
            + 0.5 * math.sqrt(omega ** 2 - kap ** 2) * math.sqrt(omega ** 2 - a ** 2))


def k_minus(chain, omega):
    """K_-(omega) on |omega| >= a_-."""
    return _k_side(chain, omega, chain.bulk_minus)


def k_plus(chain, omega):
    """K_+(omega) on |omega| >= a_+."""
    return _k_side(chain, omega, chain.bulk_plus)


def k_functions(chain, omega):
    """All of K_0, K_-, K_+ that are defined at ``omega``, as a dict."""
    out = {}
    for name, fn in (("K0", k_zero), ("K-", k_minus), ("K+", k_plus)):
        try:
            out[name] = fn(chain, omega)
        except ValueError:
            pass
    return out


# ---------------------------------------------------------------------------
# real-axis symbol evaluation


def real_axis_det(chain, omega):
    """det D at real omega as the boundary value from above (complex)."""
    fr = assemble_frame(chain, float(omega), side=PLUS_I0)
    return complex(leading_minors(fr)[-1])


def _real_axis_det_grid(chain, omegas):
    """Real part of det D(omega + i0) over an array of real omegas."""
    return _ladder(*boundary_diagonals(chain, omegas, PLUS_I0))[-1].real


def _real_value(chain, omega):
    """Real det D at a point outside all open bands (imag part ~ 0 there)."""
    return real_axis_det(chain, omega).real


def _positive_edges(chain):
    sides = (chain.bulk_minus, chain.bulk_plus)
    vals = sorted({s.kappa for s in sides} | {s.band_top for s in sides})
    return [v for v in vals if v > 0.0]


def _interior_to_some_band(chain, e):
    for s in (chain.bulk_minus, chain.bulk_plus):
        if s.kappa < e < s.band_top:
            return True
    return False


def _bisect(fn, lo, hi, flo, fhi):
    """Plain bisection on a sign change; returns the midpoint at convergence."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (flo > 0.0) != (fm > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _gap_regions(chain):
    """Components of (0, inf) \\ Lambda as (lo, hi, tag); hi=None is unbounded."""
    km = min(chain.bulk_minus.kappa, chain.bulk_plus.kappa)
    amax = chain.band_top_max
    regions = []
    if km > 0.0:
        regions.append((0.0, km, "below-band"))
    am, kp = chain.bulk_minus.band_top, chain.bulk_plus.kappa
    ap, km2 = chain.bulk_plus.band_top, chain.bulk_minus.kappa
    if am < kp:
        regions.append((am, kp, "between-bands"))
    elif ap < km2:
        regions.append((ap, km2, "between-bands"))
    regions.append((amax, None, "above-band"))
    return regions


def find_spectral_zero(chain, grid_points=512):
    """Smallest omega_* > 0 off the bands with det D(omega_*) = 0, or None.

    Scans each spectral-gap component on a fine grid for sign changes of the
    real determinant, refines by bisection, and extends the unbounded
    component geometrically until the guaranteed divergence of the
    determinant produces a bracket.
    """
    fn = lambda w: _real_value(chain, w)
    for lo, hi, tag in _gap_regions(chain):
        if hi is None:
            # determinant diverges like (-1)^{N+1} m-prod omega^{2(N+1)};
            # expand until the far end has the asymptotic sign
            span = max(1.0, lo)
            hi = 2.0 * chain.band_top_max + 1.0
            sign_inf = -1.0 if (chain.n_defects % 2 == 0) else 1.0
            for _ in range(60):
                if fn(hi) * sign_inf > 0.0:
                    break
                hi *= 2.0
        grid = np.linspace(lo, hi, grid_points)
        vals = _real_axis_det_grid(chain, grid)
        edge_pad = 1e-7 * max(1.0, hi - lo)
        for i in range(len(grid) - 1):
            if vals[i] * vals[i + 1] < 0.0:
                root = float(_bisect(fn, grid[i], grid[i + 1], vals[i], vals[i + 1]))
                # zeros within the equality band of a region edge belong to
                # Lambda^0 (a C0 witness), not to the open gap; gauge the edge
                # value by the frame scale there, as the classifier does
                if min(abs(root - lo), abs(root - hi)) <= edge_pad:
                    edge = lo if abs(root - lo) <= abs(root - hi) else hi
                    fr = assemble_frame(chain, edge, side=PLUS_I0)
                    if abs(fn(edge)) <= _band(fr.scale()):
                        continue
                return root
    return None


# ---------------------------------------------------------------------------
# general N = 0 classification from the endpoint values


def _edge_value_entry(chain, e, trail):
    val = real_axis_det(chain, e)
    bound = chain.defect_pinning[0] - val.real if chain.n_defects == 0 else 0.0
    tol = _band(bound)
    if abs(val.real) <= tol:
        outcome = "equal"
    else:
        outcome = "neg" if val.real < 0 else "pos"
    trail.append(TrailEntry(f"edge D({e:.12g})", val.real, tol, outcome))
    return val.real, tol, outcome


def _classify_n0_general(chain):
    trail = []
    mu0 = chain.defect_pinning[0]
    km = min(chain.bulk_minus.kappa, chain.bulk_plus.kappa)
    amax = chain.band_top_max

    # zero mode at the origin (possible only when 0 is a band edge)
    if km == 0.0:
        d0 = _real_value(chain, 0.0)
        tol0 = _band(2.0 * (chain.bulk_minus.coupling + chain.bulk_plus.coupling) + mu0)
        if abs(d0) <= tol0:
            trail.append(TrailEntry("D(0)", d0, tol0, "zero"))
            return ClassificationVerdict(
                KIND_RESONANCE, None, resonance_kind=RES_ZERO_MODE,
                omega_star=0.0, trail=trail)
        trail.append(TrailEntry("D(0)", d0, tol0, "pass"))

    # no zeros inside the gap components (monotone symbol: endpoint signs decide)
    witnesses = []

    def check_region(lo, hi, tag):
        if tag == "above-band":
            v, tol, out = _edge_value_entry(chain, lo, trail)
            if out == "pos":
                return ("violated", lo, None)
            if out == "equal":
                witnesses.append(lo)
            return None
        if tag == "below-band":
            v, tol, out = _edge_value_entry(chain, hi, trail)
            if out == "neg":
                return ("violated", 0.0, hi)
            if out == "equal":
                witnesses.append(hi)
            return None
        v_lo, tol_lo, out_lo = _edge_value_entry(chain, lo, trail)
        v_hi, tol_hi, out_hi = _edge_value_entry(chain, hi, trail)
        if out_lo == "pos" and out_hi == "neg":
            return ("violated", lo, hi)
        if out_lo == "equal":
            witnesses.append(lo)
        if out_hi == "equal":
            witnesses.append(hi)
        return None

    for lo, hi, tag in _gap_regions(chain):
        status = check_region(lo, hi, tag)
        if status is not None:
            _, blo, bhi = status
            star = find_spectral_zero(chain)
            trail.append(TrailEntry("real zero located", star if star else math.nan,
                                    0.0, "resonance"))
            return ClassificationVerdict(
                KIND_RESONANCE, None, resonance_kind=RES_REAL_ZERO,
                omega_star=star, trail=trail)

    # remaining band-edge points: those interior to the other band carry a
    # nonzero imaginary part and cannot vanish
    gap_pts = {e for lo, hi, tag in _gap_regions(chain)
               for e in (lo, hi) if e and e is not None}
    for e in _positive_edges(chain):
        if e in gap_pts:
            continue
        if _interior_to_some_band(chain, e):
            val = real_axis_det(chain, e)
            trail.append(TrailEntry(f"edge D({e:.12g}) imag", val.imag, 0.0, "skip"))
            continue
        v, tol, out = _edge_value_entry(chain, e, trail)
        if out == "equal":
            witnesses.append(e)

    if witnesses:
        ws = tuple(sorted(set(witnesses)))
        return ClassificationVerdict(KIND_C0, 1, c0_witness=ws[0],
                                     c0_witnesses=ws, trail=trail)
    return ClassificationVerdict(KIND_C, 3, trail=trail)


# ---------------------------------------------------------------------------
# specialized N = 0 parameter families


def _p1_applies(chain):
    return chain.n_defects == 0 and chain.is_uniform_bulk


def _classify_p1(chain):
    """Uniform bulk: decision in terms of kappa_0^2 - kappa^2 and a_0^2 - a^2."""
    m = chain.bulk_minus.mass
    gam = chain.bulk_minus.coupling
    mu = chain.bulk_minus.pinning
    m0 = chain.defect_mass[0]
    mu0 = chain.defect_pinning[0]
    x0, x = mu0 / m0, mu / m
    y0, y = (mu0 + 4.0 * gam) / m0, (mu + 4.0 * gam) / m

    dx = x0 - x
    dy = y0 - y
    ex, ey = _band(x), _band(y)
    kappa = math.sqrt(x)
    a = math.sqrt(y)

    if dx > ex and dy < -ey:
        return (KIND_C, None, None)
    if abs(mu0 - mu) <= _band(mu) and mu > _band(0.0) and abs(m0 - m) <= _band(m):
        return (KIND_C0, kappa, None)                     # (i): identical chain
    if mu0 > _band(0.0) and mu > _band(0.0) and abs(dx) <= ex and m0 > m + _band(m):
        return (KIND_C0, kappa, None)                     # (ii)
    if mu0 > _band(0.0) and dx > ex and abs(dy) <= ey:
        return (KIND_C0, a, None)                         # (iii)
    if mu0 <= _band(0.0) and mu <= _band(0.0):
        return (KIND_RESONANCE, None, RES_ZERO_MODE)      # (R1)
    return (KIND_RESONANCE, None, RES_REAL_ZERO)          # (R2)/(R3)


def _p2_applies(chain):
    return (chain.n_defects == 0
            and chain.bulk_minus.mass == 1.0
            and chain.bulk_plus.mass == 1.0
            and chain.defect_mass[0] == 1.0)


def _classify_p2(chain):
    """Unit masses; stated with the sides labeled so kappa_- <= kappa_+."""
    if chain.bulk_minus.kappa > chain.bulk_plus.kappa:
        chain = Chain(chain.bulk_plus, chain.bulk_minus, chain.defect_mass,
                      chain.defect_coupling, chain.defect_pinning)
    mu0 = chain.defect_pinning[0]
    sm, sp = chain.bulk_minus, chain.bulk_plus
    km, kp = sm.kappa, sp.kappa
    am, ap = sm.band_top, sp.band_top

    def lt(u, v):
        return u < v - _band(v)

    def gt(u, v):
        return u > v + _band(v)

    def eq(u, v):
        return abs(u - v) <= _band(v)

    # K_+ is defined for |omega| >= a_+, so it is the function evaluated at
    # the larger edge a_-, and vice versa
    cond_c = True
    if am >= ap:
        cond_c = cond_c and lt(mu0, k_plus(chain, am))
    if ap >= am:
        cond_c = cond_c and lt(mu0, k_minus(chain, ap))
    if km != 0.0:
        cond_c = cond_c and gt(mu0, k_zero(chain, km))
    if am <= kp:
        cond_c = cond_c and (gt(mu0, k_minus(chain, kp)) or lt(mu0, k_zero(chain, am)))
    if sm.pinning == 0.0 and sp.pinning == 0.0:
        cond_c = cond_c and not eq(mu0, 0.0)
    if cond_c:
        return (KIND_C, None, None)

    # prerequisites for C0: the non-strict gap conditions must all hold
    ok = True
    if am >= ap:
        ok = ok and not gt(mu0, k_plus(chain, am))
    if ap >= am:
        ok = ok and not gt(mu0, k_minus(chain, ap))
    if km != 0.0:
        ok = ok and not lt(mu0, k_zero(chain, km))
    if am <= kp:
        ok = ok and ((not lt(mu0, k_minus(chain, kp)))
                     or (not gt(mu0, k_zero(chain, am))))
    if ok:
        if am > ap + _band(ap) and eq(mu0, k_plus(chain, am)):
            return (KIND_C0, am, None)                    # (i)
        if am < ap - _band(ap) and eq(mu0, k_minus(chain, ap)):
            return (KIND_C0, ap, None)                    # (ii)
        if abs(am - ap) <= _band(ap) and (km, kp) != (0.0, 0.0) \
                and eq(mu0, kbar_squared(chain)):
            return (KIND_C0, am, None)                    # (iii)
        if km != 0.0 and k_zero(chain, km) >= 0.0 and eq(mu0, k_zero(chain, km)):
            return (KIND_C0, km, None)                    # (iv)
        if am <= kp and eq(mu0, k_minus(chain, kp)):
            return (KIND_C0, kp, None)                    # (v)
        if am < kp and k_zero(chain, am) >= 0.0 and eq(mu0, k_zero(chain, am)):
            return (KIND_C0, am, None)                    # (vi)
    if km == 0.0 and kp == 0.0 and eq(mu0, 0.0):
        return (KIND_RESONANCE, None, RES_ZERO_MODE)
    return (KIND_RESONANCE, None, RES_REAL_ZERO)


def _p3_applies(chain):
    return (chain.n_defects == 0
            and chain.bulk_minus.pinning == 0.0
            and chain.bulk_plus.pinning == 0.0)


def _classify_p3(chain):
    """Pinned defect in an unpinned chain: mu_+- = 0."""
    mu0 = chain.defect_pinning[0]
    m0 = chain.defect_mass[0]
    mm, mp = chain.bulk_minus.mass, chain.bulk_plus.mass
    nm, npl = chain.bulk_minus.nu, chain.bulk_plus.nu
    half_sum = 0.5 * (mm + mp)

    if mu0 <= _band(0.0):
        return (KIND_RESONANCE, None, RES_ZERO_MODE)

    bounds = []
    if nm >= npl:
        bounds.append((4.0 * nm ** 2 * (m0 - half_sum)
                       + 2.0 * mp * nm * math.sqrt(nm ** 2 - npl ** 2),
                       chain.bulk_minus.band_top))
    if npl >= nm:
        bounds.append((4.0 * npl ** 2 * (m0 - half_sum)
                       + 2.0 * mm * npl * math.sqrt(npl ** 2 - nm ** 2),
                       chain.bulk_plus.band_top))
    if all(mu0 < b - _band(b) for b, _ in bounds):
        return (KIND_C, None, None)
    for b, edge in bounds:
        if abs(mu0 - b) <= _band(b):
            others_ok = all(mu0 <= b2 + _band(b2) for b2, _ in bounds)
            if others_ok:
                return (KIND_C0, edge, None)
    return (KIND_RESONANCE, None, RES_REAL_ZERO)


_PATTERNS = (("P1", _p1_applies, _classify_p1),
             ("P2", _p2_applies, _classify_p2),
             ("P3", _p3_applies, _classify_p3))


def classify_n0(chain):
    """Classify an N = 0 chain (general bulk halves allowed)."""
    if chain.n_defects != 0:
        raise ValueError("classify_n0 requires N = 0")
    verdict = _classify_n0_general(chain)
    for name, applies, classify_fn in _PATTERNS:
        if not applies(chain):
            continue
        kind, witness, res_kind = classify_fn(chain)
        agree = kind == verdict.kind
        if agree and kind == KIND_RESONANCE:
            agree = res_kind == verdict.resonance_kind
        if agree and kind == KIND_C0 and witness is not None:
            agree = any(abs(witness - w) <= 1e-6 * max(1.0, w)
                        for w in verdict.c0_witnesses)
        verdict.trail.append(TrailEntry(
            f"pattern {name} agreement", 1.0 if agree else 0.0, 1.0,
            "pass" if agree else "fail"))
        if not agree:
            raise RuntimeError(
                f"specialized {name} classification ({kind}, {witness}, {res_kind}) "
                f"disagrees with the general test ({verdict.kind}, "
                f"{verdict.c0_witnesses}, {verdict.resonance_kind})")
    return verdict


# ---------------------------------------------------------------------------
# N >= 1, identical bulk halves


def _minor_signs(frame):
    """Leading minors with per-order zero bands (running scale gauge)."""
    alpha = leading_minors(frame).real
    scales = np.cumprod(np.maximum(1.0, np.abs(frame.diag.real)))
    tols = EQ_RTOL * np.maximum(1.0, scales)
    return alpha, tols


def classify_general(chain):
    """Classify an N >= 1 chain with identical bulk halves."""
    if chain.n_defects < 1:
        raise ValueError("classify_general requires N >= 1")
    if not chain.is_uniform_bulk:
        raise UnsupportedConfigurationError(
            "no classification is available for N >= 1 with differing bulk halves")

    trail = []
    N = chain.n_defects
    bulk = chain.bulk_minus
    mu = bulk.pinning
    pinned_defects = any(p != 0.0 for p in chain.defect_pinning)

    alpha_a, tol_a = _minor_signs(assemble_frame(chain, mode=MODE_AT_TOP))
    alpha_k, tol_k = (None, None)
    if mu != 0.0:
        alpha_k, tol_k = _minor_signs(assemble_frame(chain, mode=MODE_AT_KAPPA))

    def sign_ladder(alpha, tol, want):
        """Per-order outcomes vs the required sign pattern."""
        out = []
        for n in range(N + 1):
            v = alpha[n] * (-1.0) ** n if want == "neg" else alpha[n]
            if abs(alpha[n]) <= tol[n]:
                out.append("equal")
            elif v < 0.0 if want == "neg" else v > 0.0:
                out.append("pass")
            else:
                out.append("fail")
        return out

    lad_a = sign_ladder(alpha_a, tol_a, "neg")
    for n, o in enumerate(lad_a):
        trail.append(TrailEntry(f"alpha_{n}(a) sign", alpha_a[n], tol_a[n], o))
    if mu != 0.0:
        lad_k = sign_ladder(alpha_k, tol_k, "pos")
        for n, o in enumerate(lad_k):
            trail.append(TrailEntry(f"alpha_{n}(kappa) sign", alpha_k[n], tol_k[n], o))
    else:
        trail.append(TrailEntry("some defect pinned (mu = 0)",
                                1.0 if pinned_defects else 0.0, 1.0,
                                "pass" if pinned_defects else "fail"))

    negdef_a = all(o == "pass" for o in lad_a)
    interior_a = all(o == "pass" for o in lad_a[:N])
    det_a_zero = lad_a[N] == "equal"

    if mu == 0.0:
        posdef_k = True
        interior_k = det_k_zero = False
    else:
        posdef_k = all(o == "pass" for o in lad_k)
        interior_k = all(o == "pass" for o in lad_k[:N])
        det_k_zero = lad_k[N] == "equal"

    mu_clause = pinned_defects if mu == 0.0 else True

    verdict = None
    if mu_clause and negdef_a and (mu == 0.0 or posdef_k):
        verdict = ClassificationVerdict(KIND_C, 3, trail=trail)
    elif mu == 0.0 and mu_clause and interior_a and det_a_zero:
        verdict = ClassificationVerdict(KIND_C0, 1, c0_witness=bulk.band_top,
                                        c0_witnesses=(bulk.band_top,), trail=trail)
    elif mu != 0.0 and interior_a and det_a_zero and posdef_k:
        verdict = ClassificationVerdict(KIND_C0, 1, c0_witness=bulk.band_top,
                                        c0_witnesses=(bulk.band_top,), trail=trail)
    elif mu != 0.0 and interior_k and det_k_zero and negdef_a:
        verdict = ClassificationVerdict(KIND_C0, 1, c0_witness=bulk.kappa,
                                        c0_witnesses=(bulk.kappa,), trail=trail)

    if verdict is not None:
        # necessary consequences of the edge sign patterns
        m = bulk.mass
        for site, label in ((0, "m_0"), (N, f"m_{N}")):
            ok = chain.defect_mass[site] > 0.5 * m
            trail.append(TrailEntry(f"{label} > m/2", chain.defect_mass[site],
                                    0.5 * m, "pass" if ok else "fail"))
            if not ok:
                raise RuntimeError(
                    f"{label} <= m/2 contradicts the edge sign pattern for "
                    f"verdict {verdict.kind}")
        return verdict

    if mu == 0.0 and not pinned_defects:
        trail.append(TrailEntry("all pinning constants zero", 0.0, 0.0, "resonance"))
        return ClassificationVerdict(KIND_RESONANCE, None,
                                     resonance_kind=RES_ZERO_MODE,
                                     omega_star=0.0, trail=trail)
    star = find_spectral_zero(chain)
    trail.append(TrailEntry("real zero located", star if star else math.nan,
                            0.0, "resonance"))
    return ClassificationVerdict(KIND_RESONANCE, None,
                                 resonance_kind=RES_REAL_ZERO,
                                 omega_star=star, trail=trail)


def classify(chain):
    """Dispatch on the block size: scalar criteria for N = 0, minor-sign
    ladders for N >= 1 with identical bulk halves."""
    if chain.n_defects == 0:
        return classify_n0(chain)
    return classify_general(chain)
