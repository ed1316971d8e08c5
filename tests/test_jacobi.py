import numpy as np
import pytest

from chainlab.chain import build_chain
from chainlab.dispersion import PLUS_I0
from chainlab.errors import (PivotBreakdownError, SingularFrameError,
                             UnsupportedConfigurationError)
from chainlab.jacobi import (MODE_AT_KAPPA, MODE_AT_TOP, assemble_frame,
                             boundary_diagonals, frame_det, inner_minor,
                             invert_usmani, ladder_inverse_entries,
                             leading_minors, pivots, trailing_minors)


def random_chain(rng, n_defects=None, uniform=False, pinned=True):
    if n_defects is None:
        n_defects = int(rng.integers(0, 9))
    def side():
        return {"mass": float(rng.uniform(0.5, 2.0)),
                "coupling": float(rng.uniform(0.5, 2.0)),
                "pinning": float(rng.uniform(0.0, 2.0)) if pinned else 0.0}
    minus = side()
    plus = dict(minus) if uniform else side()
    spec = {
        "bulk_minus": minus,
        "bulk_plus": plus,
        "defect_mass": [float(rng.uniform(0.4, 2.5)) for _ in range(n_defects + 1)],
        "defect_pinning": [float(rng.uniform(0.0, 2.5)) for _ in range(n_defects + 1)],
        "defect_coupling": [float(rng.uniform(0.4, 2.5)) for _ in range(n_defects)],
    }
    return build_chain(spec)


def random_upper_omega(rng):
    return complex(rng.uniform(-4.0, 4.0), rng.uniform(0.05, 3.0))


def test_scalar_frame_matches_closed_form():
    # N=0, kappa=0 both sides: D(0) would be mu_0; evaluate slightly off axis
    chain = build_chain({
        "bulk_minus": {"mass": 1.0, "coupling": 1.0, "pinning": 0.0},
        "bulk_plus": {"mass": 1.0, "coupling": 1.0, "pinning": 0.0},
        "defect_mass": [1.0], "defect_pinning": [0.7], "defect_coupling": []})
    fr = assemble_frame(chain, 0.0, side=PLUS_I0)
    assert fr.diag[0] == pytest.approx(0.7)


def test_substitution_modes_match_edge_formulas():
    # uniform bulk, N=0: D(a) = mu0 - m0 a^2 + 2 gamma_- + 2 gamma_+
    chain = build_chain({
        "bulk_minus": {"mass": 1.0, "coupling": 1.0, "pinning": 1.0},
        "bulk_plus": {"mass": 1.0, "coupling": 1.0, "pinning": 1.0},
        "defect_mass": [2.0], "defect_pinning": [3.0], "defect_coupling": []})
    a2 = 5.0
    fr_a = assemble_frame(chain, mode=MODE_AT_TOP)
    assert fr_a.diag[0].real == pytest.approx(3.0 - 2.0 * a2 + 4.0)
    assert fr_a.diag[0].imag == 0.0
    fr_k = assemble_frame(chain, mode=MODE_AT_KAPPA)
    assert fr_k.diag[0].real == pytest.approx(3.0 - 2.0 * 1.0)


def test_substitution_at_kappa_valid_without_pinning():
    # kappa = 0 reduces the lower-edge substitution to omega = 0
    chain = build_chain({
        "bulk_minus": {"mass": 1.0, "coupling": 1.0, "pinning": 0.0},
        "bulk_plus": {"mass": 1.0, "coupling": 1.0, "pinning": 0.0},
        "defect_mass": [2.0], "defect_pinning": [1.0], "defect_coupling": []})
    fr = assemble_frame(chain, mode=MODE_AT_KAPPA)
    assert fr.omega == 0.0
    assert fr.diag[0] == pytest.approx(1.0)


def test_substitution_mode_requires_uniform_bulk():
    rng = np.random.default_rng(0)
    chain = random_chain(rng, n_defects=1, uniform=False)
    with pytest.raises(UnsupportedConfigurationError):
        assemble_frame(chain, mode=MODE_AT_KAPPA)


def test_frame_conjugation_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(10):
        chain = random_chain(rng)
        w = random_upper_omega(rng)
        fr = assemble_frame(chain, w)
        fr_conj = assemble_frame(chain, np.conj(w))
        assert np.allclose(fr_conj.diag, np.conj(fr.diag), rtol=1e-14, atol=1e-14)


def test_minors_small_cases():
    rng = np.random.default_rng(2)
    chain = random_chain(rng, n_defects=1)
    fr = assemble_frame(chain, random_upper_omega(rng))
    alpha = leading_minors(fr)
    assert alpha[0] == pytest.approx(fr.diag[0])
    assert alpha[1] == pytest.approx(fr.diag[0] * fr.diag[1] - fr.gamma[0] ** 2)
    beta = trailing_minors(fr)
    assert beta[1] == pytest.approx(fr.diag[1])
    assert beta[0] == pytest.approx(alpha[1])


def test_minors_and_inverse_against_dense_oracles():
    rng = np.random.default_rng(42)
    for _ in range(120):
        chain = random_chain(rng)
        fr = assemble_frame(chain, random_upper_omega(rng))
        dense = fr.dense()
        det_dense = np.linalg.det(dense)
        alpha = leading_minors(fr)
        beta = trailing_minors(fr)
        assert abs(alpha[-1] - det_dense) <= 1e-11 * abs(det_dense)
        assert abs(beta[0] - alpha[-1]) <= 1e-11 * abs(alpha[-1])
        for n in range(fr.size):
            sub = np.linalg.det(dense[: n + 1, : n + 1])
            assert abs(alpha[n] - sub) <= 1e-10 * max(1.0, abs(sub))
        c, e = pivots(fr)
        assert abs(np.prod(c) - det_dense) <= 1e-11 * abs(det_dense)
        assert abs(np.prod(e) - det_dense) <= 1e-11 * abs(det_dense)
        assert np.allclose(c, alpha / np.concatenate(([1.0], alpha[:-1])),
                           rtol=1e-10)
        inv = invert_usmani(fr)
        resid = dense @ inv - np.eye(fr.size)
        assert np.max(np.abs(resid)) < 1e-11 * fr.scale()
        assert np.array_equal(inv, inv.T)


def test_inner_minors_and_identity():
    rng = np.random.default_rng(9)
    for n_def in (3, 4, 5):
        for _ in range(25):
            chain = random_chain(rng, n_defects=n_def)
            fr = assemble_frame(chain, random_upper_omega(rng))
            dense = fr.dense()
            N = n_def
            for j in range(1, N):
                for k in range(j, N):
                    block = dense[j:k + 1, j:k + 1]
                    assert inner_minor(fr, j, k) == pytest.approx(
                        np.linalg.det(block), rel=1e-10, abs=1e-12)
            t1 = inner_minor(fr, 2, N - 1) * inner_minor(fr, 1, N - 2)
            t2 = inner_minor(fr, 2, N - 2) * inner_minor(fr, 1, N - 1)
            rhs = np.prod(fr.gamma[1:N - 1] ** 2) if N >= 3 else 1.0
            # relative to the cancelling terms: the identity subtracts
            # products of comparable magnitude
            gauge = max(abs(t1), abs(t2), abs(rhs))
            assert abs((t1 - t2) - rhs) <= 1e-11 * gauge


def test_inner_minor_bounds():
    rng = np.random.default_rng(3)
    chain = random_chain(rng, n_defects=1)
    fr = assemble_frame(chain, random_upper_omega(rng))
    with pytest.raises(ValueError, match="N >= 2"):
        inner_minor(fr, 1, 1)
    chain = random_chain(rng, n_defects=3)
    fr = assemble_frame(chain, random_upper_omega(rng))
    with pytest.raises(ValueError, match="out of range"):
        inner_minor(fr, 0, 1)
    assert inner_minor(fr, 1, 1) == pytest.approx(fr.diag[1])


def test_singular_frame_raises():
    # mu = mu0 = 0 homogeneous chain: D(omega) -> 0 as omega -> 0
    chain = build_chain({
        "bulk_minus": {"mass": 1.0, "coupling": 1.0, "pinning": 0.0},
        "bulk_plus": {"mass": 1.0, "coupling": 1.0, "pinning": 0.0},
        "defect_mass": [1.0], "defect_pinning": [0.0], "defect_coupling": []})
    fr = assemble_frame(chain, 0.0, side=PLUS_I0)
    with pytest.raises(SingularFrameError) as err:
        invert_usmani(fr)
    assert abs(err.value.det) < 1e-12


def test_pivot_breakdown_reported():
    rng = np.random.default_rng(4)
    chain = random_chain(rng, n_defects=1)
    fr = assemble_frame(chain, random_upper_omega(rng))
    broken = type(fr)(diag=np.array([0.0 + 0j, fr.diag[1]]), gamma=fr.gamma,
                      omega=fr.omega)
    with pytest.raises(PivotBreakdownError) as err:
        pivots(broken)
    assert err.value.index == 0
    ladder_det = leading_minors(broken)[-1]
    assert ladder_det == pytest.approx(-fr.gamma[0] ** 2)


def test_nonvanishing_on_upper_grid_and_decay():
    rng = np.random.default_rng(6)
    for _ in range(5):
        chain = random_chain(rng)
        a = chain.band_top_max
        re = np.linspace(-2 * a, 2 * a, 21)
        im = np.geomspace(1e-2, 10.0, 11)
        mins = []
        for y in im:
            for x in re:
                det, scale = frame_det(assemble_frame(chain, complex(x, y)))
                mins.append(abs(det))
        assert min(mins) > 0.0
        # Usmani inverse decays like |omega|^-2 along the imaginary axis
        norms = []
        for R in (10.0, 20.0, 40.0):
            inv = invert_usmani(assemble_frame(chain, 1j * R))
            norms.append(np.max(np.abs(inv)) * R ** 2)
        assert max(norms) / min(norms) < 1.5


def test_vectorized_ladders_match_scalar_path():
    rng = np.random.default_rng(8)
    chain = random_chain(rng, n_defects=3)
    a = chain.band_top_max
    kmin = min(chain.bulk_minus.kappa, chain.bulk_plus.kappa)
    omegas = np.linspace(kmin + 0.05 * (a - kmin), a - 0.05 * (a - kmin), 17)
    diag, gamma = boundary_diagonals(chain, omegas, PLUS_I0)
    inv = ladder_inverse_entries(diag, gamma)
    for i, w in enumerate(omegas):
        fr = assemble_frame(chain, w, side=PLUS_I0)
        assert np.allclose(fr.diag, diag[:, i], rtol=1e-13, atol=1e-13)
        assert np.allclose(invert_usmani(fr), inv[:, :, i], rtol=1e-10, atol=1e-12)


def test_minor_ladder_convenience():
    rng = np.random.default_rng(10)
    chain = random_chain(rng, n_defects=2)
    fr = assemble_frame(chain, random_upper_omega(rng))
    alpha, beta = leading_minors(fr), trailing_minors(fr)
    c, e = pivots(fr)
    assert alpha[-1] == pytest.approx(beta[0])
    assert np.prod(c) == pytest.approx(alpha[-1])
    assert np.prod(e) == pytest.approx(alpha[-1])
