import math
import re

import numpy as np
import pytest

from chainlab import bundled_chain
from chainlab.classify import (KIND_C, KIND_C0, KIND_RESONANCE, RES_REAL_ZERO,
                               RES_ZERO_MODE, classify, classify_n0,
                               find_spectral_zero, k_functions, k_minus,
                               k_plus, k_zero, kbar_squared, real_axis_det)
from chainlab.dispersion import DispersionBranch, theta_branch
from chainlab.errors import UnsupportedConfigurationError
from chainlab.jacobi import MODE_AT_KAPPA, MODE_AT_TOP, assemble_frame, pivots, leading_minors

from util import make_chain, random_uniform_chain, uniform_chain


# ---------------------------------------------------------------------------
# K functions


def test_k_functions_examples():
    chain = make_chain(mu_minus=0.5, mu_plus=1.0, defect_pinning=(0.3,))
    kp = chain.bulk_plus.kappa
    ap = chain.bulk_plus.band_top
    kb2 = kbar_squared(chain)
    assert k_zero(chain, kp) == pytest.approx(kb2)
    assert k_plus(chain, ap) == pytest.approx(kb2)
    assert k_minus(chain, chain.bulk_minus.band_top) == pytest.approx(kb2)
    assert k_zero(chain, 0.0) == pytest.approx(kb2 - 0.5 * kp * ap)


def test_k_functions_domains():
    chain = make_chain(mu_minus=0.5, mu_plus=1.0, defect_pinning=(0.3,))
    with pytest.raises(ValueError, match="kappa_"):
        k_zero(chain, chain.bulk_plus.kappa + 0.1)
    with pytest.raises(ValueError, match="a ="):
        k_plus(chain, 0.5 * chain.bulk_plus.band_top)
    defined = k_functions(chain, 0.0)
    assert set(defined) == {"K0"}
    defined_hi = k_functions(chain, 10.0)
    assert set(defined_hi) == {"K-", "K+"}


# ---------------------------------------------------------------------------
# N = 0 classification


def test_p1_condition_c_example():
    chain = uniform_chain(m=1.0, gamma=1.0, mu=0.0,
                          defect_mass=(2.0,), defect_pinning=(1.0,))
    v = classify(chain)
    assert v.kind == KIND_C
    assert v.decay_beta == 3
    assert v.trail


def test_p1_zero_mode_resonance():
    chain = uniform_chain(defect_mass=(2.0,), defect_pinning=(0.0,))
    v = classify(chain)
    assert v.kind == KIND_RESONANCE
    assert v.resonance_kind == RES_ZERO_MODE


def test_p1_c0_equality_cases():
    # (iii): mu0/m0 > mu/m with a_0 = a exactly: mu0 = 4 gamma (m0 - m)/m
    m0 = 2.0
    mu0 = 4.0 * (m0 - 1.0)
    chain = uniform_chain(m=1.0, gamma=1.0, mu=0.0,
                          defect_mass=(m0,), defect_pinning=(mu0,))
    v = classify(chain)
    assert v.kind == KIND_C0
    assert v.decay_beta == 1
    assert v.c0_witness == pytest.approx(chain.bulk_minus.band_top)

    # (ii): mu0/m0 = mu/m with m0 > m: witness at kappa
    chain2 = uniform_chain(m=1.0, gamma=1.0, mu=1.0,
                           defect_mass=(2.0,), defect_pinning=(2.0,))
    v2 = classify(chain2)
    assert v2.kind == KIND_C0
    assert v2.c0_witness == pytest.approx(1.0)

    # (i): fully homogeneous pinned chain: witnesses at both edges
    chain3 = uniform_chain(m=1.0, gamma=1.0, mu=0.5,
                           defect_mass=(1.0,), defect_pinning=(0.5,))
    v3 = classify(chain3)
    assert v3.kind == KIND_C0
    assert len(v3.c0_witnesses) == 2


def test_p2_condition_c_example():
    # kappa_+- = 0, nu_- != nu_+, mu0 in (0, 2 max(nu) sqrt|nu_-^2 - nu_+^2|)
    chain = make_chain(g_minus=1.0, g_plus=0.5, defect_pinning=(0.5,))
    assert chain.bulk_minus.nu != chain.bulk_plus.nu
    bound = 2.0 * 1.0 * math.sqrt(1.0 - 0.5)
    assert 0.0 < 0.5 < bound
    v = classify(chain)
    assert v.kind == KIND_C


def test_p2_c0_particular_cases():
    # equal pinning, unequal couplings: the borderline pinned defect sits at
    # mu0 = kappa^2 + 2 max(nu) sqrt|nu_-^2 - nu_+^2| (upper-edge witness)
    mu = 0.25
    g_minus, g_plus = 1.0, 0.49
    mu0 = mu + 2.0 * 1.0 * math.sqrt(1.0 - 0.49)
    chain = make_chain(m_minus=1.0, g_minus=g_minus, mu_minus=mu,
                       m_plus=1.0, g_plus=g_plus, mu_plus=mu,
                       defect_mass=(1.0,), defect_pinning=(mu0,))
    v = classify(chain)
    assert v.kind == KIND_C0
    assert v.c0_witness == pytest.approx(chain.bulk_minus.band_top)

    # same bulk pinning with mu_0 = mean squared pinning: lower-edge witness
    chain2 = make_chain(m_minus=1.0, g_minus=g_minus, mu_minus=mu,
                        m_plus=1.0, g_plus=g_plus, mu_plus=mu,
                        defect_mass=(1.0,), defect_pinning=(mu,))
    v2 = classify(chain2)
    assert v2.kind == KIND_C0
    assert v2.c0_witness == pytest.approx(chain2.bulk_minus.kappa)


def test_p3_condition_c():
    chain = make_chain(m_minus=1.0, m_plus=1.5, defect_mass=(2.0,),
                       defect_pinning=(1.0,))
    v = classify(chain)
    assert v.kind == KIND_C


def test_p1_real_zero_resonances():
    # (R2): (mu0, mu) != (0, 0) and a_0 > a via light defect
    chain = uniform_chain(m=1.0, gamma=1.0, mu=1.0,
                          defect_mass=(0.5,), defect_pinning=(0.5,))
    v = classify(chain)
    assert v.kind == KIND_RESONANCE
    assert v.resonance_kind == RES_REAL_ZERO
    a = chain.bulk_minus.band_top
    assert v.omega_star is not None and v.omega_star > a
    assert abs(real_axis_det(chain, v.omega_star)) < 1e-10
    th = theta_branch(DispersionBranch.from_side(chain.bulk_minus), v.omega_star,
                      "plus_i0")
    assert th.real == pytest.approx(math.pi)
    assert th.imag > 0.0

    # (R3): kappa_0 < kappa: zero below the band
    chain3 = uniform_chain(m=1.0, gamma=1.0, mu=2.0,
                           defect_mass=(1.0,), defect_pinning=(0.5,))
    v3 = classify(chain3)
    assert v3.kind == KIND_RESONANCE
    assert v3.resonance_kind == RES_REAL_ZERO
    assert 0.0 < v3.omega_star < chain3.bulk_minus.kappa


def test_find_spectral_zero_none_for_condition_c():
    chain = uniform_chain(m=1.0, gamma=1.0, mu=0.0,
                          defect_mass=(2.0,), defect_pinning=(1.0,))
    assert find_spectral_zero(chain) is None


def test_general_bulk_gap_chain():
    # disjoint bands: a_- < kappa_+ produces a between-band gap
    chain = make_chain(m_minus=1.0, g_minus=0.25, mu_minus=0.0,
                       m_plus=1.0, g_plus=1.0, mu_plus=9.0,
                       defect_mass=(1.0,), defect_pinning=(2.0,))
    am = chain.bulk_minus.band_top
    kp = chain.bulk_plus.kappa
    assert am < kp
    v = classify(chain)
    assert v.kind in (KIND_C, KIND_C0, KIND_RESONANCE)
    # whatever the verdict, it must be consistent with the root finder
    star = find_spectral_zero(chain)
    if v.kind == KIND_C:
        assert star is None
    if v.kind == KIND_RESONANCE and v.resonance_kind == RES_REAL_ZERO:
        assert star is not None


# ---------------------------------------------------------------------------
# N >= 1 classification


def n2_uniform_c_chain():
    return uniform_chain(m=1.0, gamma=1.0, mu=1.0,
                         defect_mass=(2.0, 2.0, 2.0),
                         defect_pinning=(3.0, 3.0, 3.0),
                         defect_coupling=(1.0, 1.0))


def test_n2_condition_c_with_dense_definiteness_oracle():
    chain = n2_uniform_c_chain()
    v = classify(chain)
    assert v.kind == KIND_C
    d_a = assemble_frame(chain, mode=MODE_AT_TOP).dense().real
    d_k = assemble_frame(chain, mode=MODE_AT_KAPPA).dense().real
    assert np.max(np.linalg.eigvalsh(d_a)) < 0.0
    assert np.min(np.linalg.eigvalsh(d_k)) > 0.0


def test_n1_all_mu_zero_is_zero_mode():
    chain = uniform_chain(m=1.0, gamma=1.0, mu=0.0,
                          defect_mass=(1.3, 0.8), defect_pinning=(0.0, 0.0),
                          defect_coupling=(1.2,))
    v = classify(chain)
    assert v.kind == KIND_RESONANCE
    assert v.resonance_kind == RES_ZERO_MODE


def test_n1_c0_lower_edge_ladder():
    # det D(kappa) = 0 with positive interior minor and D(a) negative definite
    chain = uniform_chain(m=1.0, gamma=1.0, mu=1.0,
                          defect_mass=(2.0, 4.0 / 3.0),
                          defect_pinning=(2.5, 1.0), defect_coupling=(1.0,))
    v = classify(chain)
    assert v.kind == KIND_C0
    assert v.c0_witness == pytest.approx(1.0)
    # cross-check definiteness of the other edge densely
    d_a = assemble_frame(chain, mode=MODE_AT_TOP).dense().real
    assert np.max(np.linalg.eigvalsh(d_a)) < 0.0


def test_n1_c0_band_top_ladder():
    # mu = 0 branch: pinned defects with det D(a) = 0 exactly
    chain = uniform_chain(m=1.0, gamma=1.0, mu=0.0,
                          defect_mass=(1.0, 1.5), defect_pinning=(0.5, 1.0),
                          defect_coupling=(1.0,))
    v = classify(chain)
    assert v.kind == KIND_C0
    assert v.c0_witness == pytest.approx(2.0)


def test_n1_real_zero_resonance():
    chain = uniform_chain(m=1.0, gamma=1.0, mu=0.0,
                          defect_mass=(0.5, 1.0), defect_pinning=(1.0, 0.0),
                          defect_coupling=(1.0,))
    v = classify(chain)
    assert v.kind == KIND_RESONANCE
    assert v.resonance_kind == RES_REAL_ZERO
    assert v.omega_star > chain.bulk_minus.band_top
    assert abs(real_axis_det(chain, v.omega_star)) < 1e-10


def test_exact_boundary_chains_agree_across_paths():
    # chains constructed exactly on the C0 boundaries must land in C0 through
    # both the endpoint evaluation and the specialized inequality systems
    rng = np.random.default_rng(99)
    for _ in range(40):
        m = float(rng.uniform(0.5, 2.0))
        gam = float(rng.uniform(0.5, 2.0))
        m0 = m * float(rng.uniform(1.05, 2.5))
        # (iii): mu0/m0 - mu/m + 4 gamma (1/m0 - 1/m) = 0 with mu = 0
        mu0 = 4.0 * gam * m0 * (1.0 / m - 1.0 / m0)
        chain = uniform_chain(m=m, gamma=gam, mu=0.0,
                              defect_mass=(m0,), defect_pinning=(mu0,))
        v = classify_n0(chain)
        assert v.kind == KIND_C0, (m, gam, m0, mu0)
    for _ in range(40):
        m = float(rng.uniform(0.5, 2.0))
        gam = float(rng.uniform(0.5, 2.0))
        mu = float(rng.uniform(0.2, 2.0))
        m0 = m * float(rng.uniform(1.05, 2.5))
        # (ii): mu0/m0 = mu/m with m0 > m
        mu0 = mu * m0 / m
        chain = uniform_chain(m=m, gamma=gam, mu=mu,
                              defect_mass=(m0,), defect_pinning=(mu0,))
        v = classify_n0(chain)
        assert v.kind == KIND_C0, (m, gam, mu, m0)


def test_nonuniform_bulk_rejected_for_n_ge_1():
    chain = make_chain(m_plus=2.0, defect_mass=(1.0, 1.0),
                       defect_pinning=(0.0, 0.0), defect_coupling=(1.0,))
    with pytest.raises(UnsupportedConfigurationError):
        classify(chain)


def test_remark_necessary_mass_conditions():
    rng = np.random.default_rng(21)
    seen = 0
    for _ in range(200):
        chain = random_uniform_chain(rng, n_defects=int(rng.integers(1, 4)))
        try:
            v = classify(chain)
        except UnsupportedConfigurationError:
            continue
        if v.kind in (KIND_C, KIND_C0):
            seen += 1
            m = chain.bulk_minus.mass
            assert chain.defect_mass[0] > 0.5 * m
            assert chain.defect_mass[-1] > 0.5 * m
    assert seen > 0


def eval_a2_eigen(chain):
    """(A2): sign of det on |omega| > a, decided by the edge spectrum."""
    dense = assemble_frame(chain, mode=MODE_AT_TOP).dense().real
    lam = np.linalg.eigvalsh(dense)
    return bool(np.max(lam) <= 0.0)


def eval_a3_grid(chain, n_grid=160):
    a = chain.bulk_minus.band_top
    omegas = np.linspace(a + 1e-9, 2.0 * a + 1.0, n_grid)
    for w in omegas:
        fr = assemble_frame(chain, w, side="plus_i0")
        alpha = leading_minors(fr).real
        signs = alpha * (-1.0) ** np.arange(len(alpha))
        if np.any(signs >= 0.0):
            return False
    return True


def eval_a6_edge(chain):
    fr = assemble_frame(chain, mode=MODE_AT_TOP)
    alpha = leading_minors(fr).real
    n = len(alpha) - 1
    signs = alpha[:-1] * (-1.0) ** np.arange(n)
    return bool(np.all(signs < 0.0) and alpha[-1] * (-1.0) ** n <= 0.0)


def test_lemma_equivalences_above_band():
    rng = np.random.default_rng(17)
    agree_true = 0
    for _ in range(60):
        chain = random_uniform_chain(rng, n_defects=int(rng.integers(1, 5)))
        a2 = eval_a2_eigen(chain)
        a3 = eval_a3_grid(chain)
        a6 = eval_a6_edge(chain)
        assert a2 == a3 == a6
        agree_true += a2
    assert 0 < agree_true < 60


def test_lemma_positivity_at_zero():
    # kappa != 0: all pivots and minors of D(0) are positive
    rng = np.random.default_rng(23)
    for _ in range(40):
        chain = random_uniform_chain(rng, n_defects=int(rng.integers(0, 4)),
                                     pinned_bulk=True)
        fr = assemble_frame(chain, 0.0)
        alpha = leading_minors(fr)
        assert np.all(alpha.real > 0.0)
        assert np.max(np.abs(alpha.imag)) < 1e-12 * np.max(np.abs(alpha.real))
        c, e = pivots(fr)
        assert np.all(c.real > 0.0)


def test_classifier_exhaustive_and_exclusive():
    rng = np.random.default_rng(31)
    for _ in range(150):
        n_def = int(rng.integers(0, 3))
        chain = random_uniform_chain(rng, n_defects=n_def)
        v = classify(chain)
        assert v.kind in (KIND_C, KIND_C0, KIND_RESONANCE)
        assert (v.kind == KIND_C0) == (v.c0_witness is not None)
        assert (v.kind == KIND_RESONANCE) == (v.resonance_kind is not None)
        assert v.trail
        if v.kind == KIND_C:
            assert v.decay_beta == 3
            assert find_spectral_zero(chain) is None
        elif v.kind == KIND_C0:
            assert v.decay_beta == 1
        elif v.resonance_kind == RES_REAL_ZERO:
            assert v.omega_star is not None


def test_specialized_paths_agree_on_random_patterns():
    rng = np.random.default_rng(5)
    # P1 pattern
    for _ in range(120):
        chain = uniform_chain(
            m=float(rng.uniform(0.5, 2.0)), gamma=float(rng.uniform(0.5, 2.0)),
            mu=float(rng.choice([0.0, rng.uniform(0.1, 2.0)])),
            defect_mass=(float(rng.uniform(0.3, 3.0)),),
            defect_pinning=(float(rng.choice([0.0, rng.uniform(0.1, 3.0)])),))
        classify_n0(chain)  # raises on disagreement
    # P2 pattern
    for _ in range(120):
        chain = make_chain(
            m_minus=1.0, g_minus=float(rng.uniform(0.3, 2.0)),
            mu_minus=float(rng.choice([0.0, rng.uniform(0.1, 2.0)])),
            m_plus=1.0, g_plus=float(rng.uniform(0.3, 2.0)),
            mu_plus=float(rng.choice([0.0, rng.uniform(0.1, 2.0)])),
            defect_mass=(1.0,),
            defect_pinning=(float(rng.choice([0.0, rng.uniform(0.1, 3.0)])),))
        classify_n0(chain)
    # P3 pattern
    for _ in range(120):
        chain = make_chain(
            m_minus=float(rng.uniform(0.5, 2.0)), g_minus=float(rng.uniform(0.3, 2.0)),
            m_plus=float(rng.uniform(0.5, 2.0)), g_plus=float(rng.uniform(0.3, 2.0)),
            defect_mass=(float(rng.uniform(0.3, 3.0)),),
            defect_pinning=(float(rng.uniform(0.05, 3.0)),))
        classify_n0(chain)


def test_verdict_describe_contains_trail():
    chain = uniform_chain(defect_mass=(2.0,), defect_pinning=(1.0,))
    text = classify(chain).describe()
    assert "kind: C" in text
    assert "trail:" in text


@pytest.mark.parametrize("name", ["n2_uniform_c", "r1_zero_mode_n1"])
def test_verdict_numbers_print_the_same_under_any_numpy(name):
    # NumPy 2 scalars repr as np.float64(...); the text must hold plain floats
    text = classify(bundled_chain(name)).describe()
    assert "np." not in text
    values = re.findall(r"value=(\S+)", text)
    assert values
    for field in values:
        float(field)
