import math

import numpy as np
import pytest

from chainlab.chain import (LatticeState, build_chain, energy, load_chain,
                            parse_chain_config, state_from_dict, weighted_norm)
from chainlab.errors import ChainConfigError


def unit_spec(**overrides):
    spec = {
        "bulk_minus": {"mass": 1.0, "coupling": 1.0, "pinning": 0.0},
        "bulk_plus": {"mass": 1.0, "coupling": 1.0, "pinning": 0.0},
        "defect_mass": [1.0],
        "defect_pinning": [1.0],
        "defect_coupling": [],
    }
    spec.update(overrides)
    return spec


def test_build_chain_derived_quantities():
    chain = build_chain(unit_spec())
    assert chain.n_defects == 0
    assert chain.bulk_minus.kappa == 0.0
    assert chain.bulk_minus.band_top == pytest.approx(2.0)
    assert chain.is_uniform_bulk


def test_boundary_coupling_aliases():
    spec = unit_spec(defect_mass=[2.0, 3.0], defect_pinning=[0.5, 0.5],
                     defect_coupling=[0.7])
    spec["bulk_minus"]["coupling"] = 1.3
    spec["bulk_plus"]["coupling"] = 1.9
    chain = build_chain(spec)
    # gamma_{-1} = gamma_minus and gamma_N = gamma_plus
    assert chain.bond_coupling(-1) == 1.3
    assert chain.bond_coupling(0) == 0.7
    assert chain.bond_coupling(1) == 1.9


@pytest.mark.parametrize("field,value,message", [
    ("defect_mass", [0.0], "defect_mass[0]"),
    ("defect_mass", [-1.0], "defect_mass[0]"),
    ("defect_pinning", [-0.1], "defect_pinning[0]"),
    ("defect_pinning", [math.nan], "defect_pinning[0]"),
    ("defect_mass", [math.inf], "defect_mass[0]"),
    ("bulk_plus", {"mass": 1.0, "coupling": math.nan, "pinning": 0.0},
     "bulk_plus/coupling"),
])
def test_build_chain_rejects_bad_values(field, value, message):
    with pytest.raises(ChainConfigError, match=__import__("re").escape(message)):
        build_chain(unit_spec(**{field: value}))


def test_build_chain_rejects_bad_lengths():
    with pytest.raises(ChainConfigError, match="defect_coupling"):
        build_chain(unit_spec(defect_mass=[1.0, 1.0], defect_pinning=[0.0, 0.0],
                              defect_coupling=[]))


def test_config_roundtrip(tmp_path):
    text = """
    # two-defect sample
    bulk_minus/mass = 1.0
    bulk_minus/coupling = 1.0
    bulk_minus/pinning = 0.5
    bulk_plus/mass = 2.0
    bulk_plus/coupling = 1.5
    bulk_plus/pinning = 0.0
    defect_mass = 2.0 3.0
    defect_pinning = 1.0 0.0
    defect_coupling = 0.8
    """
    chain = parse_chain_config(text)
    assert chain.n_defects == 1
    assert chain.bulk_plus.mass == 2.0
    assert chain.defect_coupling == (0.8,)
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert load_chain(path).defect_mass == chain.defect_mass


def test_config_rejects_unknown_key():
    with pytest.raises(ChainConfigError, match="unknown key"):
        parse_chain_config("bulk_minus/mass = 1\nwhatever = 2\n")


def test_weighted_norm_examples():
    st = state_from_dict({0: (1.0, 0.0)}, n_lo=-3, n_hi=3)
    assert weighted_norm(st, 2.0) == pytest.approx(1.0)
    assert weighted_norm(st, -5.0) == pytest.approx(1.0)

    zero = LatticeState(-2, np.zeros(5), np.zeros(5))
    assert weighted_norm(zero, 1.0) == 0.0

    st1 = state_from_dict({1: (1.0, 0.0)}, n_lo=-3, n_hi=3)
    assert weighted_norm(st1, -1.0) == pytest.approx(2.0 ** -0.5)


def test_weighted_norm_homogeneous_and_triangle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        lo = int(rng.integers(-6, 0))
        n = int(rng.integers(3, 9))
        a = LatticeState(lo, rng.normal(size=n), rng.normal(size=n))
        b = LatticeState(lo, rng.normal(size=n), rng.normal(size=n))
        c = float(rng.normal())
        alpha = float(rng.uniform(-2, 2))
        scaled = LatticeState(lo, c * a.u, c * a.v)
        assert weighted_norm(scaled, alpha) == pytest.approx(
            abs(c) * weighted_norm(a, alpha))
        summed = LatticeState(lo, a.u + b.u, a.v + b.v)
        assert weighted_norm(summed, alpha) <= (
            weighted_norm(a, alpha) + weighted_norm(b, alpha) + 1e-12)


def test_energy_single_site_example():
    # N=0, gamma=1 both sides, mu_0 = 1, u = delta_0: H = (1 + 1 + 1)/2
    chain = build_chain(unit_spec())
    st = state_from_dict({0: (1.0, 0.0)}, n_lo=-4, n_hi=4)
    assert energy(chain, st) == pytest.approx(1.5)


def test_energy_zero_state_and_positivity():
    chain = build_chain(unit_spec())
    zero = LatticeState(-3, np.zeros(7), np.zeros(7))
    assert energy(chain, zero) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(10):
        st = LatticeState(-5, np.concatenate(([0.0], rng.normal(size=9), [0.0])),
                          np.concatenate(([0.0], rng.normal(size=9), [0.0])))
        assert energy(chain, st) >= 0.0


def test_energy_translation_mode():
    # mu = 0 everywhere: a constant profile costs nothing on interior bonds
    spec = unit_spec(defect_pinning=[0.0])
    chain = build_chain(spec)
    st = LatticeState(-4, np.ones(9), np.zeros(9))
    with pytest.warns(UserWarning, match="truncated"):
        val = energy(chain, st, include_boundary=False)
    assert val == pytest.approx(0.0)


def test_energy_warns_when_support_touches_edge():
    chain = build_chain(unit_spec())
    st = state_from_dict({-2: (1.0, 0.0)}, n_lo=-2, n_hi=2)
    with pytest.warns(UserWarning, match="truncated"):
        energy(chain, st)


def test_local_frequency_bound():
    chain = build_chain(unit_spec())
    # site 0: sqrt((mu0 + 2*1 + 2*1)/1) = sqrt(5)
    assert chain.local_frequency_bound() == pytest.approx(math.sqrt(5.0))
