import numpy as np
import pytest

from uavmec import compute as cm
from uavmec.config import desk_profile
from uavmec.verification import (edge_delay, edge_ud_energy, local_delay,
                                 local_energy)

PROP = dict(c1=79.86, c2=21.99, c3=263.85, c4=0.00924, tip_speed=120.0)


def test_local_formulas():
    assert local_delay(1e6, 1000.0, 2e9) == pytest.approx(0.5)
    assert local_energy(1e6, 1000.0, 2e9, 1e-28) \
        == pytest.approx(1e-28 * (2e9) ** 2 * 1e9)


def test_edge_delay_splits_into_transmission_and_execution():
    d, eta = 5e5, 800.0
    rate, f_alloc = 2e6, 4e9
    assert edge_delay(d, eta, rate, f_alloc) \
        == pytest.approx(d / rate + eta * d / f_alloc)
    assert edge_delay(0.0, eta, rate, f_alloc) == 0.0
    with pytest.raises(ValueError):
        edge_delay(d, eta, 0.0, f_alloc)
    with pytest.raises(ValueError):
        edge_delay(d, eta, rate, 0.0)


def test_edge_ud_energy():
    assert edge_ud_energy(5e5, 2e6, 0.1) == pytest.approx(0.025)
    assert edge_ud_energy(0.0, 2e6, 0.1) == 0.0
    with pytest.raises(ValueError):
        edge_ud_energy(5e5, 0.0, 0.1)


def test_propulsion_power_at_hover_and_shape():
    p0 = cm.propulsion_power(0.0, **PROP)
    assert p0 == pytest.approx(PROP["c1"] + PROP["c2"] * PROP["c3"] ** 0.25)
    v = np.linspace(0.0, 30.0, 301)
    p = cm.propulsion_power(v, **PROP)
    # classic rotary-wing bowl: dips below hover, then climbs past it
    assert p.min() < p0
    assert p[-1] > p0
    v_star = v[np.argmin(p)]
    assert 5.0 < v_star < 20.0


def test_propulsion_matches_config_hover_power():
    cfg = desk_profile()
    assert cm.propulsion_power(0.0, cfg.prop_blade, cfg.prop_induced,
                               cfg.prop_speed4, cfg.prop_parasite,
                               cfg.prop_tip_speed) \
        == pytest.approx(cfg.hover_power())


def test_induced_speed_identity():
    """xi(v) solves c3/xi^2 = xi^2 + v^2, the slack-tightness identity."""
    v = np.linspace(0.0, 30.0, 61)
    xi = cm.induced_speed_term(v, PROP["c3"])
    np.testing.assert_allclose(PROP["c3"] / xi ** 2, xi ** 2 + v ** 2,
                               rtol=1e-12)


def test_slot_suav_energy_charges_compute_and_propulsion():
    cfg = desk_profile()
    e_c, e_p = cm.slot_suav_energy(1e9, 10.0, cfg)
    assert e_c == pytest.approx(cfg.suav_energy_per_cycle * 1e9)
    assert e_p == pytest.approx(
        cm.propulsion_power(10.0, cfg.prop_blade, cfg.prop_induced,
                            cfg.prop_speed4, cfg.prop_parasite,
                            cfg.prop_tip_speed) * cfg.slot_duration)
    with pytest.raises(ValueError, match="exceeds limit"):
        cm.slot_suav_energy(0.0, cfg.suav_max_speed + 0.1, cfg)
    # the fleet's arrays give each SUAV's scalar call, bit for bit
    cycles = np.array([1.0e9, 3.7e8])
    speeds = np.array([10.0, 17.3])
    e_c, e_p = cm.slot_suav_energy(cycles, speeds, cfg)
    for n in range(2):
        assert (e_c[n], e_p[n]) == cm.slot_suav_energy(cycles[n], speeds[n],
                                                       cfg)
    with pytest.raises(ValueError, match="SUAV 1 speed"):
        cm.slot_suav_energy(cycles, [10.0, cfg.suav_max_speed + 0.1], cfg)


def test_ud_cost_is_the_weighted_sum():
    assert cm.ud_cost(0.5, 0.2, 0.7, 0.3) == pytest.approx(0.41)
    np.testing.assert_allclose(
        cm.ud_cost(np.array([1.0, 2.0]), np.array([0.0, 1.0]), 0.7, 0.3),
        [0.7, 1.7])
