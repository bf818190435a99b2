import json

import numpy as np
import pytest

from uavmec.config import (PROFILES, ScenarioConfig, desk_profile,
                           load_config, paper_profile)


def test_default_profile_is_self_consistent():
    cfg = paper_profile()
    cfg.validate()
    assert cfg.num_uds == 60
    assert cfg.num_suavs == 4
    assert len(cfg.suav_initial_positions) == cfg.num_suavs


def test_desk_profile_shrinks_the_world():
    cfg = desk_profile()
    cfg.validate()
    assert cfg.num_uds == 20
    assert cfg.num_suavs == 2
    assert cfg.num_slots == 50
    assert cfg.area_width == 500.0


def test_profile_overrides():
    cfg = desk_profile(num_slots=7, lyapunov_v=42.0)
    assert cfg.num_slots == 7
    assert cfg.lyapunov_v == 42.0


def test_validate_rejects_bad_values():
    with pytest.raises(ValueError):
        desk_profile(num_uds=0)
    with pytest.raises(ValueError):
        desk_profile(gamma_time=-0.1)
    with pytest.raises(ValueError):
        desk_profile(suav_initial_positions=((0.0, 0.0),))
    with pytest.raises(ValueError, match="min_separation"):
        desk_profile(suav_initial_positions=((0.0, 0.0), (1.0, 0.0)))


@pytest.mark.parametrize("value", [0, -3, 2.9, 50.0, True, "50"])
def test_validate_rejects_bad_sca_max_iters(value):
    """And every other integer field: counts must be >= 1, the seed >= 0."""
    for name in ("num_uds", "num_suavs", "num_slots", "sca_max_iters",
                 "seed"):
        if name == "seed" and value == 0:
            continue
        with pytest.raises(ValueError, match=name):
            desk_profile(**{name: value})


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_validate_rejects_bad_sca_tolerance(value):
    """And the propulsion coefficients: the hover induced speed (to the
    4th power) and the tip speed must be positive, the three power
    coefficients >= 0."""
    names = ["sca_tolerance", "prop_speed4", "prop_tip_speed"]
    if value == 0.0:
        for name in ("prop_blade", "prop_induced", "prop_parasite"):
            assert getattr(desk_profile(**{name: value}), name) == 0.0
    else:
        names += ["prop_blade", "prop_induced", "prop_parasite"]
    for name in names:
        with pytest.raises(ValueError, match=name):
            desk_profile(**{name: value})


@pytest.mark.parametrize("name", ["nakagami_los", "nakagami_nlos"])
def test_validate_requires_nakagami_shape_of_at_least_half(name):
    for value in (0.3, 0.49):
        with pytest.raises(ValueError, match=name):
            desk_profile(**{name: value})
    assert getattr(desk_profile(**{name: 0.5}), name) == 0.5


def test_validate_accepts_integer_sca_max_iters():
    assert desk_profile(sca_max_iters=1).sca_max_iters == 1
    assert desk_profile(sca_max_iters=np.int64(7)).sca_max_iters == 7


def test_from_dict_converts_log_scale_keys():
    cfg = desk_profile(ud_tx_power_dbm=20.0, noise_power_dbm=-98.0)
    assert cfg.ud_tx_power == pytest.approx(0.1)
    with pytest.raises(ValueError, match="not both"):
        desk_profile(ud_tx_power=0.1, ud_tx_power_dbm=20.0)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ScenarioConfig.from_dict({"num_udds": 10})


def test_round_trip_and_digest_stability():
    cfg = desk_profile(seed=3)
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.digest() == cfg.digest()
    assert desk_profile(seed=4).digest() != cfg.digest()


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(desk_profile(num_slots=3).to_dict()))
    cfg = load_config(str(path))
    assert cfg.num_slots == 3
    assert cfg.num_uds == 20


def test_budget_split_covers_hover_and_sums_to_budget():
    cfg = desk_profile()
    e_c, e_p = cfg.budget_split()
    assert e_c > 0 and e_p > 0
    assert e_c + e_p == pytest.approx(cfg.suav_energy_budget)
    assert e_p >= cfg.hover_power() * cfg.slot_duration


def test_budget_split_explicit_override():
    cfg = desk_profile(budget_compute=100.0, budget_propulsion=150.0)
    assert cfg.budget_split() == (100.0, 150.0)


def test_profiles_registry():
    assert set(PROFILES) == {"desk", "paper"}


FLOAT_FIELDS = [name for name, value in ScenarioConfig().to_dict().items()
                if isinstance(value, float)]
TUPLE_FIELDS = [name for name, value in ScenarioConfig().to_dict().items()
                if isinstance(value, list)]


def test_every_float_and_tuple_field_is_checked():
    assert {"suav_max_speed", "min_separation", "lyapunov_v", "suav_compute",
            "mobility_sigma", "gamma_time"} <= set(FLOAT_FIELDS)
    assert len(FLOAT_FIELDS) + len(TUPLE_FIELDS) >= 40


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_validate_rejects_non_finite_float_fields(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        desk_profile(**{name: value})


@pytest.mark.parametrize("name", TUPLE_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_validate_rejects_non_finite_tuple_entries(name, value):
    entries = desk_profile().to_dict()[name]
    if isinstance(entries[-1], list):       # suav_initial_positions
        entries[-1] = [entries[-1][0], value]
    else:
        entries[-1] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        desk_profile(**{name: entries})


@pytest.mark.parametrize("name", ["budget_propulsion", "budget_compute"])
def test_budget_overrides_may_be_none_but_not_non_finite(name):
    assert getattr(desk_profile(**{name: None}), name) is None
    assert getattr(desk_profile(**{name: 100.0}), name) == 100.0
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            desk_profile(**{name: value})
