import json

import numpy as np
import pytest

from uavmec.config import (_BOUNDS, PROFILES, ScenarioConfig, desk_profile,
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
    with pytest.raises(ValueError, match="one initial position per SUAV"):
        desk_profile(suav_initial_positions=((0.0, 0.0),))
    with pytest.raises(ValueError, match="min_separation"):
        desk_profile(suav_initial_positions=((0.0, 0.0), (1.0, 0.0)))


def test_validate_keeps_positions_in_the_service_area():
    """The closed area [0, 500] x [0, 500] of the desk profile bounds the
    SUAVs' initial positions and the LUAV's position."""
    desk_profile(num_suavs=1, suav_initial_positions=((0.0, 0.0),))
    desk_profile(suav_initial_positions=((0.0, 500.0), (500.0, 0.0)),
                 luav_position=(500.0, 500.0))
    desk_profile(luav_position=(0.0, 0.0))
    above = float(np.nextafter(500.0, np.inf))
    for x, y in ((-900.0, 125.0), (-1e-9, 125.0), (125.0, -1e-9),
                 (above, 125.0), (125.0, above)):
        with pytest.raises(ValueError, match="suav_initial_positions"):
            desk_profile(suav_initial_positions=((x, y), (375.0, 375.0)))
        with pytest.raises(ValueError, match="luav_position"):
            desk_profile(luav_position=(x, y))
    with pytest.raises(ValueError, match="luav_position"):
        desk_profile(luav_position=(-2000.0, 250.0))


@pytest.mark.parametrize("name, value", [
    ("mobility_mean_velocity", (3.0,)),
    ("mobility_mean_velocity", ()),
    ("mobility_mean_velocity", (1.0, 0.0, 0.0)),
    ("luav_position", (250.0,)),
    ("suav_initial_positions", ((125.0,), (375.0,))),
    ("suav_initial_positions", ((125.0, 125.0), (375.0, 375.0, 0.0))),
    ("data_bits_range", (1e6,)),
    ("cycles_per_bit_range", (500.0, 1000.0, 1500.0)),
    ("deadline_range", (1.0,)),
], ids=["velocity-one", "velocity-none", "velocity-three", "luav-one",
        "suav-one-each", "suav-three", "data-one", "cycles-three",
        "deadline-one"])
def test_validate_requires_two_entries_per_point_and_range(name, value):
    """A single entry would broadcast over both axes, and any other count
    would fail deep inside a run, so each must have exactly two."""
    with pytest.raises(ValueError, match=f"{name}.* exactly two entries"):
        desk_profile(**{name: value})


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
    coefficients >= 0.  So must the LoS constants (los_c1 = 0 is pure
    LoS)."""
    names = ["sca_tolerance", "prop_speed4", "prop_tip_speed"]
    at_least_zero = ("prop_blade", "prop_induced", "prop_parasite", "los_c1",
                     "los_c2")
    if value == 0.0:
        for name in at_least_zero:
            assert getattr(desk_profile(**{name: value}), name) == 0.0
    else:
        names += at_least_zero
    for name in names:
        with pytest.raises(ValueError, match=name):
            desk_profile(**{name: value})


@pytest.mark.parametrize("name", ["nakagami_los", "nakagami_nlos"])
def test_validate_requires_nakagami_shape_of_at_least_half(name):
    for value in (0.3, 0.49):
        with pytest.raises(ValueError, match=name):
            desk_profile(**{name: value})
    assert getattr(desk_profile(**{name: 0.5}), name) == 0.5


MALFORMED = [
    ("lyapunov_v", "5", "lyapunov_v must be a number"),
    ("gamma_time", None, "gamma_time must be a number"),
    ("expected_fading", 2.5, "expected_fading must be true or false"),
    ("expected_fading", 1, "expected_fading must be true or false"),
    ("mobility_alpha", True, "mobility_alpha must be a number"),
    ("luav_position", ["250", "250"], "luav_position entries must be numbers"),
    ("data_bits_range", [True, 1e6], "data_bits_range entries must be num"),
    ("luav_position", 5, "luav_position must be a tuple"),
    ("suav_initial_positions", [5, 6],
     "each suav_initial_positions entry needs exactly two entries"),
    ("ud_compute_options", "abc", "ud_compute_options must be a tuple"),
    ("budget_compute", "50", "budget_compute must be a number"),
    ("ud_tx_power_dbm", "20", "ud_tx_power must be a number"),
]


@pytest.mark.parametrize("name, value, message", MALFORMED)
def test_validate_rejects_a_value_of_the_wrong_type_by_name(name, value,
                                                             message):
    """Each value must have the type and shape of its field's default, both
    through the profiles and through a JSON-style dict."""
    with pytest.raises(ValueError, match=message):
        desk_profile(**{name: value})
    data = {**desk_profile().to_dict(), name: value}
    if name == "ud_tx_power_dbm":
        del data["ud_tx_power"]
    with pytest.raises(ValueError, match=message):
        ScenarioConfig.from_dict(data)


@pytest.mark.parametrize("overrides, message", [
    ({"ud_compute_options": (1e9, 0.0)}, "ud_compute_options entries .* > 0"),
    ({"ud_compute_options": ()}, "ud_compute_options must not be empty"),
    ({"data_bits_range": (-1.0, 1e6)}, "data_bits_range entries must be >= 0"),
    ({"deadline_range": (2.0, 1.0)}, "deadline_range must satisfy low <= h"),
    ({"mobility_alpha": -0.1}, "mobility_alpha must be >= 0"),
    ({"mobility_alpha": 1.1}, r"mobility_alpha must lie in \[0, 1\]"),
    ({"budget_compute": -1.0}, "per-slot energy budgets must be positive"),
])
def test_validate_bounds_each_value_and_relates_the_pairs(overrides, message):
    with pytest.raises(ValueError, match=message):
        desk_profile(**overrides)


@pytest.mark.parametrize("overrides", [
    {"num_uds": np.int64(5), "seed": np.int64(3)},
    {"lyapunov_v": np.float64(50.0), "gamma_time": np.float64(0.5)},
    {"lyapunov_v": 50, "suav_max_speed": 0, "mobility_alpha": 1},
    {"budget_compute": None, "budget_propulsion": None},
    {"budget_compute": 60, "budget_propulsion": np.float64(210.0)},
    {"mobility_mean_velocity": (-1.0, -2.5)},
    {"deadline_range": (0.5, 0.5), "cycles_per_bit_range": (700.0, 700.0)},
    {"data_bits_range": (0, 0)},
    {"expected_fading": True},
])
def test_validate_accepts_numpy_and_integer_numbers_and_edge_values(
        overrides):
    cfg = desk_profile(**overrides)
    for name, value in overrides.items():
        assert getattr(cfg, name) == value


def test_every_bound_names_a_field():
    assert set(_BOUNDS) < set(ScenarioConfig.__dataclass_fields__)


def test_from_dict_keeps_float_tuple_entries_and_the_digest():
    """Tuples given with integer entries become floats, as JSON lists do,
    so both spellings of a config hash alike."""
    cfg = desk_profile(luav_position=(250, 250), deadline_range=[1, 1])
    assert cfg.luav_position == (250.0, 250.0)
    assert all(isinstance(x, float) for x in cfg.deadline_range)
    assert cfg.digest() == desk_profile().digest()


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
    # through JSON, with every tuple-valued field off its default
    off = desk_profile(
        luav_position=(240.0, 260.0),
        suav_initial_positions=((120.0, 130.0), (370.0, 380.0)),
        mobility_mean_velocity=(0.5, -0.5), data_bits_range=(0.1e6, 0.9e6),
        cycles_per_bit_range=(400.0, 1400.0), deadline_range=(0.5, 1.5),
        ud_compute_options=(1e9, 3e9))
    base = ScenarioConfig()
    tuple_fields = [name for name in ScenarioConfig.__dataclass_fields__
                    if isinstance(getattr(base, name), tuple)]
    assert len(tuple_fields) == 7
    assert all(getattr(off, name) != getattr(base, name)
               for name in tuple_fields)
    again = ScenarioConfig.from_dict(json.loads(json.dumps(off.to_dict())))
    assert again == off and again.digest() == off.digest()
    for name in tuple_fields:
        value = getattr(again, name)
        assert isinstance(value, tuple), name
        assert all(isinstance(v, (tuple, float)) for v in value), name


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
