"""Scenario configuration: physical constants, fleet layout, task statistics.

All quantities are stored in SI units (W, Hz, bits, J, m, s).  dBm / dB inputs
are converted once, at load time, so the rest of the code never sees log-scale
values.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# Rotary-wing propulsion constants (blade profile, induced, parasite terms)
# for a ~2 kg rotorcraft at sea level.
PROP_BLADE_POWER = 79.86      # W
PROP_INDUCED_POWER = 21.99    # W / (m/s)^... multiplies the induced-speed term
PROP_INDUCED_SPEED4 = 263.85  # m^4/s^4  (hover induced speed to the 4th power)
PROP_PARASITE_COEFF = 0.00924  # kg/m
PROP_TIP_SPEED = 120.0        # m/s


def _all_finite(value) -> bool:
    """False if ``value``, or any entry of a (nested) tuple or list, is a
    non-finite float; integers, non-numbers and ``None`` count as finite."""
    if isinstance(value, (tuple, list)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, numbers.Real) \
            and not isinstance(value, numbers.Integral):
        return math.isfinite(value)
    return True


@dataclass
class ScenarioConfig:
    """Full description of one simulated system.

    Defaults reproduce the large-scale evaluation scenario: 60 user devices
    (UDs) in a 1000 m square, four serving UAVs (SUAVs) at 100 m altitude plus
    one loitering UAV (LUAV) parked over the center at 300 m.
    """

    # --- fleet / area ---
    num_uds: int = 60
    num_suavs: int = 4
    area_width: float = 1000.0
    area_height: float = 1000.0
    suav_altitude: float = 100.0
    luav_altitude: float = 300.0
    luav_position: tuple[float, float] = (500.0, 500.0)
    suav_initial_positions: tuple[tuple[float, float], ...] = (
        (100.0, 100.0), (100.0, 900.0), (900.0, 900.0), (900.0, 100.0))
    suav_max_speed: float = 25.0      # m/s
    min_separation: float = 10.0      # m

    # --- time ---
    num_slots: int = 100
    slot_duration: float = 1.0        # s

    # --- servers ---
    suav_compute: float = 20e9        # cycles/s
    luav_compute: float = 30e9
    suav_bandwidth: float = 5e6       # Hz
    luav_bandwidth: float = 10e6

    # --- radio (linear units; see from_dict for dB/dBm keys) ---
    ud_tx_power: float = dbm_to_watt(20.0)     # 0.1 W
    noise_power: float = dbm_to_watt(-98.0)    # W
    carrier_frequency: float = 2e9             # Hz
    los_c1: float = 10.0
    los_c2: float = 0.6
    attenuation_los: float = db_to_linear(1.0)
    attenuation_nlos: float = db_to_linear(20.0)
    nakagami_los: float = 3.0
    nakagami_nlos: float = 1.0
    mean_channel_power: float = 1.0
    expected_fading: bool = False   # use E[|h|^2] instead of per-slot draws
                                    # when pricing trajectory decisions

    # --- computing energy ---
    effective_capacitance: float = 1e-28   # k, J/(cycle Hz^2)
    suav_energy_per_cycle: float = 8.2e-9  # J/cycle

    # --- propulsion ---
    prop_blade: float = PROP_BLADE_POWER
    prop_induced: float = PROP_INDUCED_POWER
    prop_speed4: float = PROP_INDUCED_SPEED4
    prop_parasite: float = PROP_PARASITE_COEFF
    prop_tip_speed: float = PROP_TIP_SPEED

    # --- mobility (Gauss-Markov) ---
    mobility_alpha: float = 0.9
    mobility_mean_velocity: tuple[float, float] = (1.0, 0.0)  # m/s
    mobility_sigma: float = 2.0                               # m/s per axis

    # --- tasks ---
    data_bits_range: tuple[float, float] = (0.2e6, 1.0e6)
    cycles_per_bit_range: tuple[float, float] = (500.0, 1500.0)
    deadline_range: tuple[float, float] = (1.0, 1.0)
    ud_compute_options: tuple[float, ...] = (1e9, 1.5e9, 2e9)

    # --- objective weights ---
    gamma_time: float = 0.7
    gamma_energy: float = 0.3

    # --- online control ---
    lyapunov_v: float = 500.0
    suav_energy_budget: float = 280.0   # J per slot (total, split below)
    budget_propulsion: float | None = None  # override; default 1.2x hover
    budget_compute: float | None = None     # override; default = remainder
    sca_tolerance: float = 0.01
    sca_max_iters: int = 50

    # --- reproducibility ---
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        # NaN passes every comparison below, so reject it (and +-inf) first
        for name in self.__dataclass_fields__:
            if not _all_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name, low in (("num_uds", 1), ("num_suavs", 1), ("num_slots", 1),
                          ("sca_max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)
                    or value < low):
                raise ValueError(f"{name} must be an integer >= {low}")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if self.area_width <= 0 or self.area_height <= 0:
            raise ValueError("area dimensions must be positive")
        if len(self.suav_initial_positions) != self.num_suavs:
            raise ValueError("need one initial position per SUAV")
        if self.suav_max_speed < 0:
            raise ValueError("suav_max_speed must be >= 0")
        if self.min_separation < 0:
            raise ValueError("min_separation must be >= 0")
        pos = np.asarray(self.suav_initial_positions, dtype=float)
        for i in range(self.num_suavs):
            for j in range(i + 1, self.num_suavs):
                if np.linalg.norm(pos[i] - pos[j]) < self.min_separation:
                    raise ValueError(
                        "initial SUAV positions closer than min_separation")
        for name in ("suav_compute", "luav_compute", "suav_bandwidth",
                     "luav_bandwidth", "ud_tx_power", "noise_power",
                     "carrier_frequency", "attenuation_los",
                     "attenuation_nlos", "nakagami_los", "nakagami_nlos",
                     "mean_channel_power", "effective_capacitance",
                     "suav_energy_per_cycle", "suav_altitude",
                     "luav_altitude", "prop_speed4", "prop_tip_speed"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("prop_blade", "prop_induced", "prop_parasite"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("nakagami_los", "nakagami_nlos"):
            if getattr(self, name) < 0.5:   # Nakagami-m needs m >= 0.5
                raise ValueError(f"{name} must be >= 0.5")
        if not 0.0 <= self.mobility_alpha <= 1.0:
            raise ValueError("mobility_alpha must lie in [0, 1]")
        if self.mobility_sigma < 0:
            raise ValueError("mobility_sigma must be >= 0")
        for name in ("data_bits_range", "cycles_per_bit_range",
                     "deadline_range"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValueError(f"{name} must satisfy 0 <= low <= high")
        if not self.ud_compute_options:
            raise ValueError("ud_compute_options must not be empty")
        if any(f <= 0 for f in self.ud_compute_options):
            raise ValueError("ud_compute_options must be positive")
        if self.gamma_time < 0 or self.gamma_energy < 0:
            raise ValueError("objective weights must be >= 0")
        if self.lyapunov_v <= 0:
            raise ValueError("lyapunov_v must be positive")
        if self.suav_energy_budget <= 0:
            raise ValueError("suav_energy_budget must be positive")
        if not (math.isfinite(self.sca_tolerance) and self.sca_tolerance > 0):
            raise ValueError("sca_tolerance must be finite and positive")
        eb_c, eb_p = self.budget_split()
        if eb_c <= 0 or eb_p <= 0:
            raise ValueError("per-slot energy budgets must be positive; "
                             "raise suav_energy_budget")

    # ------------------------------------------------------------------
    def hover_power(self) -> float:
        """Propulsion power at zero speed (blade + induced terms)."""
        return self.prop_blade + self.prop_induced * self.prop_speed4 ** 0.25

    def budget_split(self) -> tuple[float, float]:
        """Per-slot (compute, propulsion) energy budgets in joules.

        Unless overridden, propulsion gets 1.2x the hover energy of one slot
        (headroom so the propulsion queue can drain after repositioning) and
        compute gets the remainder of ``suav_energy_budget``.
        """
        if self.budget_propulsion is not None:
            eb_p = float(self.budget_propulsion)
        else:
            eb_p = 1.2 * self.hover_power() * self.slot_duration
        if self.budget_compute is not None:
            eb_c = float(self.budget_compute)
        else:
            eb_c = self.suav_energy_budget - eb_p
        return eb_c, eb_p

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d = asdict(self)
        d["suav_initial_positions"] = [list(p)
                                       for p in self.suav_initial_positions]
        d["luav_position"] = list(self.luav_position)
        d["mobility_mean_velocity"] = list(self.mobility_mean_velocity)
        d["ud_compute_options"] = list(self.ud_compute_options)
        for name in ("data_bits_range", "cycles_per_bit_range",
                     "deadline_range"):
            d[name] = list(getattr(self, name))
        return d

    def digest(self) -> str:
        """Stable hash of the configuration (used in run metadata)."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Build a config from a JSON-style dict.

        Log-scale convenience keys (``ud_tx_power_dbm``, ``noise_power_dbm``,
        ``attenuation_los_db``, ``attenuation_nlos_db``) are converted to
        linear units here and must not be combined with their linear
        counterparts.
        """
        data = dict(data)
        conversions = {
            "ud_tx_power_dbm": ("ud_tx_power", dbm_to_watt),
            "noise_power_dbm": ("noise_power", dbm_to_watt),
            "attenuation_los_db": ("attenuation_los", db_to_linear),
            "attenuation_nlos_db": ("attenuation_nlos", db_to_linear),
        }
        for key, (target, conv) in conversions.items():
            if key in data:
                if target in data:
                    raise ValueError(f"give either {key} or {target}, not both")
                data[target] = conv(data.pop(key))
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for name in ("suav_initial_positions",):
            if name in data:
                data[name] = tuple(tuple(map(float, p)) for p in data[name])
        for name in ("luav_position", "mobility_mean_velocity",
                     "data_bits_range", "cycles_per_bit_range",
                     "deadline_range", "ud_compute_options"):
            if name in data:
                data[name] = tuple(float(x) for x in data[name])
        return cls(**data)


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ScenarioConfig.from_dict(json.load(fh))


def paper_profile(**overrides) -> ScenarioConfig:
    """Large-scale profile: M=60, N=4, 1000 m square, 100 slots."""
    return ScenarioConfig.from_dict(overrides)


def desk_profile(**overrides) -> ScenarioConfig:
    """Small profile for laptops and CI: M=20, N=2, 500 m square, 50 slots."""
    base = dict(
        num_uds=20,
        num_suavs=2,
        area_width=500.0,
        area_height=500.0,
        luav_position=(250.0, 250.0),
        suav_initial_positions=((125.0, 125.0), (375.0, 375.0)),
        num_slots=50,
    )
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


PROFILES = {"desk": desk_profile, "paper": paper_profile}
