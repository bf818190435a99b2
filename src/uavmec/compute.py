"""Delay, energy, and propulsion formulas shared by every decision stage."""
from __future__ import annotations

import numpy as np


def propulsion_power(v, c1, c2, c3, c4, tip_speed):
    """Rotary-wing power at horizontal speed v.

    P(v) = c1*(1 + 3v^2/U^2)            blade profile
         + c2*sqrt(sqrt(c3 + v^4/4) - v^2/2)   induced
         + c4*v^3                        parasite
    """
    v = np.asarray(v, dtype=float)
    blade = c1 * (1.0 + 3.0 * v ** 2 / tip_speed ** 2)
    induced = c2 * induced_speed_term(v, c3)
    parasite = c4 * v ** 3
    p = blade + induced + parasite
    return p if p.shape else float(p)


def induced_speed_term(v, c3):
    """The slack value xi(v) = sqrt(sqrt(c3 + v^4/4) - v^2/2).

    Satisfies c3/xi^2 = xi^2 + v^2 exactly, which is what makes the
    slack-variable reformulation of the propulsion term tight.
    """
    v = np.asarray(v, dtype=float)
    xi = np.sqrt(np.sqrt(c3 + v ** 4 / 4.0) - v ** 2 / 2.0)
    return xi if xi.shape else float(xi)


def slot_suav_energy(assigned_cycles, speed, config):
    """(compute J, propulsion J) over one slot, per SUAV.

    ``assigned_cycles`` is the total eta*D over tasks executed on a SUAV
    and ``speed`` its speed: scalars for one SUAV, or (N,) arrays for the
    fleet.  Raises, naming the first SUAV (0 for a scalar), when a speed
    exceeds the configured limit (an upstream trajectory bug).
    """
    for n, v in enumerate(np.atleast_1d(speed)):
        if v > config.suav_max_speed * (1.0 + 1e-9) + 1e-9:
            raise ValueError(f"SUAV {n} speed {v:.6f} m/s exceeds limit "
                             f"{config.suav_max_speed}")
    e_c = config.suav_energy_per_cycle * assigned_cycles
    e_p = propulsion_power(speed, config.prop_blade, config.prop_induced,
                           config.prop_speed4, config.prop_parasite,
                           config.prop_tip_speed) * config.slot_duration
    return e_c, e_p


def ud_cost(delay, energy, gamma_time, gamma_energy):
    """Quality-of-experience cost: gamma_T * T + gamma_E * E."""
    return gamma_time * delay + gamma_energy * energy
