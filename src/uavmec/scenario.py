"""World state: user devices, UAV fleet, Gauss-Markov mobility, task arrivals.

The world owns four named RNG streams (mobility, task, fading, tiebreak), all
spawned from the master seed, so redrawing one class of randomness never
perturbs the others and runs are reproducible per (config, seed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .game import LOCAL

# one task per UD: the fields of a ``World.tasks`` record
TASK = np.dtype([("data_bits", float), ("cycles_per_bit", float),
                 ("deadline", float)])


@dataclass
class World:
    config: ScenarioConfig
    ud_positions: np.ndarray       # (M, 2) m
    ud_velocities: np.ndarray      # (M, 2) m/s
    ud_compute: np.ndarray         # (M,) cycles/s, fixed at build
    suav_positions: np.ndarray     # (N, 2) m
    tasks: np.recarray = None      # (M,) records of TASK
    profile: np.ndarray = None     # (M,) offloading profile of the last
                                   # decided slot, where stage 1 starts
    slot: int = 1
    mobility_rng: np.random.Generator = None
    task_rng: np.random.Generator = None
    fading_rng: np.random.Generator = None
    tiebreak_rng: np.random.Generator = None

    def task_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(data_bits, cycles_per_bit, deadline) as (M,) views of ``tasks``."""
        t = self.tasks
        return t["data_bits"], t["cycles_per_bit"], t["deadline"]


def _streams(seed: int):
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(np.random.default_rng(c) for c in children)


def build_scenario(config: ScenarioConfig) -> World:
    """Create the slot-1 world.

    UD positions are uniform over the service area, initial velocities equal
    the mean velocity, and each UD's compute capability is drawn once from
    ``ud_compute_options``.  The first slot's tasks are sampled immediately,
    and its offloading game starts from the all-local profile.
    """
    mob, task, fading, tie = _streams(config.seed)
    m = config.num_uds
    pos = mob.uniform(size=(m, 2)) * [config.area_width, config.area_height]
    vel = np.tile(np.asarray(config.mobility_mean_velocity, dtype=float),
                  (m, 1))
    f_ud = task.choice(np.asarray(config.ud_compute_options, dtype=float),
                       size=m)
    world = World(
        config=config,
        ud_positions=pos,
        ud_velocities=vel,
        ud_compute=f_ud,
        suav_positions=np.asarray(config.suav_initial_positions, dtype=float).copy(),
        mobility_rng=mob,
        task_rng=task,
        fading_rng=fading,
        tiebreak_rng=tie,
        profile=np.full(m, LOCAL, dtype=int),
    )
    resample_tasks(world)
    return world


def draw_tasks(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """One task per UD as rows (d, eta, Tmax), shape (M, 3): the doubles
    per-UD ``rng.uniform`` calls would draw, in the same stream order."""
    lo, hi = np.array([config.data_bits_range, config.cycles_per_bit_range,
                       config.deadline_range], dtype=float).T
    return lo + (hi - lo) * rng.random((config.num_uds, 3))


def step_mobility(world: World) -> None:
    """Advance UD positions/velocities by one slot (Gauss-Markov).

    q(t+1) = q(t) + v(t)*dt, then
    v(t+1) = a*v(t) + (1-a)*vbar + sqrt(1-a^2)*w,  w ~ N(0, sigma^2 I).

    Positions leaving the area are clamped to the boundary and the offending
    velocity component is reflected inward.
    """
    cfg = world.config
    a = cfg.mobility_alpha
    vbar = np.asarray(cfg.mobility_mean_velocity, dtype=float)
    noise = world.mobility_rng.normal(
        0.0, cfg.mobility_sigma, size=world.ud_positions.shape)
    new_pos = world.ud_positions + world.ud_velocities * cfg.slot_duration
    new_vel = a * world.ud_velocities + (1.0 - a) * vbar \
        + np.sqrt(1.0 - a * a) * noise

    bounds = np.array([cfg.area_width, cfg.area_height])
    low = new_pos < 0.0
    high = new_pos > bounds
    new_pos = np.clip(new_pos, 0.0, bounds)
    new_vel[low] = np.abs(new_vel[low])
    new_vel[high] = -np.abs(new_vel[high])

    world.ud_positions = new_pos
    world.ud_velocities = new_vel


def resample_tasks(world: World) -> None:
    """Draw the next slot's task for every UD (one task per UD per slot)."""
    block = draw_tasks(world.config, world.task_rng)
    world.tasks = block.view(TASK).view(np.recarray)[:, 0]
