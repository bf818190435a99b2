import copy

import numpy as np
import pytest

from uavmec.config import desk_profile, paper_profile
from uavmec.scenario import (build_scenario, draw_tasks, resample_tasks,
                             step_mobility)


def test_build_places_everything_inside_the_area():
    cfg = desk_profile(seed=1)
    world = build_scenario(cfg)
    assert world.ud_positions.shape == (cfg.num_uds, 2)
    assert np.all(world.ud_positions >= 0.0)
    assert np.all(world.ud_positions[:, 0] <= cfg.area_width)
    assert np.all(world.ud_positions[:, 1] <= cfg.area_height)
    np.testing.assert_array_equal(
        world.suav_positions, np.asarray(cfg.suav_initial_positions))
    assert world.slot == 1
    assert len(world.tasks) == cfg.num_uds


def test_build_is_deterministic_per_seed():
    cfg = desk_profile(seed=7)
    a, b = build_scenario(cfg), build_scenario(cfg)
    np.testing.assert_array_equal(a.ud_positions, b.ud_positions)
    np.testing.assert_array_equal(a.ud_compute, b.ud_compute)
    assert [t.data_bits for t in a.tasks] == [t.data_bits for t in b.tasks]
    c = build_scenario(desk_profile(seed=8))
    assert not np.array_equal(a.ud_positions, c.ud_positions)


def test_rng_streams_are_independent():
    """Draining the fading stream must not change mobility or tasks."""
    cfg = desk_profile(seed=3)
    a, b = build_scenario(cfg), build_scenario(cfg)
    b.fading_rng.normal(size=10_000)
    step_mobility(a)
    step_mobility(b)
    np.testing.assert_array_equal(a.ud_positions, b.ud_positions)
    resample_tasks(a)
    resample_tasks(b)
    assert [t.data_bits for t in a.tasks] == [t.data_bits for t in b.tasks]


def test_task_samples_respect_configured_ranges():
    cfg = desk_profile(seed=5)
    world = build_scenario(cfg)
    for _ in range(20):
        resample_tasks(world)
        d, eta, tmax = world.task_arrays()
        assert np.all((d >= cfg.data_bits_range[0])
                      & (d <= cfg.data_bits_range[1]))
        assert np.all((eta >= cfg.cycles_per_bit_range[0])
                      & (eta <= cfg.cycles_per_bit_range[1]))
        assert np.all((tmax >= cfg.deadline_range[0])
                      & (tmax <= cfg.deadline_range[1]))
    assert set(world.ud_compute) <= set(cfg.ud_compute_options)


def uniform_loop(cfg, rng):
    """The per-UD scalar draws ``draw_tasks`` replaces: d, eta, Tmax."""
    return np.array([[rng.uniform(*cfg.data_bits_range),
                      rng.uniform(*cfg.cycles_per_bit_range),
                      rng.uniform(*cfg.deadline_range)]
                     for _ in range(cfg.num_uds)])


@pytest.mark.parametrize("cfg", [
    desk_profile(), paper_profile(),   # both with a zero-width deadline range
    desk_profile(data_bits_range=(0.0, 1e6)),
    desk_profile(cycles_per_bit_range=(700.0, 700.0)),
], ids=["desk", "paper", "data-from-zero", "equal-bounds"])
def test_draw_tasks_equals_per_ud_uniform_draws(cfg):
    for seed in range(5):
        block, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            drawn = draw_tasks(cfg, block)
            assert drawn.shape == (cfg.num_uds, 3)
            assert drawn.tobytes() == uniform_loop(cfg, loop).tobytes()
        assert block.random() == loop.random()


def test_tasks_are_one_record_array_of_the_drawn_rows():
    """``World.tasks`` holds ``draw_tasks``' rows bit for bit as records;
    ``task_arrays()`` returns its columns as views, so an edit through a
    field shows there, and iterating gives records with attribute access."""
    cfg = desk_profile(seed=9, data_bits_range=(0.0, 1e6))
    world = build_scenario(cfg)
    names = ("data_bits", "cycles_per_bit", "deadline")
    for _ in range(4):
        rng = copy.deepcopy(world.task_rng)
        resample_tasks(world)
        rows = draw_tasks(cfg, rng)
        assert isinstance(world.tasks, np.recarray)
        assert world.tasks.shape == (cfg.num_uds,)
        assert world.tasks.dtype.names == names
        columns = world.task_arrays()
        for k, col in enumerate(columns):
            assert col.tobytes() == rows[:, k].tobytes()
            assert np.shares_memory(col, world.tasks)
        d, eta, _ = columns
        assert [t.data_bits * t.cycles_per_bit for t in world.tasks] \
            == (d * eta).tolist()
    world.tasks.data_bits[3] = 0.0
    assert world.task_arrays()[0][3] == 0.0
    assert world.tasks[3].data_bits == 0.0


def test_mobility_first_step_uses_previous_velocity():
    cfg = desk_profile(seed=11)
    world = build_scenario(cfg)
    before = world.ud_positions.copy()
    vel = world.ud_velocities.copy()
    step_mobility(world)
    inside = np.all((before + vel * cfg.slot_duration >= 0)
                    & (before + vel * cfg.slot_duration
                       <= [cfg.area_width, cfg.area_height]), axis=1)
    np.testing.assert_allclose(
        world.ud_positions[inside],
        (before + vel * cfg.slot_duration)[inside])


def test_mobility_keeps_uds_inside_and_reflects_velocity():
    cfg = desk_profile(seed=13, mobility_sigma=40.0,
                       mobility_mean_velocity=(30.0, 0.0))
    world = build_scenario(cfg)
    hit_wall = False
    for _ in range(60):
        step_mobility(world)
        assert np.all(world.ud_positions >= 0.0)
        assert np.all(world.ud_positions
                      <= [cfg.area_width, cfg.area_height])
        at_right = world.ud_positions[:, 0] == cfg.area_width
        if np.any(at_right):
            hit_wall = True
            assert np.all(world.ud_velocities[at_right, 0] <= 0.0)
    assert hit_wall, "test config should push UDs into the boundary"


def test_velocity_relaxes_toward_mean():
    """With no noise, v contracts geometrically to the mean velocity."""
    cfg = desk_profile(seed=17, mobility_sigma=0.0)
    world = build_scenario(cfg)
    # park everyone mid-area so no reflection interferes
    world.ud_positions = np.full_like(world.ud_positions, 200.0)
    world.ud_velocities = np.tile([3.0, -3.0], (cfg.num_uds, 1))
    for _ in range(100):
        step_mobility(world)
    assert np.all(world.ud_positions[:, 0] < cfg.area_width)
    np.testing.assert_allclose(
        world.ud_velocities,
        np.tile(cfg.mobility_mean_velocity, (cfg.num_uds, 1)), atol=1e-3)
