"""Tests of the benchmark's own checks and tracer.

Each check must pass on a short real run and fail on a record altered to
break it.  Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from uavmec.config import desk_profile  # noqa: E402
from uavmec.engine import run_simulation  # noqa: E402
from uavmec.trajectory import run_stage2  # noqa: E402
from uavmec.verification import random_trajectory_problem  # noqa: E402

SEED = 3
SLOTS = 6


@pytest.fixture(scope="module")
def config():
    return desk_profile(num_slots=SLOTS)


@pytest.fixture(scope="module")
def runs(config):
    return {a: run_simulation(config, a, seed=SEED).records
            for a in ("OJTRTA", "FLP")}


def altered(records, t, **fields):
    out = list(records)
    out[t] = dataclasses.replace(records[t], **fields)
    return out


def kinds(failures):
    return {msg.split(":")[0] for _, msg in failures}


@pytest.mark.parametrize("approach", ["OJTRTA", "FLP"])
def test_every_check_passes_on_a_real_run(runs, config, approach):
    assert checks.check_run(runs[approach], config, SEED,
                            moves=approach != "FLP") == []


def test_real_run_moves(runs):
    pos = np.array([r.positions for r in runs["OJTRTA"]])
    assert np.abs(np.diff(pos, axis=0)).max() > 1.0


def test_placement_flags_a_26_m_move(runs, config):
    recs = runs["OJTRTA"]
    pos = recs[2].positions.copy()
    pos[0] = recs[1].positions[0] + [26.0, 0.0]
    failures = checks.check_placement(altered(recs, 2, positions=pos),
                                      config, moves=True)
    assert "speed" in kinds(failures)
    assert any(slot == recs[2].slot for slot, _ in failures)


def test_placement_flags_an_8_m_separation(runs, config):
    recs = runs["OJTRTA"]
    pos = recs[3].positions.copy()
    pos[1] = pos[0] + [8.0, 0.0]
    failures = checks.check_placement(altered(recs, 3, positions=pos),
                                      config, moves=True)
    assert "separation" in kinds(failures)


def test_placement_flags_a_moved_slot_1(runs, config):
    recs = runs["FLP"]
    pos = recs[0].positions + 1e-3
    failures = checks.check_placement(altered(recs, 0, positions=pos),
                                      config, moves=False)
    assert "placement" in kinds(failures)


def test_placement_flags_an_flp_move(runs, config):
    recs = runs["FLP"]
    pos = recs[4].positions.copy()
    pos[1] += [1.0, 0.0]
    recs = altered(recs, 4, positions=pos)
    assert kinds(checks.check_placement(recs, config, moves=False)) \
        == {"parked"}
    assert checks.check_placement(recs, config, moves=True) == []


def test_qoe_bound_flags_a_cost_above_all_local(runs, config):
    recs = runs["OJTRTA"]
    local = checks.all_local_costs(config, SEED, len(recs))
    assert all(r.cost < c for r, c in zip(recs, local))
    bad = altered(recs, 2, cost=float(local[2]) * 1.001)
    assert [s for s, _ in checks.check_qoe_bound(bad, local)] \
        == [recs[2].slot]


def test_queues_flag_a_broken_step(runs, config):
    recs = runs["OJTRTA"]
    energy = recs[3].suav_energy.copy()
    energy[0] += 1000.0          # charged energy the backlog never saw
    failures = checks.check_queues(altered(recs, 3, suav_energy=energy),
                                   config)
    assert [s for s, _ in failures] == [recs[3].slot]


def test_queues_flag_a_negative_backlog(runs, config):
    recs = runs["OJTRTA"]
    q_p = recs[5].q_p.copy()
    q_p[1] = -1.0
    assert "queue" in kinds(checks.check_queues(altered(recs, 5, q_p=q_p),
                                                config))


def test_stage2_check_passes_and_fails():
    problem = random_trajectory_problem(np.random.default_rng(0))
    result = run_stage2(problem)
    assert checks.check_stage2(problem, result) == []
    rising = dataclasses.replace(
        result, true_values=list(result.true_values)
        + [result.true_values[-1] * 1.01])
    assert any("raises" in m for m in checks.check_stage2(problem, rising))
    worse = dataclasses.replace(
        result, positions=problem.current_positions + 1000.0)
    assert any("staying put" in m for m in checks.check_stage2(problem, worse))


def test_tracer_self_times_add_up_and_uninstall_restores():
    import uavmec.engine as engine
    import uavmec.game as game
    original = (engine.run_slot, game.best_response)
    tracer = Tracer()
    tracer.install()
    try:
        run_simulation(desk_profile(num_slots=2), "OJTRTA", seed=0)
    finally:
        tracer.uninstall()
    assert (engine.run_slot, game.best_response) == original
    m = layer_metrics(tracer, runs=1)
    assert m["trace.layers_in_slot_ms_mean"][0] == pytest.approx(
        m["trace.slot_ms_mean"][0], rel=1e-9)
    assert m["scenario.task_arrays_calls_per_slot"][0] == 3
    assert m["trajectory.sca_iters_per_slot"][0] \
        == m["trajectory.subproblems_per_slot"][0]
    assert len(tracer.stage2) == 2
    for _, _, problem, result in tracer.stage2:
        assert checks.check_stage2(problem, result) == []
