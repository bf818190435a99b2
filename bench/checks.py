"""Correctness checks applied to every simulation run of the benchmark.

Each check recomputes its property from the run's per-slot records (the rows
of the slot CSV) and the configuration, with formulas of its own, so that a
fault in the program's audit cannot hide a fault in its decisions.  A check
returns a list of ``(slot, message)`` failures; an empty list is a pass.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from uavmec.scenario import build_scenario, resample_tasks

# Slack on distances in metres, as in the program's constraint audit.
MOTION_TOL = 1e-6
# Relative slack for comparisons of sums that are equal in exact arithmetic
# (queue steps, cost bounds): float rounding moves them by ~1e-15 relative.
ROUND_RTOL = 1e-9
# How far one SCA iterate's true placement cost may rise over the previous
# one, relative to the cost (the subproblems meet a 1e-6 KKT contract).
SCA_RISE_RTOL = 1e-6


def check_placement(records, config, moves: bool) -> list:
    """Slot-1 positions, per-slot flying distance, pairwise separation, and
    under a parked approach (``moves`` false) positions that never change."""
    failures = []
    initial = np.asarray(config.suav_initial_positions, dtype=float)
    pos = np.array([rec.positions for rec in records], dtype=float)
    if not np.array_equal(pos[0], initial):
        failures.append((records[0].slot, "placement: slot-1 positions "
                         f"{pos[0].tolist()} != configured {initial.tolist()}"))
    reach = config.suav_max_speed * config.slot_duration + MOTION_TOL
    for t in range(1, len(pos)):
        step = np.sqrt(((pos[t] - pos[t - 1]) ** 2).sum(axis=1))
        for n in np.flatnonzero(step > reach):
            failures.append((records[t].slot, f"speed: SUAV {n} moves "
                             f"{step[n]:.6f} m > {reach:.6f} m"))
        if not moves and not np.array_equal(pos[t], initial):
            failures.append((records[t].slot,
                             "parked: SUAV positions changed"))
    n_suavs = pos.shape[1]
    for t in range(len(pos)):
        for i in range(n_suavs):
            for j in range(i + 1, n_suavs):
                gap = math.dist(pos[t, i], pos[t, j])
                if gap < config.min_separation - MOTION_TOL:
                    failures.append((records[t].slot,
                                     f"separation: SUAVs {i},{j} at "
                                     f"{gap:.6f} m < {config.min_separation} m"))
    return failures


def all_local_costs(config, seed: int, num_slots: int) -> np.ndarray:
    """Per-slot cost if every UD computed its own task.

    Built from a second world with the same config and seed, advanced only by
    ``resample_tasks``: tasks come from their own RNG stream, so this world
    sees the same tasks as the simulated one.
    """
    world = build_scenario(dataclasses.replace(config, seed=int(seed)))
    f = world.ud_compute
    costs = np.empty(num_slots)
    for t in range(num_slots):
        cycles = np.array([task.data_bits * task.cycles_per_bit
                           for task in world.tasks])
        delay = cycles / f
        energy = config.effective_capacitance * f ** 2 * cycles
        costs[t] = np.sum(config.gamma_time * delay
                          + config.gamma_energy * energy)
        resample_tasks(world)
    return costs


def check_qoe_bound(records, local_costs) -> list:
    """Every slot's cost is at most its all-local cost.

    At any stage-1 equilibrium each UD's utility is at most its local cost
    (local is always a candidate) and its realized cost is its utility minus
    a queue term that is >= 0.
    """
    failures = []
    for rec, local in zip(records, local_costs):
        if rec.cost > local * (1.0 + ROUND_RTOL):
            failures.append((rec.slot, f"qoe: slot cost {rec.cost!r} > "
                             f"all-local cost {float(local)!r}"))
    return failures


def check_queues(records, config) -> list:
    """Queue recurrence per SUAV: backlogs are >= 0, and their sum grows at
    least by the slot's energy minus the summed budgets, since each queue
    follows q' = max(q + e - b, 0) >= q + e - b."""
    failures = []
    b_c, b_p = config.budget_split()
    prev = np.zeros(config.num_suavs)
    for rec in records:
        q_c = np.asarray(rec.q_c, dtype=float)
        q_p = np.asarray(rec.q_p, dtype=float)
        if np.any(q_c < 0.0) or np.any(q_p < 0.0):
            failures.append((rec.slot, f"queue: negative backlog "
                             f"q_c={q_c.tolist()} q_p={q_p.tolist()}"))
        total = q_c + q_p
        floor = prev + np.asarray(rec.suav_energy, dtype=float) - (b_c + b_p)
        slack = ROUND_RTOL * (1.0 + np.abs(prev) + np.abs(floor))
        for n in np.flatnonzero(total < floor - slack):
            failures.append((rec.slot, f"queue: SUAV {n} backlog "
                             f"{total[n]!r} < recurrence floor {floor[n]!r}"))
        prev = total
    return failures


def placement_cost(problem, positions) -> float:
    """The stage-2 objective at next ``positions``: rate terms
    W / log2(1 + phi / (H^2 + d^2)) plus queue-weighted propulsion energy."""
    positions = np.asarray(positions, dtype=float)
    total = 0.0
    for n, asg in enumerate(problem.assignments):
        d2 = ((positions[n] - asg.ud_positions) ** 2).sum(axis=1)
        total += float(np.sum(asg.weights / np.log2(
            1.0 + asg.phi / (problem.altitude ** 2 + d2))))
        v = math.dist(positions[n], problem.current_positions[n]) / problem.dt
        power = (problem.prop_c1 * (1.0 + 3.0 * v * v / problem.tip_speed ** 2)
                 + problem.prop_c2 * math.sqrt(
                     math.sqrt(problem.prop_c3 + v ** 4 / 4.0) - v * v / 2.0)
                 + problem.prop_c4 * v ** 3)
        total += float(problem.queue_p[n]) * problem.dt * power
    return total


def check_stage2(problem, result) -> list:
    """Stage 2 never costs more than staying put, and the SCA loop's true
    objective, starting from staying put, never rises past SCA_RISE_RTOL."""
    messages = []
    stay = placement_cost(problem, problem.current_positions)
    chosen = placement_cost(problem, result.positions)
    if chosen > stay + SCA_RISE_RTOL * abs(stay):
        messages.append(f"stage2: placement cost {chosen!r} > "
                        f"cost of staying put {stay!r}")
    values = [stay] + [float(v) for v in result.true_values]
    for k in range(1, len(values)):
        if values[k] > values[k - 1] + SCA_RISE_RTOL * abs(values[k - 1]):
            messages.append(f"stage2: SCA iteration {k} raises the true "
                            f"objective {values[k - 1]!r} -> {values[k]!r}")
    return messages


def check_run(records, config, seed: int, moves: bool) -> list:
    """Every record-level check of one run."""
    return (check_placement(records, config, moves)
            + check_qoe_bound(records,
                              all_local_costs(config, seed, len(records)))
            + check_queues(records, config))
