"""Per-slot feasibility checks for every decision the controller emits.

Each check mirrors one hard constraint of the slot problem: strategy-space
membership, edge deadlines, compute/bandwidth share bounds and capacities,
initial placement, per-slot flying distance, and pairwise SUAV separation.
Violations come back as human-readable strings so a run can report exactly
what broke and where.
"""
from __future__ import annotations

import numpy as np

from .game import LOCAL

SHARE_TOL = 1e-9      # on shares and their per-server sums
DEADLINE_TOL = 1e-9   # s, on realized edge delays
MOTION_TOL = 1e-6     # m, on flying distance and separation


def audit_slot(*, profile, n_servers, z, w, delays, deadlines, data_bits,
               serving_positions, next_positions, initial_positions, slot,
               v_max, d_min, dt, excused=()) -> tuple[list, list]:
    """Check one slot's decision; return (violations, waived) messages.

    ``serving_positions`` are the SUAV positions the slot was served from,
    ``next_positions`` the ones the trajectory stage decided for the next
    slot.  Deadline misses of the UDs in ``excused`` (offloaded by design
    with no feasible edge) go to ``waived``.  An empty ``violations`` means
    the decision is feasible.
    """
    profile = np.asarray(profile, dtype=int)
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    violations: list[str] = []
    waived: list[str] = []

    # strategy space: local or a valid server index
    bad = (profile != LOCAL) & ((profile < 0) | (profile >= n_servers))
    for m in np.flatnonzero(bad):
        violations.append(f"strategy: UD {m} plays invalid action "
                          f"{profile[m]}")

    # edge deadline on members with actual data
    for m in np.flatnonzero((profile != LOCAL) & (np.asarray(data_bits) > 0)):
        if delays[m] > deadlines[m] + DEADLINE_TOL:
            (waived if m in excused else violations).append(
                f"deadline: UD {m} on server {profile[m]} finishes at "
                f"{delays[m]:.6f} s > {deadlines[m]:.6f} s")

    # share bounds and per-server capacities
    if np.any(z < -SHARE_TOL) or np.any(z > 1.0 + SHARE_TOL):
        violations.append("compute shares outside [0, 1]")
    if np.any(w < -SHARE_TOL) or np.any(w > 1.0 + SHARE_TOL):
        violations.append("bandwidth shares outside [0, 1]")
    for s in range(n_servers):
        members = profile == s
        if z[s, members].sum() > 1.0 + SHARE_TOL:
            violations.append(f"compute capacity: server {s} oversubscribed "
                              f"(sum z = {z[s, members].sum():.12f})")
        if w[s, members].sum() > 1.0 + SHARE_TOL:
            violations.append(f"bandwidth capacity: server {s} "
                              f"oversubscribed "
                              f"(sum w = {w[s, members].sum():.12f})")

    # placement: slot 1 starts at the configured positions
    serving = np.asarray(serving_positions, dtype=float)
    nxt = np.asarray(next_positions, dtype=float)
    if slot == 1:
        if not np.array_equal(serving,
                              np.asarray(initial_positions, dtype=float)):
            violations.append("placement: slot-1 positions differ from the "
                              "configured initial positions")

    # per-slot flying distance
    dist = np.linalg.norm(nxt - serving, axis=1)
    for n in np.flatnonzero(dist > v_max * dt + MOTION_TOL):
        violations.append(f"speed: SUAV {n} moves {dist[n]:.6f} m "
                          f"> {v_max * dt:.6f} m in one slot")

    # pairwise separation of the decided positions
    n_suavs = len(nxt)
    for i in range(n_suavs):
        for j in range(i + 1, n_suavs):
            d = float(np.linalg.norm(nxt[i] - nxt[j]))
            if d < d_min - MOTION_TOL:
                violations.append(f"separation: SUAVs {i},{j} at "
                                  f"{d:.6f} m < {d_min} m")
    return violations, waived
