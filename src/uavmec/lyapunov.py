"""Virtual energy queues and the drift-plus-penalty slot objective.

Each SUAV carries two backlogs, one for compute energy and one for propulsion
energy, each charged against a per-slot budget.  Keeping both queues stable
makes the long-term average energy respect the budget, which is what lets a
per-slot controller honor a long-horizon constraint.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class QueueState:
    """Per-SUAV backlogs (J) plus the budgets every SUAV is charged
    against."""
    q_c: np.ndarray        # compute-energy queue
    q_p: np.ndarray        # propulsion-energy queue
    budget_c: float        # per-slot compute budget
    budget_p: float        # per-slot propulsion budget


def init_queues(n_suavs: int, budget_c, budget_p) -> QueueState:
    """Empty queues (the slot-1 state)."""
    return QueueState(q_c=np.zeros(n_suavs), q_p=np.zeros(n_suavs),
                      budget_c=float(budget_c), budget_p=float(budget_p))


def update_queues(state: QueueState, e_c, e_p) -> QueueState:
    """q' = max(q + E - budget, 0), elementwise per SUAV."""
    e_c = np.asarray(e_c, dtype=float)
    e_p = np.asarray(e_p, dtype=float)
    if np.any(e_c < 0) or np.any(e_p < 0):
        raise ValueError("slot energies must be nonnegative")
    return QueueState(
        q_c=np.maximum(state.q_c + e_c - state.budget_c, 0.0),
        q_p=np.maximum(state.q_p + e_p - state.budget_p, 0.0),
        budget_c=state.budget_c,
        budget_p=state.budget_p,
    )


def dpp_objective(q_c, q_p, e_c, e_p, total_cost: float,
                  v: float) -> float:
    """Queue-weighted energy plus V-weighted slot cost."""
    if v <= 0:
        raise ValueError("v must be positive")
    drift = float(np.dot(np.asarray(q_c, dtype=float), e_c)
                  + np.dot(np.asarray(q_p, dtype=float), e_p))
    return drift + v * float(total_cost)
