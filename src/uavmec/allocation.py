"""Per-server compute/bandwidth shares for a fixed offloading profile.

For one server with member set M_s, the slot cost decomposes into
sum_m [ A_m / z_m + B_m / w_m ] with
    A_m = gamma_T * eta_m * D_m / F_s,
    B_m = (gamma_T * D_m + gamma_E * p * D_m) / r_{s,m},
so the optimal shares over each simplex are sqrt-proportional:
    z_m* = sqrt(A_m) / sum_i sqrt(A_i),   w_m* = sqrt(B_m) / sum_i sqrt(B_i).
``allocate`` evaluates that closed form; ``verification.allocation_oracle``
minimizes the same objective numerically (projected gradient over the
simplex) and is kept free of the closed form so the two can cross-check
each other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AllocationResult:
    """Share matrices indexed [server, ud]; zero where m is not a member."""
    z: np.ndarray
    w: np.ndarray


def _closed_form_shares(weights: np.ndarray) -> np.ndarray:
    roots = np.sqrt(weights)
    total = roots.sum()
    if total == 0.0:
        return np.full(len(weights), 1.0 / len(weights))
    return roots / total


def allocate(profile: np.ndarray, ctx) -> AllocationResult:
    """Optimal shares for every nonempty server under ``profile``.

    ``ctx`` provides data_bits, cycles_per_bit, rates (server x UD, full
    band), tx_power, gamma weights and the server count.  Members whose task
    is empty (D=0) receive a zero share unless the whole server is degenerate,
    in which case shares fall back to uniform.
    """
    n_servers = ctx.rates.shape[0]
    m_total = len(ctx.data_bits)
    z = np.zeros((n_servers, m_total))
    w = np.zeros((n_servers, m_total))
    for s in range(n_servers):
        idx = np.flatnonzero(profile == s)
        if len(idx) == 0:
            continue
        d = ctx.data_bits[idx]
        a = ctx.gamma_time * ctx.cycles_per_bit[idx] * d
        b = (ctx.gamma_time * d + ctx.gamma_energy * ctx.tx_power * d) \
            / ctx.rates[s, idx]
        z[s, idx] = _closed_form_shares(a)
        w[s, idx] = _closed_form_shares(b)
    return AllocationResult(z=z, w=w)


def uniform_allocation(profile: np.ndarray, ctx) -> AllocationResult:
    """Equal shares 1/|M_s| for every member (baseline allocation rule)."""
    n_servers = ctx.rates.shape[0]
    m_total = len(ctx.data_bits)
    z = np.zeros((n_servers, m_total))
    w = np.zeros((n_servers, m_total))
    for s in range(n_servers):
        idx = np.flatnonzero(profile == s)
        if len(idx):
            z[s, idx] = 1.0 / len(idx)
            w[s, idx] = 1.0 / len(idx)
    return AllocationResult(z=z, w=w)
