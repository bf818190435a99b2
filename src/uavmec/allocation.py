"""Per-server compute/bandwidth shares for a fixed offloading profile.

For one server with member set M_s, the slot cost decomposes into
sum_m [ A_m / z_m + B_m / w_m ] with
    A_m = gamma_T * eta_m * D_m / F_s,
    B_m = (gamma_T * D_m + gamma_E * p * D_m) / r_{s,m},
so the optimal shares over each simplex are sqrt-proportional:
    z_m* = sqrt(A_m) / sum_i sqrt(A_i),   w_m* = sqrt(B_m) / sum_i sqrt(B_i).
``allocate`` evaluates that closed form; ``allocation_oracle`` minimizes the
same objective numerically (projected gradient over the simplex) and is kept
free of the closed form so the two can cross-check each other.
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


# ----------------------------------------------------------------------
# Independent numeric route
# ----------------------------------------------------------------------

def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1}."""
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    rho = np.flatnonzero(u * np.arange(1, len(v) + 1) > cssv)[-1]
    theta = cssv[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _simplex_minimize(a: np.ndarray, tol: float = 1e-8,
                      max_iter: int = 100000) -> np.ndarray:
    """Minimize sum_i a_i/x_i over the simplex by projected gradient.

    Stops on the KKT conditions: the gradient is uniform across the support
    to a relative spread of 2*tol (which bounds the share error by ~tol)
    and no mass sits on zero-weight coordinates.  The sufficient-decrease
    test carries a rounding allowance so steps near the optimum, where the
    true decrease drops below float resolution, are not rejected.
    """
    k = len(a)
    if np.all(a == 0.0):
        return np.full(k, 1.0 / k)
    if np.any(a < 0.0):
        raise ValueError("weights must be nonnegative")
    a = a / a.max()   # argmin is scale-invariant; normalize for float health
    support = a > 0.0

    def value(x):
        return np.sum(a[support] / np.where(x[support] > 0,
                                            x[support], np.inf))

    x = np.full(k, 1.0 / k)
    step = 1.0 / (2.0 * k ** 3)  # ~1/L at the uniform point (a.max() == 1)
    fx = value(x)
    for _ in range(max_iter):
        g = np.zeros(k)
        g[support] = -a[support] / x[support] ** 2
        # KKT: gradient equal across the support, no mass off-support
        spread = g[support].max() - g[support].min()
        stray = x[~support].sum() if (~support).any() else 0.0
        if spread <= 2.0 * tol * np.abs(g[support]).max() and stray <= tol:
            return x
        slack = 16.0 * np.finfo(float).eps * max(1.0, abs(fx))
        while True:
            y = _project_simplex(x - step * g)
            fy = value(y)
            if fy <= fx + np.dot(g, y - x) \
                    + np.dot(y - x, y - x) / (2 * step) + slack:
                break
            step *= 0.5
        x, fx = y, fy
        step *= 1.3
    raise RuntimeError("simplex projected gradient did not converge")


def allocation_oracle(profile: np.ndarray, ctx,
                      tol: float = 1e-8) -> AllocationResult:
    """Numeric minimizer of the per-server share objective (<= 6 members)."""
    n_servers = ctx.rates.shape[0]
    m_total = len(ctx.data_bits)
    z = np.zeros((n_servers, m_total))
    w = np.zeros((n_servers, m_total))
    for s in range(n_servers):
        idx = np.flatnonzero(profile == s)
        if len(idx) == 0:
            continue
        if len(idx) > 6:
            raise ValueError("oracle is meant for <= 6 members per server")
        d = ctx.data_bits[idx]
        f_max = ctx.f_max[s]
        a = ctx.gamma_time * ctx.cycles_per_bit[idx] * d / f_max
        b = (ctx.gamma_time * d + ctx.gamma_energy * ctx.tx_power * d) \
            / ctx.rates[s, idx]
        z[s, idx] = _simplex_minimize(a, tol=tol)
        w[s, idx] = _simplex_minimize(b, tol=tol)
    return AllocationResult(z=z, w=w)


def share_objective(profile: np.ndarray, ctx, alloc: AllocationResult) -> float:
    """The share-dependent slot cost the two routes both minimize."""
    total = 0.0
    for s in range(ctx.rates.shape[0]):
        idx = np.flatnonzero(profile == s)
        if len(idx) == 0:
            continue
        d = ctx.data_bits[idx]
        live = d > 0
        if not np.any(live):
            continue
        idx = idx[live]
        d = d[live]
        a = ctx.gamma_time * ctx.cycles_per_bit[idx] * d / ctx.f_max[s]
        b = (ctx.gamma_time * d + ctx.gamma_energy * ctx.tx_power * d) \
            / ctx.rates[s, idx]
        total += np.sum(a / alloc.z[s, idx]) + np.sum(b / alloc.w[s, idx])
    return float(total)
