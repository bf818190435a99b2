"""Cross-checking suites: every optimized quantity vs an independent route.

Four suites, mirroring the four optimization claims the controller rests on:

  * allocation  — closed-form shares vs a projected-gradient simplex solver
  * potential   — unilateral-deviation identity, fixed points are equilibria
  * poa         — exhaustive price-of-anarchy vs its analytic upper bound
  * surrogate   — tangency / lower-bound sampling, SCA descent, grid oracle

Each suite returns a SuiteResult; `run_all` powers the CLI `verify`
subcommand.  The random instances here are deliberately independent of the
engine: they stress corner cases (zero-size tasks, zero queue weights, tight
deadlines) that a well-behaved simulation rarely produces.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .allocation import allocate, allocation_oracle, share_objective
from .compute import induced_speed_term, propulsion_power
from .game import (GameContext, LOCAL, run_stage1, is_nash, poa_measure,
                   potential, utility)
from .trajectory import (SuavAssignment, TrajectoryProblem, run_stage2,
                         surrogate_f, surrogate_g, surrogate_h, true_f,
                         true_g, true_h, true_objective)

PROP = dict(prop_c1=79.86, prop_c2=21.99, prop_c3=263.85, prop_c4=0.00924,
            tip_speed=120.0)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    runtime: float
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        info = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{self.name}: {status} ({info}, {self.runtime:.1f}s)"


def random_game_context(rng: np.random.Generator, m_max: int = 5,
                        n_max: int = 2, allow_zero_tasks: bool = True,
                        allow_local: bool = True) -> GameContext:
    """A small random offloading instance with plausible magnitudes."""
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    s = n + 1
    data = rng.uniform(0.2e6, 1.0e6, m)
    if allow_zero_tasks:
        data[rng.random(m) < 0.1] = 0.0
    return GameContext(
        n_suavs=n,
        data_bits=data,
        cycles_per_bit=rng.uniform(500.0, 1500.0, m),
        deadline=rng.uniform(0.5, 1.5, m),
        ud_compute=rng.choice([1e9, 1.5e9, 2e9], m),
        rates=rng.uniform(1e6, 3e7, (s, m)),
        f_max=np.concatenate([np.full(n, 20e9), [30e9]]),
        queue_weight=np.concatenate(
            [np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.0, 4e-3, n)),
             [0.0]]),
        tx_power=np.full(m, 0.1),
        gamma_time=0.7,
        gamma_energy=0.3,
        capacitance=1e-28,
        energy_per_cycle=8.2e-9,
        allow_local=allow_local,
        tiebreak_rng=rng,
    )


def random_profile(ctx: GameContext, rng: np.random.Generator) -> np.ndarray:
    choices = ([LOCAL] if ctx.allow_local else []) \
        + list(range(ctx.n_servers))
    return rng.choice(choices, size=ctx.n_uds)


# ----------------------------------------------------------------------
def allocation_suite(n_instances: int = 100, seed: int = 0,
                     tol: float = 1e-6) -> SuiteResult:
    """Closed-form shares vs the independent simplex minimizer."""
    rng = np.random.default_rng(seed)
    t0 = time.time()
    failures = []
    max_err = 0.0
    for i in range(n_instances):
        ctx = random_game_context(rng, m_max=6, n_max=2)
        profile = np.full(ctx.n_uds,
                          int(rng.integers(0, ctx.n_servers)))
        closed = allocate(profile, ctx)
        numeric = allocation_oracle(profile, ctx)
        err = max(np.abs(closed.z - numeric.z).max(),
                  np.abs(closed.w - numeric.w).max())
        max_err = max(max_err, err)
        if err > tol:
            failures.append(f"instance {i}: share error {err:.3e}")
        gap = share_objective(profile, ctx, closed) \
            - share_objective(profile, ctx, numeric)
        if gap > 1e-6:
            failures.append(f"instance {i}: closed form loses by {gap:.3e}")
    return SuiteResult("allocation-oracle", not failures, time.time() - t0,
                       {"instances": n_instances,
                        "max_share_err": f"{max_err:.2e}"}, failures)


# ----------------------------------------------------------------------
def potential_suite(n_identity: int = 200, n_nash: int = 100,
                    seed: int = 1, tol: float = 1e-9) -> SuiteResult:
    """Deviation identity, equilibrium fixed points, strict descent."""
    rng = np.random.default_rng(seed)
    t0 = time.time()
    failures = []
    max_gap = 0.0
    for i in range(n_identity):
        ctx = random_game_context(rng)
        profile = random_profile(ctx, rng)
        m = int(rng.integers(ctx.n_uds))
        options = [a for a in [LOCAL, *range(ctx.n_servers)]
                   if a != profile[m]]
        new = int(rng.choice(options))
        du = utility(m, new, profile, ctx) - utility(m, int(profile[m]),
                                                     profile, ctx)
        before = potential(profile, ctx)
        deviated = profile.copy()
        deviated[m] = new
        dphi = potential(deviated, ctx) - before
        gap = abs(du - dphi)
        max_gap = max(max_gap, gap)
        if gap > tol:
            failures.append(f"identity {i}: |dU - dF| = {gap:.3e}")

    descent_moves = 0
    for i in range(n_nash):
        ctx = random_game_context(rng)
        result = run_stage1(ctx)
        ok, witness = is_nash(result.profile, ctx)
        if not ok:
            failures.append(f"nash {i}: fixed point not an equilibrium, "
                            f"witness {witness}")
        for mv in result.moves:
            if not mv.forced:
                descent_moves += 1
                if not mv.delta_potential < 0.0:
                    failures.append(f"nash {i}: non-decreasing move "
                                    f"{mv.delta_potential:.3e}")
    return SuiteResult("potential-game", not failures, time.time() - t0,
                       {"identity_checks": n_identity,
                        "max_identity_gap": f"{max_gap:.2e}",
                        "nash_instances": n_nash,
                        "descent_moves": descent_moves}, failures)


# ----------------------------------------------------------------------
def poa_suite(n_instances: int = 50, seed: int = 2) -> SuiteResult:
    """1 <= PoA <= analytic bound on exhaustively enumerable instances."""
    rng = np.random.default_rng(seed)
    t0 = time.time()
    failures = []
    max_poa = 0.0
    for i in range(n_instances):
        ctx = random_game_context(rng, m_max=5, n_max=2,
                                  allow_zero_tasks=False)
        res = poa_measure(ctx)
        max_poa = max(max_poa, res.poa)
        if res.poa < 1.0 - 1e-12:
            failures.append(f"instance {i}: PoA {res.poa:.6f} < 1")
        if res.poa > res.bound + 1e-9:
            failures.append(f"instance {i}: PoA {res.poa:.6f} exceeds "
                            f"bound {res.bound:.6f}")
    return SuiteResult("poa-sandwich", not failures, time.time() - t0,
                       {"instances": n_instances,
                        "max_poa": f"{max_poa:.4f}"}, failures)


# ----------------------------------------------------------------------
def random_trajectory_problem(rng: np.random.Generator,
                              n_suavs: int = 2,
                              max_uds: int = 3) -> TrajectoryProblem:
    positions = rng.uniform(100.0, 400.0, (n_suavs, 2))
    while True:
        ok = True
        for i in range(n_suavs):
            for j in range(i + 1, n_suavs):
                if np.linalg.norm(positions[i] - positions[j]) < 12.0:
                    ok = False
        if ok:
            break
        positions = rng.uniform(100.0, 400.0, (n_suavs, 2))
    assignments = []
    for _ in range(n_suavs):
        k = int(rng.integers(0, max_uds + 1))
        assignments.append(SuavAssignment(
            ud_positions=rng.uniform(0.0, 500.0, (k, 2)),
            weights=rng.uniform(20.0, 400.0, k),
            phi=rng.uniform(1e4, 1e6, k)))
    return TrajectoryProblem(
        current_positions=positions, assignments=assignments,
        queue_p=rng.uniform(0.0, 60.0, n_suavs), altitude=100.0, dt=1.0,
        v_max=25.0, d_min=10.0, **PROP)


def surrogate_suite(n_samples: int = 1000, n_sca: int = 10,
                    n_grid: int = 3, seed: int = 3,
                    grid_points: int = 200) -> SuiteResult:
    """Tangency/lower-bound sampling, SCA descent, and the grid oracle."""
    rng = np.random.default_rng(seed)
    t0 = time.time()
    failures = []
    c3 = PROP["prop_c3"]

    # --- induced-power surrogate f ---
    for i in range(n_samples):
        cur = rng.uniform(0.0, 500.0, 2)
        exp_q = cur + rng.uniform(-25.0, 25.0, 2)
        v_exp = float(np.linalg.norm(exp_q - cur))
        xi_exp = induced_speed_term(v_exp, c3)
        tangent = surrogate_f(xi_exp, exp_q, exp_q, cur, xi_exp, 1.0)
        if abs(tangent - true_f(xi_exp, exp_q, cur, 1.0)) > 1e-12:
            failures.append(f"f tangency sample {i}")
        q = cur + rng.uniform(-25.0, 25.0, 2)
        xi = rng.uniform(0.5, 6.0)
        if surrogate_f(xi, q, exp_q, cur, xi_exp, 1.0) \
                > true_f(xi, q, cur, 1.0) + 1e-9:
            failures.append(f"f bound sample {i}")

    # --- rate surrogate g ---
    for i in range(n_samples):
        ud = rng.uniform(0.0, 500.0, 2)
        exp_q = rng.uniform(0.0, 500.0, 2)
        phi = rng.uniform(1e3, 1e6)
        if abs(surrogate_g(exp_q, exp_q, ud, phi, 100.0)
               - true_g(exp_q, ud, phi, 100.0)) > 1e-12:
            failures.append(f"g tangency sample {i}")
        q = rng.uniform(0.0, 500.0, 2)
        if surrogate_g(q, exp_q, ud, phi, 100.0) \
                > true_g(q, ud, phi, 100.0) + 1e-9:
            failures.append(f"g bound sample {i}")

    # --- separation surrogate h ---
    for i in range(n_samples):
        ei = rng.uniform(0.0, 500.0, 2)
        ej = rng.uniform(0.0, 500.0, 2)
        if abs(surrogate_h(ei, ej, ei, ej) - true_h(ei, ej)) > 1e-12:
            failures.append(f"h tangency sample {i}")
        qi = rng.uniform(0.0, 500.0, 2)
        qj = rng.uniform(0.0, 500.0, 2)
        if surrogate_h(qi, qj, ei, ej) > true_h(qi, qj) + 1e-9:
            failures.append(f"h bound sample {i}")

    # --- SCA descent on random multi-SUAV problems ---
    worst_rise = 0.0
    for i in range(n_sca):
        problem = random_trajectory_problem(rng)
        res = run_stage2(problem)
        rises = np.diff(res.true_values)
        if len(rises):
            worst_rise = max(worst_rise, float(rises.max()))
        if len(rises) and rises.max() > 1e-6:
            failures.append(f"sca {i}: true objective rose by "
                            f"{rises.max():.3e}")

    # --- grid oracle on 1-SUAV / 1-UD problems ---
    max_rel = 0.0
    for i in range(n_grid):
        problem = random_trajectory_problem(rng, n_suavs=1, max_uds=0)
        problem.assignments = [SuavAssignment(
            ud_positions=rng.uniform(0.0, 500.0, (1, 2)),
            weights=rng.uniform(50.0, 400.0, 1),
            phi=rng.uniform(1e4, 1e6, 1))]
        res = run_stage2(problem)
        grid_best = grid_oracle(problem, grid_points)
        rel = abs(res.true_values[-1] - grid_best) / grid_best
        max_rel = max(max_rel, rel)
        if rel > 0.01:
            failures.append(f"grid {i}: SCA {res.true_values[-1]:.4f} vs "
                            f"grid {grid_best:.4f} ({rel:.2%})")

    return SuiteResult("sca-surrogates", not failures, time.time() - t0,
                       {"samples": n_samples,
                        "sca_instances": n_sca,
                        "worst_rise": f"{worst_rise:.2e}",
                        "grid_instances": n_grid,
                        "max_grid_rel": f"{max_rel:.2%}"}, failures)


def grid_oracle(problem: TrajectoryProblem, points: int = 200) -> float:
    """Dense grid search over the reachable disk of a 1-SUAV problem."""
    if problem.n_suavs != 1:
        raise ValueError("grid oracle handles a single SUAV")
    cur = problem.current_positions[0]
    reach = problem.v_max * problem.dt
    xs = np.linspace(cur[0] - reach, cur[0] + reach, points)
    ys = np.linspace(cur[1] - reach, cur[1] + reach, points)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    mask = np.linalg.norm(grid - cur, axis=1) <= reach
    grid = grid[mask]
    speeds = np.linalg.norm(grid - cur, axis=1) / problem.dt
    total = problem.queue_p[0] * problem.dt * propulsion_power(
        speeds, problem.prop_c1, problem.prop_c2, problem.prop_c3,
        problem.prop_c4, problem.tip_speed)
    asg = problem.assignments[0]
    for j in range(len(asg.weights)):
        d2 = np.sum((grid - asg.ud_positions[j]) ** 2, axis=1)
        g = np.log2(1.0 + asg.phi[j] / (problem.altitude ** 2 + d2))
        total = total + asg.weights[j] / g
    return float(total.min())


# ----------------------------------------------------------------------
def run_all(seed: int = 0) -> list:
    """All four suites with seeds derived from ``seed``."""
    return [
        allocation_suite(seed=seed),
        potential_suite(seed=seed + 1),
        poa_suite(seed=seed + 2),
        surrogate_suite(seed=seed + 3),
    ]
