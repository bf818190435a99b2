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

The independent routes live here too, next to the suites that use them:
the per-UD scalar delay and energy formulas, the simplex minimizer of the
share objective, the full-pricing best response, the Nash test,
exhaustive PoA enumeration, the explicit surrogate and true constraint
functions, and the grid search.  No slot module imports this one, so a
simulation never loads them.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .allocation import AllocationResult, allocate
from . import config
from .compute import induced_speed_term, propulsion_power
from .game import (DEADLINE_SLACK, GameContext, LOCAL, MemberSums,
                   run_stage1, potential, utility)
from .trajectory import (LOG2E, SuavAssignment, TrajectoryProblem,
                         run_stage2)

PROP = dict(prop_c1=config.PROP_BLADE_POWER,
            prop_c2=config.PROP_INDUCED_POWER,
            prop_c3=config.PROP_INDUCED_SPEED4,
            prop_c4=config.PROP_PARASITE_COEFF,
            tip_speed=config.PROP_TIP_SPEED)


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
        tx_power=0.1,
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
# per-UD scalar formulas, the reference for engine._realize's array form
def local_delay(data_bits, cycles_per_bit, f_ud):
    """Execution time of a task on its own device: eta*D/f."""
    return cycles_per_bit * data_bits / f_ud


def local_energy(data_bits, cycles_per_bit, f_ud, capacitance):
    """CPU energy k * f^2 * eta * D (equivalently k*f^3 * T_loc)."""
    return capacitance * f_ud ** 2 * cycles_per_bit * data_bits


def edge_delay(data_bits, cycles_per_bit, rate, f_alloc):
    """Uplink transmission plus edge execution: D/R + eta*D/F.

    A zero-size task completes instantly regardless of the allocation.
    """
    if data_bits == 0:
        return 0.0
    if rate <= 0 or f_alloc <= 0:
        raise ValueError("allocated rate and compute must be positive")
    return data_bits / rate + cycles_per_bit * data_bits / f_alloc


def edge_ud_energy(data_bits, rate, tx_power):
    """Transmission energy p * D / R spent by the UD."""
    if data_bits == 0:
        return 0.0
    if rate <= 0:
        raise ValueError("allocated rate must be positive")
    return tx_power * data_bits / rate


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
@dataclass(slots=True)
class BestResponse:
    best: tuple            # all minimizers, ascending strategy order
    best_utility: float
    candidates: tuple      # feasible strategies (deadline-checked)
    utilities: dict        # strategy -> utility over the candidates
    fallback: bool = False  # no feasible edge and local disallowed


def full_best_response(m: int, profile: np.ndarray, ctx: GameContext,
                       sums: MemberSums) -> BestResponse:
    """Best strategies for UD m holding everyone else fixed, with every
    server priced and deadline-tested.

    The route of ``is_nash`` and ``poa_measure``, which read the
    utilities and candidate sets that ``game.best_response`` does not
    build.  ``sums`` must hold the member sums of ``profile``; every
    server is then priced in O(1).  Edge candidates must meet the task
    deadline under the re-derived shares with m as a member; local
    computing is always a candidate when allowed.  When nothing is
    feasible (entire-offloading mode under pressure) every edge option
    becomes a candidate and the result is flagged.
    """
    beta, phi, trans, exe, member_cost, energy, local_cost, empty = \
        ctx.ud_rows[m]
    cur = int(profile[m])
    uniform = ctx.uniform_shares
    limit = float(ctx.deadline[m]) + DEADLINE_SLACK
    if ctx.allow_local:
        best_u, best = local_cost, [LOCAL]
    else:
        best_u, best = None, []
    prices = []
    utilities: dict[int, float] = {}   # feasible servers, then LOCAL
    for s, qw in enumerate(ctx.queue_weight_list):
        # member sums of s with m joined (m's own server unchanged)
        jb, jp, _, _, _ = sums.totals[s]
        jn = sums.members[s]
        if s != cur:
            jb += beta[s]
            jp += phi[s]
            jn += 1
        if uniform:
            u = qw * energy + jn * member_cost[s]
        else:
            u = qw * energy + beta[s] * jb + phi[s] * jp
        prices.append(u)
        # completion delay under the re-derived shares against the deadline
        if empty:
            fits = 0.0 <= limit
        elif uniform:
            fits = jn * (trans[s] + exe[s]) <= limit
        else:
            w = phi[s] / jp if jp > 0 else 1.0 / jn
            z = beta[s] / jb if jb > 0 else 1.0 / jn
            # a zero share means an unbounded delay
            fits = w > 0.0 and z > 0.0 and trans[s] / w + exe[s] / z <= limit
        if fits:
            utilities[s] = u
            if best_u is None or u < best_u:
                best_u, best = u, [s]
            elif u == best_u:
                best.append(s)

    fallback = False
    if ctx.allow_local:
        candidates = (LOCAL, *utilities)
        utilities[LOCAL] = local_cost
    elif utilities:
        candidates = tuple(utilities)
    else:
        candidates = tuple(range(len(prices)))
        utilities = dict(enumerate(prices))
        best_u = min(prices)
        best = [s for s in candidates if prices[s] == best_u]
        fallback = True
    return BestResponse(best=tuple(best), best_utility=best_u,
                        candidates=candidates, utilities=utilities,
                        fallback=fallback)


def is_nash(profile: np.ndarray, ctx: GameContext):
    """(True, None) if no UD has a strictly improving feasible deviation.

    Raises when the profile itself is infeasible (some member's deadline is
    already violated), since equilibrium is defined over feasible profiles.
    """
    profile = np.asarray(profile, dtype=int)
    sums = MemberSums(profile, ctx)
    for m in range(ctx.n_uds):
        br = full_best_response(m, profile, ctx, sums)
        cur = int(profile[m])
        if cur not in br.candidates:
            raise ValueError(
                f"profile infeasible: UD {m} misses its deadline on {cur}")
        if br.best_utility < br.utilities[cur]:
            return False, (m, br.best[0])
    return True, None


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
@dataclass
class PoaResult:
    poa: float
    bound: float
    optimum_value: float
    worst_nash_value: float
    n_feasible: int
    n_nash: int
    optimum_profile: tuple
    worst_nash_profile: tuple


def _queue_potential_term(profile: np.ndarray, ctx: GameContext) -> float:
    """Sum over SUAVs of qw_s * total member compute energy (the G term
    of the PoA bound 3 - (G(worst) + G(opt)) / U(opt))."""
    total = 0.0
    for s in range(ctx.n_suavs):
        idx = profile == s
        total += ctx.queue_weight[s] * ctx.edge_energy[idx].sum()
    return float(total)


def poa_measure(ctx: GameContext, max_profiles: int = 1_000_000) -> PoaResult:
    """Exhaustive price-of-anarchy measurement on a small instance.

    Enumerates every profile, keeps the feasible ones (all members meet
    deadlines under the implied shares), finds the social optimum of the
    utility sum and every Nash equilibrium, and returns the PoA together
    with its upper bound 3 - (G(worst) + G(opt)) / U(opt).
    """
    strategies = ([LOCAL] if ctx.allow_local else []) \
        + list(range(ctx.n_servers))
    m_total = ctx.n_uds
    n_profiles = len(strategies) ** m_total
    if n_profiles > max_profiles:
        raise ValueError(f"enumeration of {n_profiles} profiles exceeds cap")

    best_value = None
    best_profile = None
    n_feasible = 0
    nash: list[tuple[float, tuple]] = []
    for combo in itertools.product(strategies, repeat=m_total):
        profile = np.array(combo, dtype=int)
        total = 0.0
        feasible = True
        equilibrium = True
        sums = MemberSums(profile, ctx)
        for m in range(m_total):
            br = full_best_response(m, profile, ctx, sums)
            cur = int(profile[m])
            if cur not in br.candidates:
                feasible = False
                break
            u_cur = br.utilities[cur]
            total += u_cur
            if br.best_utility < u_cur:
                equilibrium = False
        if not feasible:
            continue
        n_feasible += 1
        if best_value is None or total < best_value:
            best_value, best_profile = total, combo
        if equilibrium:
            nash.append((total, combo))

    if best_value is None:
        raise ValueError("no feasible profile exists")
    if best_value <= 0.0:
        raise ValueError("degenerate instance: optimum utility is zero")
    if not nash:
        raise RuntimeError("no Nash equilibrium found (theory violated)")

    worst_value, worst_profile = max(nash, key=lambda t: t[0])
    g_worst = _queue_potential_term(np.array(worst_profile), ctx)
    g_opt = _queue_potential_term(np.array(best_profile), ctx)
    bound = 3.0 - (g_worst + g_opt) / best_value
    return PoaResult(poa=worst_value / best_value, bound=bound,
                     optimum_value=best_value, worst_nash_value=worst_value,
                     n_feasible=n_feasible, n_nash=len(nash),
                     optimum_profile=tuple(best_profile),
                     worst_nash_profile=tuple(worst_profile))


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


def surrogate_f(xi, q_next, expansion_q, current_q, xi_exp, dt):
    """Tangent lower bound of f(xi, q') = xi^2 + ||q' - q||^2/dt^2."""
    q_next = np.asarray(q_next, dtype=float)
    diff_exp = np.asarray(expansion_q, dtype=float) - current_q
    v2_exp = float(np.dot(diff_exp, diff_exp)) / dt ** 2
    linear = 2.0 / dt ** 2 * float(np.dot(diff_exp, q_next - current_q))
    return xi_exp ** 2 + 2.0 * xi_exp * (xi - xi_exp) - v2_exp + linear


def true_f(xi, q_next, current_q, dt):
    diff = np.asarray(q_next, dtype=float) - current_q
    return xi ** 2 + float(np.dot(diff, diff)) / dt ** 2


def surrogate_g(q_next, expansion_q, ud_position, phi, altitude):
    """Tangent lower bound of the spectral efficiency g at the expansion."""
    d2_exp = float(np.sum((np.asarray(expansion_q) - ud_position) ** 2))
    den = altitude ** 2 + d2_exp
    g_exp = np.log2(1.0 + phi / den)
    slope = phi * LOG2E / (den * (den + phi))
    d2 = float(np.sum((np.asarray(q_next) - ud_position) ** 2))
    return float(g_exp - slope * (d2 - d2_exp))


def true_g(q, ud_position, phi, altitude):
    d2 = float(np.sum((np.asarray(q) - ud_position) ** 2))
    return float(np.log2(1.0 + phi / (altitude ** 2 + d2)))


def surrogate_h(q_i, q_j, expansion_i, expansion_j):
    """Tangent lower bound of ||q_i - q_j||^2 (affine in both positions)."""
    e_exp = np.asarray(expansion_i, dtype=float) - expansion_j
    e = np.asarray(q_i, dtype=float) - q_j
    return float(2.0 * np.dot(e_exp, e) - np.dot(e_exp, e_exp))


def true_h(q_i, q_j):
    e = np.asarray(q_i, dtype=float) - q_j
    return float(np.dot(e, e))


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
