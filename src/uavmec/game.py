"""Per-slot task-offloading game and its best-response solver.

Strategies are encoded as integers: LOCAL (-1) or a server index 0..S-1 where
indices 0..N-1 are SUAVs and index N is the LUAV.  Edge utilities are
evaluated under the closed-form optimal shares, which reduces them to

    U_m(s, A) = qw_s * e_c[m] + beta[s,m] * sum_beta + phi[s,m] * sum_phi

with beta/phi the square-root weights of the allocation module and the sums
running over the members of s (m included).  That form is what makes the
ordered-double-sum potential below exact.

Stage 1 keeps those member sums in a ``MemberSums`` object across moves, so
a best response costs O(S) and an accepted move O(M) for the two servers it
touches.  Because the ordered double sum of one server equals
1/2 [(sum x)^2 + sum x^2], the same sums give the potential of a server in
closed form, and the strict-descent check on each move costs O(1).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .allocation import allocate, uniform_allocation, AllocationResult

LOCAL = -1
DEADLINE_SLACK = 1e-12


@dataclass
class GameContext:
    """Immutable per-slot snapshot consumed by stage 1.

    ``rates`` holds full-band transmission rates, shape (S, M) with the LUAV
    last.  ``queue_weight`` is Q_n^c/V for SUAV rows and 0 for the LUAV.
    """
    n_suavs: int
    data_bits: np.ndarray
    cycles_per_bit: np.ndarray
    deadline: np.ndarray
    ud_compute: np.ndarray
    rates: np.ndarray
    f_max: np.ndarray
    queue_weight: np.ndarray
    tx_power: np.ndarray
    gamma_time: float
    gamma_energy: float
    capacitance: float
    energy_per_cycle: float
    allow_local: bool = True
    uniform_shares: bool = False
    tiebreak_rng: np.random.Generator | None = None

    # derived arrays, filled in __post_init__
    beta: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    edge_energy: np.ndarray = field(init=False, repr=False)
    local_cost: np.ndarray = field(init=False, repr=False)
    local_exec: np.ndarray = field(init=False, repr=False)
    trans_base: np.ndarray = field(init=False, repr=False)
    exec_base: np.ndarray = field(init=False, repr=False)
    member_cost: np.ndarray = field(init=False, repr=False)
    member_terms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.data_bits
        eta = self.cycles_per_bit
        load = self.gamma_time * d + self.gamma_energy * self.tx_power * d
        self.beta = np.sqrt(self.gamma_time * eta * d
                            / self.f_max[:, None])
        self.phi = np.sqrt(load[None, :] / self.rates)
        self.edge_energy = self.energy_per_cycle * eta * d
        self.local_exec = eta * d / self.ud_compute
        self.local_cost = (self.gamma_time * self.local_exec
                           + self.gamma_energy * self.capacitance
                           * self.ud_compute ** 2 * eta * d)
        # per-member building blocks: D/r and eta*D/F
        self.trans_base = d[None, :] / self.rates
        self.exec_base = (eta * d)[None, :] / self.f_max[:, None]
        # uniform-share mode: utility = queue + |M_s| * member_cost
        self.member_cost = (self.gamma_time
                            * (self.trans_base + self.exec_base)
                            + self.gamma_energy
                            * (self.tx_power * d)[None, :] / self.rates)
        # per-server rows summed over members by MemberSums, shape (S, 5, M)
        self.member_terms = np.stack(
            [self.beta, self.phi, self.beta ** 2, self.phi ** 2,
             np.broadcast_to(self.edge_energy, self.beta.shape)], axis=1)

    @property
    def n_servers(self) -> int:
        return self.n_suavs + 1

    @property
    def n_uds(self) -> int:
        return len(self.data_bits)


class MemberSums:
    """Per-server sums over the members of a profile, kept across moves.

    ``totals[s]`` holds sum(beta), sum(phi), sum(beta^2), sum(phi^2) and the
    summed edge energy over the members of server s; ``count[s]`` is their
    number.  Each row is rebuilt by the same reduction as a fresh build,
    ``(x[s] * (profile == s)).sum()``, so the sums after any sequence of
    ``refresh`` calls equal a fresh build bit for bit, and no utility,
    deadline test or tie depends on the order of earlier moves.
    """

    def __init__(self, profile: np.ndarray, ctx: GameContext):
        self.ctx = ctx
        self.totals = np.empty((ctx.n_servers, 5))
        self.count = np.empty(ctx.n_servers, dtype=int)
        for s in range(ctx.n_servers):
            self.refresh(profile, s)

    @property
    def sum_b(self) -> np.ndarray:
        return self.totals[:, 0]

    @property
    def sum_p(self) -> np.ndarray:
        return self.totals[:, 1]

    def refresh(self, profile: np.ndarray, s: int) -> None:
        """Rebuild the sums of server ``s`` (no-op for LOCAL) from
        ``profile``; O(M)."""
        if s == LOCAL:
            return
        mask = profile == s
        self.totals[s] = (self.ctx.member_terms[s] * mask).sum(axis=1)
        self.count[s] = np.count_nonzero(mask)

    def server_potential(self, s: int) -> float:
        """Potential terms of server ``s`` in closed form:
        1/2 [(sum b)^2 + sum b^2] + 1/2 [(sum p)^2 + sum p^2] + qw_s sum E,
        which equals ``potential``'s ordered double sums over its members
        plus its queue term."""
        b, p, b2, p2, e = self.totals[s].tolist()
        return (0.5 * (b * b + b2) + 0.5 * (p * p + p2)
                + float(self.ctx.queue_weight[s]) * e)

    def move_potential(self, m: int, strategy: int, servers) -> float:
        """The part of the potential a move of UD m among ``servers`` can
        change, with m playing ``strategy``: the closed-form terms of those
        servers plus m's local cost if it computes locally."""
        total = float(self.ctx.local_cost[m]) if strategy == LOCAL else 0.0
        for s in servers:
            if s != LOCAL:
                total += self.server_potential(s)
        return total


def utility(m: int, strategy: int, profile: np.ndarray,
            ctx: GameContext) -> float:
    """Utility (a cost; lower is better) of UD m playing ``strategy``."""
    if strategy == LOCAL:
        return float(ctx.local_cost[m])
    s = strategy
    mask = profile == s
    mask = mask.copy()
    mask[m] = True
    queue_term = ctx.queue_weight[s] * ctx.edge_energy[m]
    if ctx.uniform_shares:
        return float(queue_term + mask.sum() * ctx.member_cost[s, m])
    sum_b = ctx.beta[s][mask].sum()
    sum_p = ctx.phi[s][mask].sum()
    return float(queue_term + ctx.beta[s, m] * sum_b + ctx.phi[s, m] * sum_p)


@dataclass
class BestResponse:
    best: tuple            # all minimizers, ascending strategy order
    best_utility: float
    candidates: tuple      # feasible strategies (deadline-checked)
    utilities: dict        # strategy -> utility over the candidates
    fallback: bool = False  # no feasible edge and local disallowed


def best_response(m: int, profile: np.ndarray, ctx: GameContext,
                  sums: MemberSums) -> BestResponse:
    """Best strategies for UD m holding everyone else fixed.

    ``sums`` must hold the member sums of ``profile``; every server is then
    priced in O(1).  Edge candidates must meet the task deadline under the
    re-derived shares with m as a member; local computing is always a
    candidate when allowed.  When nothing is feasible (entire-offloading
    mode under pressure) every edge option becomes a candidate and the
    result is flagged.
    """
    # member sums of every server with m joined (m's own server unchanged)
    cur = int(profile[m])
    joined_b = sums.sum_b + ctx.beta[:, m]
    joined_p = sums.sum_p + ctx.phi[:, m]
    joined_n = sums.count + 1
    if cur != LOCAL:
        joined_b[cur] = sums.sum_b[cur]
        joined_p[cur] = sums.sum_p[cur]
        joined_n[cur] = sums.count[cur]

    queue_term = ctx.queue_weight * ctx.edge_energy[m]
    if ctx.uniform_shares:
        u = queue_term + joined_n * ctx.member_cost[:, m]
    else:
        u = queue_term + ctx.beta[:, m] * joined_b + ctx.phi[:, m] * joined_p
    utilities: dict[int, float] = dict(enumerate(u.tolist()))

    # completion delay on each server under the re-derived shares
    if ctx.data_bits[m] == 0:
        delay = np.zeros(ctx.n_servers)
    elif ctx.uniform_shares:
        delay = joined_n * (ctx.trans_base[:, m] + ctx.exec_base[:, m])
    else:
        w_share = np.divide(1.0, joined_n)
        np.divide(ctx.phi[:, m], joined_p, out=w_share, where=joined_p > 0)
        z_share = np.divide(1.0, joined_n)
        np.divide(ctx.beta[:, m], joined_b, out=z_share, where=joined_b > 0)
        delay = ctx.trans_base[:, m] / w_share + ctx.exec_base[:, m] / z_share
    fits = delay <= ctx.deadline[m] + DEADLINE_SLACK

    candidates = [s for s, ok in enumerate(fits.tolist()) if ok]
    fallback = False
    if ctx.allow_local:
        utilities[LOCAL] = float(ctx.local_cost[m])
        candidates = [LOCAL] + candidates
    elif not candidates:
        candidates = list(range(ctx.n_servers))
        fallback = True

    best_u = min(utilities[a] for a in candidates)
    best = tuple(sorted(a for a in candidates if utilities[a] == best_u))
    return BestResponse(best=best, best_utility=best_u,
                        candidates=tuple(candidates),
                        utilities={a: utilities[a] for a in utilities
                                   if a in candidates or a == LOCAL},
                        fallback=fallback)


def potential(profile: np.ndarray, ctx: GameContext) -> float:
    """Exact potential of the offloading game (optimal-share utilities).

    Sum of local costs of local players, plus per-server queue terms and the
    ordered double sums sum_i x_i * sum_{j<=i} x_j of the beta/phi weights,
    with UD index as the order.
    """
    if ctx.uniform_shares:
        raise ValueError("potential is defined for the optimal-share game")
    total = float(ctx.local_cost[profile == LOCAL].sum())
    for s in range(ctx.n_servers):
        idx = np.flatnonzero(profile == s)
        if len(idx) == 0:
            continue
        b = ctx.beta[s, idx]
        p = ctx.phi[s, idx]
        total += ctx.queue_weight[s] * ctx.edge_energy[idx].sum()
        total += float(np.dot(b, np.cumsum(b)) + np.dot(p, np.cumsum(p)))
    return total


@dataclass
class MoveRecord:
    ud: int
    old: int
    new: int
    delta_utility: float
    delta_potential: float | None
    forced: bool


@dataclass
class Stage1Result:
    profile: np.ndarray
    allocation: AllocationResult
    sweeps: int
    moves: list
    converged: bool
    deadline_fallbacks: list  # (ud, server) pairs that had no feasible edge


def run_stage1(ctx: GameContext,
               initial: np.ndarray | None = None) -> Stage1Result:
    """Best-response sweeps from the all-local profile to a fixed point.

    UDs are visited in ascending index order (Gauss-Seidel: every accepted
    move is visible to the next UD).  A UD moves only when a candidate
    strictly improves on its current utility, except when its current choice
    has become deadline-infeasible, in which case the move is forced.  Ties
    among new best strategies are broken with the context RNG.

    The member sums are built once and each accepted move refreshes the two
    servers it touches.  For the optimal-share game the potential must
    strictly decrease at each non-forced move (checked; a violation means
    the utility algebra is broken) and sweeps must reach a fixed point
    within the cap.  The check compares the closed-form potential terms of
    the two touched servers, plus the mover's local cost, before and after
    the move: it is derived from the potential's definition, not from the
    utilities, and costs O(1); ``MoveRecord.delta_potential`` records that
    difference.  The uniform-share variant has no such guarantee, so
    hitting the cap there just returns the current profile flagged
    unconverged.
    """
    m_total = ctx.n_uds
    profile = (np.full(m_total, LOCAL, dtype=int) if initial is None
               else np.asarray(initial, dtype=int).copy())
    sums = MemberSums(profile, ctx)
    moves: list[MoveRecord] = []
    fallbacks: list[tuple[int, int]] = []
    max_sweeps = 10 * m_total + 10
    converged = False
    sweeps = 0
    track_potential = not ctx.uniform_shares

    for _ in range(max_sweeps):
        sweeps += 1
        changed = False
        for m in range(m_total):
            br = best_response(m, profile, ctx, sums)
            cur = int(profile[m])
            if cur in br.best:
                continue
            if len(br.best) == 1:
                target = br.best[0]
            elif ctx.tiebreak_rng is not None:
                target = br.best[int(ctx.tiebreak_rng.integers(len(br.best)))]
            else:
                target = br.best[0]
            forced = cur not in br.candidates
            u_cur = (br.utilities[cur] if cur in br.utilities
                     else utility(m, cur, profile, ctx))
            du = br.best_utility - u_cur
            dphi = None
            if track_potential:
                before = sums.move_potential(m, cur, (cur, target))
            profile[m] = target
            sums.refresh(profile, cur)
            sums.refresh(profile, target)
            if track_potential:
                dphi = sums.move_potential(m, target, (cur, target)) - before
                if not forced and not dphi < 0.0:
                    raise RuntimeError(
                        f"potential failed to decrease on move of UD {m} "
                        f"({cur} -> {target}, delta={dphi:.3e})")
            if br.fallback:
                fallbacks.append((m, target))
            moves.append(MoveRecord(m, cur, target, float(du), dphi, forced))
            changed = True
        if not changed:
            converged = True
            break

    if not converged and not ctx.uniform_shares:
        raise RuntimeError(
            "FIP violation: best-response sweeps exceeded the cap; "
            "the potential-game property should make this unreachable")

    alloc = (uniform_allocation(profile, ctx) if ctx.uniform_shares
             else allocate(profile, ctx))
    return Stage1Result(profile=profile, allocation=alloc, sweeps=sweeps,
                        moves=moves, converged=converged,
                        deadline_fallbacks=fallbacks)


def is_nash(profile: np.ndarray, ctx: GameContext):
    """(True, None) if no UD has a strictly improving feasible deviation.

    Raises when the profile itself is infeasible (some member's deadline is
    already violated), since equilibrium is defined over feasible profiles.
    """
    profile = np.asarray(profile, dtype=int)
    sums = MemberSums(profile, ctx)
    for m in range(ctx.n_uds):
        br = best_response(m, profile, ctx, sums)
        cur = int(profile[m])
        if cur not in br.candidates:
            raise ValueError(
                f"profile infeasible: UD {m} misses its deadline on {cur}")
        if br.best_utility < br.utilities[cur]:
            return False, (m, br.best[0])
    return True, None


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
            br = best_response(m, profile, ctx, sums)
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
