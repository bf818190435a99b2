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

Stage 1 runs best-response sweeps from a given profile: the slot loop
starts each slot's sweeps from the previous slot's equilibrium (all-local
in the first slot).  Since the game has an exact potential, the sweeps
reach a Nash equilibrium from any start (Monderer & Shapley 1996).

A best response prices the S servers in one Python loop over Python floats:
``GameContext.ud_rows[m]`` holds UD m's per-server constants and
``MemberSums`` keeps the member sums as lists, so no NumPy call is made
per server (S is at most a handful, where NumPy's per-call cost would
dominate).  Python and NumPy round float64 add, multiply and divide alike,
so evaluating the same expressions in the same grouping gives the same bits
as an array evaluation would; the tests hold it to an array reference.

A best response returns only what a sweep reads (the minimizers, whether
the UD's current strategy is still a candidate, and the fallback flag),
and it skips the deadline test of any server other than the UD's own
that is priced above the running best, since such a server can never be
a minimizer.  The response that prices and tests every server, with its
utilities and candidate set, is an oracle and lives in ``verification``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocation import allocate, uniform_allocation, AllocationResult

LOCAL = -1
DEADLINE_SLACK = 1e-12


@dataclass
class GameContext:
    """Per-slot inputs of stage 1 and the per-UD constants derived from them.

    ``rates`` holds full-band transmission rates, shape (S, M) with the LUAV
    last.  ``queue_weight`` is Q_n^c/V for SUAV rows and 0 for the LUAV.
    ``tx_power`` is the one transmit power every UD uses.

    ``deadline``, ``allow_local``, ``uniform_shares`` and ``tiebreak_rng``
    are read live on every use, so they may be edited in place between
    calls.  Everything else feeds the derived fields built by
    ``__post_init__``: after editing ``rates``, ``f_max``, ``queue_weight``,
    the task data (``data_bits``, ``cycles_per_bit``, ``ud_compute``,
    ``tx_power``) or ``gamma_time``/``gamma_energy``, call
    ``__post_init__()`` again.
    """
    n_suavs: int
    data_bits: np.ndarray
    cycles_per_bit: np.ndarray
    deadline: np.ndarray
    ud_compute: np.ndarray
    rates: np.ndarray
    f_max: np.ndarray
    queue_weight: np.ndarray
    tx_power: float
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
    trans_base: np.ndarray = field(init=False, repr=False)
    exec_base: np.ndarray = field(init=False, repr=False)
    member_cost: np.ndarray = field(init=False, repr=False)
    member_terms: np.ndarray = field(init=False, repr=False)
    ud_rows: list = field(init=False, repr=False)
    queue_weight_list: list = field(init=False, repr=False)

    def __post_init__(self):
        d = self.data_bits
        eta = self.cycles_per_bit
        load = self.gamma_time * d + self.gamma_energy * self.tx_power * d
        self.beta = np.sqrt(self.gamma_time * eta * d
                            / self.f_max[:, None])
        self.phi = np.sqrt(load[None, :] / self.rates)
        self.edge_energy = self.energy_per_cycle * eta * d
        local_exec = eta * d / self.ud_compute
        self.local_cost = (self.gamma_time * local_exec
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
        # what one best response reads, as Python floats: per UD the
        # per-server beta, phi, D/r, eta*D/F and uniform-share cost, then
        # its edge energy, local cost and zero-size flag
        self.ud_rows = list(zip(
            self.beta.T.tolist(), self.phi.T.tolist(),
            self.trans_base.T.tolist(), self.exec_base.T.tolist(),
            self.member_cost.T.tolist(), self.edge_energy.tolist(),
            self.local_cost.tolist(), (d == 0).tolist()))
        self.queue_weight_list = self.queue_weight.tolist()

    @property
    def n_servers(self) -> int:
        return self.n_suavs + 1

    @property
    def n_uds(self) -> int:
        return len(self.data_bits)


class MemberSums:
    """Per-server sums over the members of a profile, kept across moves.

    ``totals[s]`` holds sum(beta), sum(phi), sum(beta^2), sum(phi^2) and the
    summed edge energy over the members of server s, as a list of Python
    floats; ``members[s]`` is their number.  ``kept[s]`` holds the masked
    product ``member_terms[s] * (profile == s)``, which ``move`` edits by
    one column and re-reduces, so the sums after any sequence of moves
    equal a fresh build bit for bit, and no utility, deadline test or tie
    depends on the order of earlier moves.
    """

    def __init__(self, profile: np.ndarray, ctx: GameContext):
        self.ctx = ctx
        onehot = np.asarray(profile) == np.arange(ctx.n_servers)[:, None]
        self.kept = ctx.member_terms * onehot[:, None, :]
        self.totals = self.kept.sum(axis=2).tolist()
        self.members = onehot.sum(axis=1).tolist()

    def move(self, m: int, old: int, new: int) -> None:
        """UD m leaves ``old`` for ``new``; either may be LOCAL."""
        for s, mask, step in ((old, 0.0, -1), (new, 1.0, 1)):
            if s != LOCAL:
                self.kept[s, :, m] = self.ctx.member_terms[s, :, m] * mask
                self.totals[s] = self.kept[s].sum(axis=1).tolist()
                self.members[s] += step

    def server_potential(self, s: int) -> float:
        """Potential terms of server ``s`` in closed form:
        1/2 [(sum b)^2 + sum b^2] + 1/2 [(sum p)^2 + sum p^2] + qw_s sum E,
        which equals ``potential``'s ordered double sums over its members
        plus its queue term."""
        b, p, b2, p2, e = self.totals[s]
        return (0.5 * (b * b + b2) + 0.5 * (p * p + p2)
                + self.ctx.queue_weight_list[s] * e)

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


def best_response(m: int, profile: np.ndarray, ctx: GameContext,
                  sums: MemberSums) -> tuple:
    """Best strategies for UD m holding everyone else fixed, as the three
    things a sweep reads: ``(best, stays, fallback)``.

    ``best`` holds all minimizers in ascending strategy order; ``stays``
    says whether m's current strategy is still a candidate (a move off a
    strategy that is not is forced); ``fallback`` flags a response with no
    feasible edge and local computing disallowed.  ``sums`` must hold the
    member sums of ``profile``; every server is then priced in O(1).  Edge
    candidates must meet the task deadline under the re-derived shares
    with m as a member; local computing is always a candidate when
    allowed.  When nothing is feasible (entire-offloading mode under
    pressure) every edge option becomes a candidate and the result is
    flagged.

    A server other than m's own that is priced above the running best is
    not deadline-tested: the running best never rises, so it cannot be a
    minimizer, and a running best exists only once local computing or a
    feasible edge is a candidate, so the fallback is already ruled out.
    ``verification.full_best_response`` prices and tests every server.
    """
    beta, phi, trans, exe, member_cost, energy, local_cost, empty = \
        ctx.ud_rows[m]
    cur = int(profile[m])
    uniform = ctx.uniform_shares
    limit = float(ctx.deadline[m]) + DEADLINE_SLACK
    if ctx.allow_local:
        best_u, best, stays = local_cost, [LOCAL], cur == LOCAL
    else:
        best_u, best, stays = None, [], False
    prices = []
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
        if s != cur and best_u is not None and u > best_u:
            continue        # priced out: its deadline decides nothing
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
            stays = stays or s == cur
            if best_u is None or u < best_u:
                best_u, best = u, [s]
            elif u == best_u:
                best.append(s)

    if best_u is None:                # every edge a candidate, flagged
        best_u = min(prices)
        return (tuple(s for s, u in enumerate(prices) if u == best_u),
                cur != LOCAL, True)
    return tuple(best), stays, False


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


@dataclass(slots=True)
class MoveRecord:
    ud: int
    old: int
    new: int
    delta_potential: float | None
    forced: bool


@dataclass
class Stage1Result:
    profile: np.ndarray
    allocation: AllocationResult
    sweeps: int
    moves: list
    converged: bool
    deadline_fallbacks: list  # (ud, server) pairs on a fallback at the end


def run_stage1(ctx: GameContext,
               initial: np.ndarray | None = None) -> Stage1Result:
    """Best-response sweeps from ``initial`` to a fixed point.

    ``initial`` defaults to the all-local profile; the slot loop passes the
    previous slot's equilibrium, from which an exact potential game reaches
    an equilibrium as it does from any other start.

    UDs are visited in ascending index order (Gauss-Seidel: every accepted
    move is visible to the next UD).  A UD moves only when a candidate
    strictly improves on its current utility, except when its current choice
    has become deadline-infeasible, in which case the move is forced.  Ties
    among new best strategies are broken with the context RNG.

    The member sums are built once and each accepted move updates the two
    servers it touches.  A UD that stayed, with no move since, is not priced
    again: its response would be the same stay, which draws no tie-break.
    For the optimal-share game the potential must strictly decrease at each
    non-forced move (checked; a violation means the utility algebra is
    broken) and sweeps must reach a fixed point within the cap.  The check
    compares the closed-form potential terms of the two touched servers,
    plus the mover's local cost, before and after the move: it is derived
    from the potential's definition, not from the utilities, and costs
    O(1); ``MoveRecord.delta_potential`` records that difference.  The
    uniform-share variant has no such guarantee, so hitting the cap there
    just returns the current profile flagged unconverged.

    ``deadline_fallbacks`` lists the UDs whose best response in the last
    sweep was a fallback (no feasible edge and local disallowed), with the
    server each ends on (a skipped stay keeps its last flag).  A converged
    last sweep moves no UD, so these are exactly the UDs that have no
    feasible edge in the final profile.
    """
    m_total = ctx.n_uds
    strategy = ([LOCAL] * m_total if initial is None
                else np.asarray(initial, dtype=int).tolist())
    sums = MemberSums(strategy, ctx)
    last = [(-1, None)] * m_total   # per UD: move count, best response
    moves: list[MoveRecord] = []
    max_sweeps = 10 * m_total + 10
    converged = False
    track_potential = not ctx.uniform_shares

    for sweeps in range(1, max_sweeps + 1):
        changed = False
        fallbacks: list[tuple[int, int]] = []
        for m in range(m_total):
            cur = strategy[m]
            seen, br = last[m]
            if seen != len(moves):    # else m stayed and nothing has moved
                br = best_response(m, strategy, ctx, sums)
                last[m] = (len(moves), br)
            best, stays, fallback = br
            if cur in best:
                if fallback:
                    fallbacks.append((m, cur))
                continue
            if len(best) == 1:
                target = best[0]
            elif ctx.tiebreak_rng is not None:
                target = best[int(ctx.tiebreak_rng.integers(len(best)))]
            else:
                target = best[0]
            forced = not stays
            dphi = None
            if track_potential:
                before = sums.move_potential(m, cur, (cur, target))
            strategy[m] = target
            sums.move(m, cur, target)
            if track_potential:
                dphi = sums.move_potential(m, target, (cur, target)) - before
                if not forced and not dphi < 0.0:
                    raise RuntimeError(
                        f"potential failed to decrease on move of UD {m} "
                        f"({cur} -> {target}, delta={dphi:.3e})")
            if fallback:
                fallbacks.append((m, target))
            moves.append(MoveRecord(m, cur, target, dphi, forced))
            changed = True
        if not changed:
            converged = True
            break

    profile = np.array(strategy, dtype=int)
    if not converged and not ctx.uniform_shares:
        raise RuntimeError(
            "FIP violation: best-response sweeps exceeded the cap; "
            "the potential-game property should make this unreachable")

    alloc = (uniform_allocation(profile, ctx) if ctx.uniform_shares
             else allocate(profile, ctx))
    return Stage1Result(profile=profile, allocation=alloc, sweeps=sweeps,
                        moves=moves, converged=converged,
                        deadline_fallbacks=fallbacks)
