"""Stage 1 with kept member sums against the per-UD rebuild it replaced.

``reference_best_response`` and ``reference_stage1`` are the loop the game
ran before ``MemberSums``: every best response rebuilds all member sums
from the whole profile and prices one server at a time, and every accepted
move recomputes the full ``potential``.  The arithmetic of the utilities,
shares and deadline tests is unchanged, so the fast path must agree with
them exactly; only ``delta_potential`` is computed another way (closed
form), and it is held to the full-recompute difference within a tolerance.
``reference_best_response`` prices and tests every server and keeps the
utilities and candidate sets; ``game.best_response``, which returns only
what a sweep reads, must equal its ``sweep_view``.
"""
import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from uavmec import game
from uavmec.config import paper_profile
from uavmec.engine import APPROACHES, _slot_channel, build_game_context
from uavmec.game import (DEADLINE_SLACK, LOCAL, MemberSums, MoveRecord,
                         best_response, potential, run_stage1)
from uavmec.lyapunov import init_queues
from uavmec.scenario import build_scenario, resample_tasks, step_mobility
from uavmec.verification import (own_utility, random_game_context,
                                 random_profile)

# Closed form and ordered double sums add the same terms in another order,
# so their potential differences part by rounding only: at most 1.6e-15
# absolute on potentials of order 1 over the moves below.  Relative to the
# potential's magnitude, 1e-9 leaves a wide margin; relative to the move's
# own delta it would not, since a zero-size task's forced move is exactly 0
# in closed form and +-4e-16 in the full recompute.
DPHI_RTOL = 1e-9


def joined_sums(m, profile, ctx):
    """Per-server sum(beta), sum(phi) and member count with m joined."""
    onehot = profile[None, :] == np.arange(ctx.n_servers)[:, None]
    sum_b = (ctx.beta * onehot).sum(axis=1)
    sum_p = (ctx.phi * onehot).sum(axis=1)
    counts = onehot.sum(axis=1)
    in_s = onehot[:, m]
    return (sum_b + np.where(in_s, 0.0, ctx.beta[:, m]),
            sum_p + np.where(in_s, 0.0, ctx.phi[:, m]),
            counts + np.where(in_s, 0, 1))


def reference_delay(m, s, joined, ctx):
    """Completion delay of UD m on server s under the re-derived shares."""
    joined_b, joined_p, joined_n = joined
    if ctx.data_bits[m] == 0:
        return 0.0
    if ctx.uniform_shares:
        return float(joined_n[s] * (ctx.trans_base[s, m]
                                    + ctx.exec_base[s, m]))
    w_share = (ctx.phi[s, m] / joined_p[s] if joined_p[s] > 0
               else 1.0 / joined_n[s])
    z_share = (ctx.beta[s, m] / joined_b[s] if joined_b[s] > 0
               else 1.0 / joined_n[s])
    return float(ctx.trans_base[s, m] / w_share
                 + ctx.exec_base[s, m] / z_share)


@dataclass(frozen=True)
class Response:
    """A best response with every server priced and deadline-tested."""
    best: tuple            # all minimizers, ascending strategy order
    best_utility: float
    candidates: tuple      # feasible strategies (deadline-checked)
    utilities: dict        # strategy -> utility over the candidates
    fallback: bool         # no feasible edge and local disallowed


def reference_best_response(m, profile, ctx):
    joined = joined_sums(m, profile, ctx)
    joined_b, joined_p, joined_n = joined

    utilities = {}
    feasible = []
    for s in range(ctx.n_servers):
        queue_term = ctx.queue_weight[s] * ctx.edge_energy[m]
        if ctx.uniform_shares:
            u = queue_term + joined_n[s] * ctx.member_cost[s, m]
        else:
            u = queue_term + ctx.beta[s, m] * joined_b[s] \
                + ctx.phi[s, m] * joined_p[s]
        utilities[s] = float(u)
        if reference_delay(m, s, joined, ctx) \
                <= ctx.deadline[m] + DEADLINE_SLACK:
            feasible.append(s)

    candidates = list(feasible)
    fallback = False
    if ctx.allow_local:
        utilities[LOCAL] = float(ctx.local_cost[m])
        candidates = [LOCAL] + candidates
    elif not candidates:
        candidates = list(range(ctx.n_servers))
        fallback = True
    best_u = min(utilities[a] for a in candidates)
    best = tuple(sorted(a for a in candidates if utilities[a] == best_u))
    return Response(best=best, best_utility=best_u,
                    candidates=tuple(candidates),
                    utilities={a: utilities[a] for a in utilities
                               if a in candidates or a == LOCAL},
                    fallback=fallback)


def sweep_view(br, cur):
    """What ``game.best_response`` returns for a full response ``br`` of a
    UD playing ``cur``: its minimizers, whether ``cur`` is a candidate, and
    the fallback flag."""
    return br.best, cur in br.candidates, br.fallback


def assert_responses_match(m, profile, ctx, sums):
    """``game.best_response`` against the rebuild for UD m; returns the
    reference."""
    ref = reference_best_response(m, profile, ctx)
    assert best_response(m, profile, ctx, sums) \
        == sweep_view(ref, int(profile[m]))
    return ref


def reference_stage1(ctx, initial=None):
    """(profile, sweeps, moves, fallbacks, converged) of the rebuild loop
    from ``initial`` (all-local by default), and for each move the larger
    magnitude of the potential around it.  ``fallbacks`` are the
    (ud, server) pairs flagged in the last sweep."""
    profile = (np.full(ctx.n_uds, LOCAL, dtype=int) if initial is None
               else np.array(initial, dtype=int))
    moves, scales = [], []
    converged = False
    sweeps = 0
    for _ in range(10 * ctx.n_uds + 10):
        sweeps += 1
        changed = False
        fallbacks = []
        for m in range(ctx.n_uds):
            br = reference_best_response(m, profile, ctx)
            cur = int(profile[m])
            if cur in br.best:
                if br.fallback:
                    fallbacks.append((m, cur))
                continue
            if len(br.best) == 1:
                target = br.best[0]
            elif ctx.tiebreak_rng is not None:
                target = br.best[int(ctx.tiebreak_rng.integers(len(br.best)))]
            else:
                target = br.best[0]
            forced = cur not in br.candidates
            dphi = None
            if not ctx.uniform_shares:
                before = potential(profile, ctx)
                profile[m] = target
                after = potential(profile, ctx)
                dphi = after - before
                scales.append(max(abs(before), abs(after)))
                assert forced or dphi < 0.0
            else:
                profile[m] = target
            if br.fallback:
                fallbacks.append((m, target))
            moves.append(MoveRecord(m, cur, target, dphi, forced))
            changed = True
        if not changed:
            converged = True
            break
    return profile, sweeps, moves, fallbacks, converged, scales


def game_variants(rng):
    """Random instances of every stage-1 mode, with the share corner cases
    (no time weight, so beta = 0; no weights at all, so every utility ties)."""
    for i in range(90):
        kind = i % 3
        ctx = random_game_context(rng, m_max=20, n_max=4,
                                  allow_local=kind != 2)
        ctx.uniform_shares = kind == 1
        if i % 10 == 3:
            ctx.gamma_time = 0.0
        elif i % 10 == 7:
            ctx.gamma_time = ctx.gamma_energy = 0.0
        ctx.__post_init__()
        yield ctx


def test_best_response_matches_the_rebuild_exactly():
    rng = np.random.default_rng(20)
    checked = 0
    for ctx in game_variants(rng):
        for _ in range(3):
            profile = random_profile(ctx, rng)
            sums = MemberSums(profile, ctx)
            for m in range(ctx.n_uds):
                assert_responses_match(m, profile, ctx, sums)
                checked += 1
    assert checked > 1500


def test_own_utility_equals_the_reference_utility():
    """``verification.own_utility``, which ``poa_measure`` sums, prices a
    UD's own strategy as the reference does, to the bit."""
    rng = np.random.default_rng(27)
    checked = 0
    for ctx in game_variants(rng):
        profile = random_profile(ctx, rng)
        sums = MemberSums(profile, ctx)
        for m in range(ctx.n_uds):
            cur = int(profile[m])
            utilities = reference_best_response(m, profile, ctx).utilities
            if cur in utilities:
                assert own_utility(m, cur, ctx, sums) == utilities[cur]
                checked += 1
    assert checked > 800


def deadline_at(limit):
    """A deadline d with d + DEADLINE_SLACK == limit exactly, or None."""
    d = limit - DEADLINE_SLACK
    for _ in range(8):
        total = d + DEADLINE_SLACK
        if total == limit:
            return d
        d = np.nextafter(d, np.inf if total < limit else -np.inf)
    return None


def test_best_response_deadline_test_is_exact_to_the_ulp():
    """For every UD/server pair, deadlines whose limit (deadline +
    DEADLINE_SLACK) is exactly the reference completion time, so the edge
    just fits, or one ulp below it, so it just misses: a share or delay
    that rounds differently from the reference changes a candidate set.
    ``game.best_response`` skips the deadline test of a priced-out server
    other than the UD's own, so each pair is also pinned with that server
    as the UD's current strategy, where its ``stays`` flag reports the
    test's outcome whatever the server's price."""
    rng = np.random.default_rng(26)
    pinned = pairs = flips = 0
    for ctx in game_variants(rng):
        base = random_profile(ctx, rng)
        base_sums = MemberSums(base, ctx)
        for s in range(ctx.n_servers):
            for m in range(ctx.n_uds):
                on_s = base.copy()
                on_s[m] = s
                for profile, sums in ((base, base_sums),
                                      (on_s, MemberSums(on_s, ctx))):
                    delay = reference_delay(
                        m, s, joined_sums(m, profile, ctx), ctx)
                    views = []
                    for below in (False, True):
                        limit = (np.nextafter(delay, -np.inf) if below
                                 else delay)
                        deadline = deadline_at(limit)
                        if deadline is None or deadline <= 0.0:
                            continue
                        ctx.deadline[m] = deadline
                        pinned += 1
                        ref = assert_responses_match(m, profile, ctx, sums)
                        views.append(sweep_view(ref, int(profile[m])))
                    if profile is on_s and len(views) == 2:
                        pairs += 1
                        flips += views[0] != views[1]
    # with the server as the current strategy, the fast response sees
    # every pinned deadline decide: just fitting and just missing differ
    assert pinned > 10000 and flips == pairs > 2500


def assert_stage1_matches_the_rebuild_loop(ctx, rng_seed, initial=None):
    """run_stage1 against reference_stage1 from the same ``initial`` profile
    under equal tie-break draws; returns (result, moves, forced moves)."""
    ctx.tiebreak_rng = np.random.default_rng(rng_seed)
    result = run_stage1(ctx, initial)
    ctx.tiebreak_rng = np.random.default_rng(rng_seed)
    profile, sweeps, moves, fallbacks, converged, scales = \
        reference_stage1(ctx, initial)
    np.testing.assert_array_equal(result.profile, profile)
    assert (result.sweeps, result.deadline_fallbacks, result.converged) \
        == (sweeps, fallbacks, converged)
    assert len(result.moves) == len(moves)
    for fast, ref in zip(result.moves, moves):
        assert (fast.ud, fast.old, fast.new, fast.forced) \
            == (ref.ud, ref.old, ref.new, ref.forced)
    if ctx.uniform_shares:
        assert all(mv.delta_potential is None for mv in result.moves)
    else:
        for fast, ref, scale in zip(result.moves, moves, scales):
            assert abs(fast.delta_potential - ref.delta_potential) \
                <= DPHI_RTOL * scale
    return result, len(moves), sum(mv.forced for mv in moves)


def test_stage1_matches_the_rebuild_loop():
    rng = np.random.default_rng(21)
    n_moves = n_forced = 0
    for i, ctx in enumerate(game_variants(rng)):
        _, moves, forced = assert_stage1_matches_the_rebuild_loop(ctx, i)
        n_moves += moves
        n_forced += forced
    assert n_moves > 500 and n_forced > 100


def test_stage1_matches_the_rebuild_loop_at_the_paper_shape():
    """Contexts of real paper-profile slots (M = 60, N = 4), every approach;
    queue weights are nonzero from the second slot on.  Each context is
    solved from all-local and, as in the slot loop, from its approach's
    previous equilibrium (all-local in the first slot), so the warm starts
    are held to the rebuild loop too: EO UDs forced off a server that no
    longer meets their deadline, and ERA's uniform-share game."""
    n_moves = n_forced = 0
    warm = dict.fromkeys(APPROACHES, 0)     # moves after a warm start
    eo_warm_forced = 0
    for seed in (0, 1, 2):
        world = build_scenario(paper_profile(seed=seed))
        cfg = world.config
        queues = init_queues(cfg.num_suavs, *cfg.budget_split())
        rng = np.random.default_rng(seed)
        last = dict.fromkeys(APPROACHES, world.profile)
        for slot in range(3):
            rates, _ = _slot_channel(world)
            for name, spec in APPROACHES.items():
                ctx = build_game_context(world, queues, spec, rates)
                assert (ctx.n_uds, ctx.n_suavs) == (60, 4)
                _, moves, forced = assert_stage1_matches_the_rebuild_loop(
                    ctx, seed)
                n_moves += moves
                n_forced += forced
                result, moves, forced = \
                    assert_stage1_matches_the_rebuild_loop(ctx, seed,
                                                           last[name])
                last[name] = result.profile
                if slot:
                    warm[name] += moves
                    eo_warm_forced += forced if name == "EO" else 0
            queues.q_c = rng.uniform(0.0, 3.0, cfg.num_suavs) \
                * queues.budget_c
            step_mobility(world)
            resample_tasks(world)
            world.slot += 1
    assert n_moves > 3000 and n_forced > 500
    assert min(warm.values()) > 100 and eo_warm_forced > 30


def test_stage1_prices_a_stay_only_after_a_move(monkeypatch):
    """A UD that stayed, with no move since, is not priced again.  On paper
    slots (FLP, and EO at binding deadlines, where skipped UDs carry a
    fallback) fewer best responses run than sweeps x M, and stage 1 still
    matches the rebuild loop, which prices every UD on every sweep."""
    priced = []

    def counted(m, *args):
        priced.append(m)
        return best_response(m, *args)

    monkeypatch.setattr(game, "best_response", counted)
    binding = dict(deadline_range=(0.05, 0.15), data_bits_range=(0.0, 1e6))
    skipped_fallbacks = 0
    for approach, overrides in (("FLP", {}), ("EO", binding)):
        world = build_scenario(paper_profile(seed=0, **overrides))
        cfg = world.config
        queues = init_queues(cfg.num_suavs, *cfg.budget_split())
        queues.q_c = np.random.default_rng(0).uniform(
            0.0, 3.0, cfg.num_suavs) * queues.budget_c
        rates, _ = _slot_channel(world)
        ctx = build_game_context(world, queues, APPROACHES[approach], rates)
        priced.clear()
        ctx.tiebreak_rng = np.random.default_rng(0)
        result = run_stage1(ctx)
        assert len(priced) < result.sweeps * ctx.n_uds
        # UDs visit in ascending order, and every sweep after the first
        # prices the last mover of the one before, so a sweep starts
        # where the UD index fails to rise
        starts = [i for i in range(1, len(priced))
                  if priced[i] <= priced[i - 1]]
        assert len(starts) == result.sweeps - 1
        last_sweep = set(priced[starts[-1]:])
        skipped_fallbacks += sum(m not in last_sweep
                                 for m, _ in result.deadline_fallbacks)
        assert_stage1_matches_the_rebuild_loop(ctx, 0)
    assert skipped_fallbacks > 0


def test_kept_sums_equal_a_fresh_build_after_random_moves():
    """``move`` between any two strategies, LOCAL included, leaves the sums
    of a fresh build."""
    rng = np.random.default_rng(22)
    checked = 0
    local_moves = [0, 0]          # moves from LOCAL, moves to LOCAL
    for ctx in game_variants(rng):
        profile = random_profile(ctx, rng)
        sums = MemberSums(profile, ctx)
        strategies = [LOCAL, *range(ctx.n_servers)]
        for _ in range(30):
            m = int(rng.integers(ctx.n_uds))
            cur, new = int(profile[m]), int(rng.choice(strategies))
            before = profile.copy()
            phi_before = sums.move_potential(m, cur, (cur, new))
            profile[m] = new
            sums.move(m, cur, new)
            local_moves[0] += cur == LOCAL != new
            local_moves[1] += new == LOCAL != cur
            fresh = MemberSums(profile, ctx)
            assert sums.totals == fresh.totals
            assert sums.members == fresh.members
            onehot = profile == np.arange(ctx.n_servers)[:, None]
            # each row as the masked reduction of one server alone
            assert sums.totals == [
                (ctx.member_terms[s] * onehot[s]).sum(axis=1).tolist()
                for s in range(ctx.n_servers)]
            assert np.array_equal(
                sums.totals, (ctx.member_terms * onehot[:, None]).sum(axis=2))
            assert sums.members == onehot.sum(axis=1).tolist()
            if ctx.uniform_shares:
                continue
            full = (potential(before, ctx), potential(profile, ctx))
            dphi = sums.move_potential(m, new, (cur, new)) - phi_before
            assert abs(dphi - (full[1] - full[0])) \
                <= DPHI_RTOL * max(map(abs, full))
            checked += 1
    assert checked > 1000 and min(local_moves) > 100


class LastOfTies:
    """Tie-break stand-in that records its draws and takes the last tie."""

    def __init__(self):
        self.draws = 0

    def integers(self, n):
        self.draws += 1
        return n - 1


def test_context_fields_read_live_and_fields_that_need_a_rebuild():
    rng = np.random.default_rng(24)
    ctx = random_game_context(rng, m_max=8, n_max=3, allow_zero_tasks=False)
    ctx.deadline[:] = 10.0
    profile = random_profile(ctx, rng)
    sums = MemberSums(profile, ctx)

    def respond():
        """The reference response, with the slot route held to it."""
        return assert_responses_match(0, profile, ctx, sums)

    base = respond()
    assert base.candidates == (LOCAL, *range(ctx.n_servers))
    ctx.deadline[0] = 1e-9                # live: no edge fits any more
    assert respond().candidates == (LOCAL,)
    ctx.allow_local = False               # live: nothing left but fallback
    assert respond().fallback
    ctx.deadline[0] = 10.0
    ctx.allow_local = True
    assert respond() == base
    ctx.uniform_shares = True             # live: priced by headcount
    assert respond().utilities != base.utilities
    ctx.uniform_shares = False

    # rates feed the per-UD rows: no effect until __post_init__ reruns
    ctx.rates *= 0.5
    assert respond() == base
    ctx.__post_init__()
    sums = MemberSums(profile, ctx)
    assert respond().utilities != base.utilities


def test_tiebreak_rng_is_read_live():
    rng = np.random.default_rng(25)
    drawn = 0
    for _ in range(20):
        ctx = random_game_context(rng, m_max=8, n_max=2,
                                  allow_zero_tasks=False)
        if ctx.n_suavs < 2:
            continue
        # indistinguishable SUAVs, so a UD joining an empty one ties
        ctx.rates[1] = ctx.rates[0]
        ctx.queue_weight[1] = ctx.queue_weight[0]
        ctx.__post_init__()
        ctx.tiebreak_rng = None
        first = run_stage1(ctx).profile
        ctx.tiebreak_rng = LastOfTies()
        last = run_stage1(ctx).profile
        if ctx.tiebreak_rng.draws:
            drawn += 1
            assert not np.array_equal(first, last)
        else:
            np.testing.assert_array_equal(first, last)
    assert drawn >= 3


def test_descent_check_raises_when_the_potential_rises(monkeypatch):
    rising = itertools.count()
    monkeypatch.setattr(MemberSums, "server_potential",
                        lambda self, s: 1e9 * next(rising))
    rng = np.random.default_rng(23)
    ctx = random_game_context(rng, m_max=8, allow_zero_tasks=False)
    with pytest.raises(RuntimeError, match="potential failed to decrease"):
        run_stage1(ctx)

    # a forced move leaves a deadline-infeasible server: exempt, even uphill
    ctx.deadline[:] = 1e-9
    result = run_stage1(ctx, initial=np.zeros(ctx.n_uds, dtype=int))
    assert result.moves
    for move in result.moves:
        assert move.forced and move.new == LOCAL
        assert move.delta_potential > 0.0
    assert np.all(result.profile == LOCAL)
