"""Stage 1 with kept member sums against the per-UD rebuild it replaced.

``reference_best_response`` and ``reference_stage1`` are the loop the game
ran before ``MemberSums``: every best response rebuilds all member sums
from the whole profile and prices one server at a time, and every accepted
move recomputes the full ``potential``.  The arithmetic of the utilities,
shares and deadline tests is unchanged, so the fast path must agree with
them exactly; only ``delta_potential`` is computed another way (closed
form), and it is held to the full-recompute difference within a tolerance.
"""
import itertools

import numpy as np
import pytest

from uavmec.game import (DEADLINE_SLACK, LOCAL, BestResponse, MemberSums,
                         MoveRecord, best_response, potential, run_stage1,
                         utility)
from uavmec.verification import random_game_context, random_profile

# Closed form and ordered double sums add the same terms in another order,
# so their potential differences part by rounding only: at most 1.6e-15
# absolute on potentials of order 1 over the moves below.  Relative to the
# potential's magnitude, 1e-9 leaves a wide margin; relative to the move's
# own delta it would not, since a zero-size task's forced move is exactly 0
# in closed form and +-4e-16 in the full recompute.
DPHI_RTOL = 1e-9


def reference_best_response(m, profile, ctx):
    onehot = profile[None, :] == np.arange(ctx.n_servers)[:, None]
    sum_b = (ctx.beta * onehot).sum(axis=1)
    sum_p = (ctx.phi * onehot).sum(axis=1)
    counts = onehot.sum(axis=1)
    in_s = onehot[:, m]
    joined_b = sum_b + np.where(in_s, 0.0, ctx.beta[:, m])
    joined_p = sum_p + np.where(in_s, 0.0, ctx.phi[:, m])
    joined_n = counts + np.where(in_s, 0, 1)

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
        if ctx.data_bits[m] == 0:
            delay = 0.0
        elif ctx.uniform_shares:
            delay = float(joined_n[s] * (ctx.trans_base[s, m]
                                         + ctx.exec_base[s, m]))
        else:
            w_share = (ctx.phi[s, m] / joined_p[s] if joined_p[s] > 0
                       else 1.0 / joined_n[s])
            z_share = (ctx.beta[s, m] / joined_b[s] if joined_b[s] > 0
                       else 1.0 / joined_n[s])
            delay = float(ctx.trans_base[s, m] / w_share
                          + ctx.exec_base[s, m] / z_share)
        if delay <= ctx.deadline[m] + DEADLINE_SLACK:
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
    return BestResponse(best=best, best_utility=best_u,
                        candidates=tuple(candidates),
                        utilities={a: utilities[a] for a in utilities
                                   if a in candidates or a == LOCAL},
                        fallback=fallback)


def reference_stage1(ctx):
    """(profile, sweeps, moves, fallbacks, converged) of the rebuild loop,
    and for each move the larger magnitude of the potential around it."""
    profile = np.full(ctx.n_uds, LOCAL, dtype=int)
    moves, fallbacks, scales = [], [], []
    converged = False
    sweeps = 0
    for _ in range(10 * ctx.n_uds + 10):
        sweeps += 1
        changed = False
        for m in range(ctx.n_uds):
            br = reference_best_response(m, profile, ctx)
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
            du = br.best_utility - br.utilities.get(
                cur, utility(m, cur, profile, ctx))
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
            moves.append(MoveRecord(m, cur, target, float(du), dphi, forced))
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
                assert best_response(m, profile, ctx, sums) \
                    == reference_best_response(m, profile, ctx)
                checked += 1
    assert checked > 1500


def test_stage1_matches_the_rebuild_loop():
    rng = np.random.default_rng(21)
    n_moves = n_forced = 0
    for i, ctx in enumerate(game_variants(rng)):
        ctx.tiebreak_rng = np.random.default_rng(i)
        result = run_stage1(ctx)
        ctx.tiebreak_rng = np.random.default_rng(i)
        profile, sweeps, moves, fallbacks, converged, scales = \
            reference_stage1(ctx)
        np.testing.assert_array_equal(result.profile, profile)
        assert (result.sweeps, result.deadline_fallbacks, result.converged) \
            == (sweeps, fallbacks, converged)
        assert len(result.moves) == len(moves)
        for fast, ref in zip(result.moves, moves):
            assert (fast.ud, fast.old, fast.new, fast.forced,
                    fast.delta_utility) \
                == (ref.ud, ref.old, ref.new, ref.forced, ref.delta_utility)
        if ctx.uniform_shares:
            assert all(mv.delta_potential is None for mv in result.moves)
        else:
            for fast, ref, scale in zip(result.moves, moves, scales):
                assert abs(fast.delta_potential - ref.delta_potential) \
                    <= DPHI_RTOL * scale
        n_moves += len(moves)
        n_forced += sum(mv.forced for mv in moves)
    assert n_moves > 500 and n_forced > 100


def test_kept_sums_equal_a_fresh_build_after_random_moves():
    rng = np.random.default_rng(22)
    checked = 0
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
            sums.refresh(profile, cur)
            sums.refresh(profile, new)
            fresh = MemberSums(profile, ctx)
            assert np.array_equal(sums.totals, fresh.totals)
            assert np.array_equal(sums.count, fresh.count)
            if ctx.uniform_shares:
                continue
            full = (potential(before, ctx), potential(profile, ctx))
            dphi = sums.move_potential(m, new, (cur, new)) - phi_before
            assert abs(dphi - (full[1] - full[0])) \
                <= DPHI_RTOL * max(map(abs, full))
            checked += 1
    assert checked > 1000


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
