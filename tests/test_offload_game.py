import numpy as np
import pytest

from uavmec import compute as cm
from uavmec.allocation import allocate
from uavmec.game import (LOCAL, MemberSums, best_response, is_nash,
                         poa_measure, potential, run_stage1, utility)
from uavmec.verification import random_game_context, random_profile


def compositional_utility(m, s, profile, ctx):
    """Recompute a utility from first principles: join the server, re-derive
    the optimal shares, price delay + energy + queue term explicitly."""
    if s == LOCAL:
        delay = cm.local_delay(ctx.data_bits[m], ctx.cycles_per_bit[m],
                               ctx.ud_compute[m])
        energy = cm.local_energy(ctx.data_bits[m], ctx.cycles_per_bit[m],
                                 ctx.ud_compute[m], ctx.capacitance)
        return cm.ud_cost(delay, energy, ctx.gamma_time, ctx.gamma_energy)
    prof = np.asarray(profile).copy()
    prof[m] = s
    alloc = allocate(prof, ctx)
    d, eta = ctx.data_bits[m], ctx.cycles_per_bit[m]
    if d == 0:
        cost = 0.0
    else:
        rate = alloc.w[s, m] * ctx.rates[s, m]
        f_alloc = alloc.z[s, m] * ctx.f_max[s]
        delay = cm.edge_delay(d, eta, rate, f_alloc)
        energy = cm.edge_ud_energy(d, rate, ctx.tx_power[m])
        cost = cm.ud_cost(delay, energy, ctx.gamma_time, ctx.gamma_energy)
    return ctx.queue_weight[s] * ctx.edge_energy[m] + cost


def test_utility_matches_first_principles_recompute():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(40):
        ctx = random_game_context(rng)
        profile = random_profile(ctx, rng)
        for m in range(ctx.n_uds):
            for s in [LOCAL] + list(range(ctx.n_servers)):
                fast = utility(m, s, profile, ctx)
                slow = compositional_utility(m, s, profile, ctx)
                assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)
                checked += 1
    assert checked > 300


def test_unilateral_deviation_equals_potential_change():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ctx = random_game_context(rng)
        profile = random_profile(ctx, rng)
        m = int(rng.integers(ctx.n_uds))
        new = int(rng.integers(-1, ctx.n_servers))
        if new == profile[m]:
            continue
        du = utility(m, new, profile, ctx) - utility(m, int(profile[m]),
                                                     profile, ctx)
        after = profile.copy()
        after[m] = new
        dphi = potential(after, ctx) - potential(profile, ctx)
        assert du == pytest.approx(dphi, rel=1e-9, abs=1e-9)


def test_best_response_prunes_deadline_violations():
    rng = np.random.default_rng(2)
    ctx = random_game_context(rng)
    ctx.deadline[:] = 1e-9   # nothing fits on any edge
    profile = np.full(ctx.n_uds, LOCAL)
    br = best_response(0, profile, ctx, MemberSums(profile, ctx))
    assert br.candidates == (LOCAL,)
    assert br.best == (LOCAL,)
    assert not br.fallback


def test_forced_offloading_falls_back_when_nothing_fits():
    rng = np.random.default_rng(3)
    ctx = random_game_context(rng, allow_local=False)
    ctx.allow_local = False
    ctx.deadline[:] = 1e-9
    profile = np.zeros(ctx.n_uds, dtype=int)
    br = best_response(0, profile, ctx, MemberSums(profile, ctx))
    assert br.fallback
    assert set(br.candidates) == set(range(ctx.n_servers))
    result = run_stage1(ctx)
    assert len(result.deadline_fallbacks) > 0
    assert np.all(result.profile != LOCAL)


def test_stage1_reaches_a_nash_equilibrium():
    rng = np.random.default_rng(4)
    for _ in range(25):
        ctx = random_game_context(rng)
        result = run_stage1(ctx)
        assert result.converged
        ok, witness = is_nash(result.profile, ctx)
        assert ok, f"profitable deviation left: {witness}"


def test_stage1_moves_strictly_decrease_the_potential():
    rng = np.random.default_rng(5)
    seen = 0
    for _ in range(25):
        ctx = random_game_context(rng)
        result = run_stage1(ctx)
        for move in result.moves:
            if not move.forced:
                assert move.delta_potential < 0.0
                seen += 1
    assert seen > 50


def test_stage1_terminates_on_large_instances():
    """Finite-improvement property: 1000 random games up to M=20, N=4."""
    rng = np.random.default_rng(6)
    for _ in range(1000):
        ctx = random_game_context(rng, m_max=20, n_max=4)
        result = run_stage1(ctx)
        assert result.converged


def test_is_nash_flags_an_improvable_profile():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ctx = random_game_context(rng)
        result = run_stage1(ctx)
        if not result.moves:
            continue
        # replay the last accepted move backwards: that UD can improve again
        last = result.moves[-1]
        profile = result.profile.copy()
        profile[last.ud] = last.old
        ok, witness = is_nash(profile, ctx)
        assert not ok
        assert witness[0] == last.ud
        return
    pytest.fail("no instance produced any move")


def test_is_nash_rejects_infeasible_profiles():
    rng = np.random.default_rng(8)
    ctx = random_game_context(rng)
    ctx.deadline[:] = 1e-9
    profile = np.zeros(ctx.n_uds, dtype=int)
    with pytest.raises(ValueError, match="infeasible"):
        is_nash(profile, ctx)


def test_uniform_share_mode_prices_by_headcount():
    rng = np.random.default_rng(9)
    ctx = random_game_context(rng)
    ctx.uniform_shares = True
    profile = random_profile(ctx, rng)
    m = 0
    s = 0
    mask = (profile == s).copy()
    mask[m] = True
    expected = ctx.queue_weight[s] * ctx.edge_energy[m] \
        + mask.sum() * ctx.member_cost[s, m]
    assert utility(m, s, profile, ctx) == pytest.approx(expected)
    with pytest.raises(ValueError):
        potential(profile, ctx)
    result = run_stage1(ctx)   # no FIP guarantee, but must not raise
    assert result.profile.shape == (ctx.n_uds,)


def test_symmetric_servers_tie_break_deterministically():
    rng = np.random.default_rng(10)
    ctx = random_game_context(rng, n_max=2)
    # make the two SUAVs indistinguishable (the LUAV row stays distinct)
    ctx.rates[1] = ctx.rates[0]
    ctx.f_max[1] = ctx.f_max[0]
    ctx.queue_weight[1] = ctx.queue_weight[0]
    ctx.__post_init__()
    profile = np.full(ctx.n_uds, LOCAL)
    br = best_response(0, profile, ctx, MemberSums(profile, ctx))
    if 0 in br.best and len(br.best) >= 2:
        assert 1 in br.best
    ctx.tiebreak_rng = np.random.default_rng(123)
    first = run_stage1(ctx).profile
    ctx.tiebreak_rng = np.random.default_rng(123)
    second = run_stage1(ctx).profile
    np.testing.assert_array_equal(first, second)


def test_poa_measurement_on_small_instances():
    rng = np.random.default_rng(11)
    measured = 0
    for _ in range(10):
        ctx = random_game_context(rng, m_max=3, n_max=2)
        try:
            res = poa_measure(ctx)
        except ValueError:
            continue
        assert res.poa >= 1.0 - 1e-12
        assert res.poa <= res.bound + 1e-9
        assert res.n_nash >= 1
        assert res.worst_nash_value >= res.optimum_value - 1e-12
        measured += 1
    assert measured >= 5


def test_poa_enumeration_cap():
    rng = np.random.default_rng(12)
    ctx = random_game_context(rng, m_max=5, n_max=2)
    with pytest.raises(ValueError, match="exceeds cap"):
        poa_measure(ctx, max_profiles=3)
