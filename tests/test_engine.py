"""Slot loop: approach switches, metric folding, persistence round-trips."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from uavmec import compute as cm
from uavmec import engine, game
from uavmec.config import desk_profile, paper_profile
from uavmec.engine import (APPROACH_IDS, APPROACHES, SlotDecision, _realize,
                           _slot_channel, build_game_context,
                           run_simulation, run_slot)
from uavmec.game import LOCAL, best_response, run_stage1
from uavmec.lyapunov import dpp_objective, init_queues
from uavmec.results import (slot_header, write_slot_csv, write_summary_json,
                            write_trajectory_csv)
from uavmec.scenario import build_scenario, resample_tasks, step_mobility
from uavmec.verification import (edge_delay, edge_ud_energy, local_delay,
                                 local_energy)


def tiny_config(**overrides):
    base = dict(num_slots=6, seed=3)
    base.update(overrides)
    return dataclasses.replace(desk_profile(), **base)


def test_run_simulation_is_deterministic():
    cfg = tiny_config()
    a = run_simulation(cfg, "OJTRTA")
    b = run_simulation(cfg, "OJTRTA")
    assert a.aggregates == b.aggregates
    for ra, rb in zip(a.records, b.records):
        assert ra.cost == rb.cost
        assert np.array_equal(ra.positions, rb.positions)
        assert np.array_equal(ra.q_c, rb.q_c)


def test_seed_override_changes_draws_and_is_recorded():
    cfg = tiny_config()
    base = run_simulation(cfg, "OJTRTA")
    other = run_simulation(cfg, "OJTRTA", seed=11)
    assert other.seed == 11
    assert other.aggregates["seed"] == 11
    assert base.aggregates["tac"] != other.aggregates["tac"]
    # The caller's config object must not be mutated by the override.
    assert cfg.seed == 3


def test_aggregates_match_record_folds():
    cfg = tiny_config()
    res = run_simulation(cfg, "OJTRTA")
    t = cfg.num_slots
    assert len(res.records) == t
    costs = [r.cost for r in res.records]
    assert res.aggregates["tac"] == pytest.approx(sum(costs) / t, rel=1e-12)
    lats = [r.latency for r in res.records]
    assert res.aggregates["avg_latency"] == pytest.approx(sum(lats) / t,
                                                          rel=1e-12)
    energy = np.sum([r.suav_energy for r in res.records], axis=0) / t
    assert res.aggregates["avg_suav_energy"] == pytest.approx(
        energy.tolist(), rel=1e-12)
    assert res.aggregates["mean_suav_energy"] == pytest.approx(
        float(energy.mean()), rel=1e-12)
    assert res.aggregates["final_q_c"] == res.records[-1].q_c.tolist()
    assert res.aggregates["final_q_p"] == res.records[-1].q_p.tolist()
    assert res.aggregates["config_digest"] == cfg.digest()
    assert res.aggregates["audit_violations"] == len(res.violations)


def test_slot_decision_dpp_recomputes():
    cfg = tiny_config()
    world = build_scenario(cfg)
    eb_c, eb_p = cfg.budget_split()
    queues = init_queues(cfg.num_suavs, eb_c, eb_p)
    decision, _ = run_slot(world, queues, APPROACHES["OJTRTA"])
    expected = dpp_objective(queues.q_c, queues.q_p,
                             decision.suav_energy_c, decision.suav_energy_p,
                             float(decision.costs.sum()), cfg.lyapunov_v)
    assert decision.dpp_value == pytest.approx(expected, rel=1e-12)
    assert isinstance(decision, SlotDecision)


def test_queue_update_matches_recurrence():
    cfg = tiny_config()
    world = build_scenario(cfg)
    eb_c, eb_p = cfg.budget_split()
    queues = init_queues(cfg.num_suavs, eb_c, eb_p)
    decision, nxt = run_slot(world, queues, APPROACHES["OJTRTA"])
    want_c = np.maximum(queues.q_c + decision.suav_energy_c - eb_c, 0.0)
    want_p = np.maximum(queues.q_p + decision.suav_energy_p - eb_p, 0.0)
    assert np.allclose(nxt.q_c, want_c, rtol=1e-12)
    assert np.allclose(nxt.q_p, want_p, rtol=1e-12)


def test_flp_keeps_initial_positions():
    cfg = tiny_config()
    res = run_simulation(cfg, "FLP")
    initial = np.asarray(cfg.suav_initial_positions, dtype=float)
    for rec in res.records:
        assert np.array_equal(rec.positions, initial)


def test_eo_never_computes_locally():
    cfg = tiny_config()
    world = build_scenario(cfg)
    eb_c, eb_p = cfg.budget_split()
    queues = init_queues(cfg.num_suavs, eb_c, eb_p)
    for _ in range(3):
        decision, queues = run_slot(world, queues, APPROACHES["EO"])
        d, _, _ = world.task_arrays()
        assert not np.any((decision.profile == LOCAL) & (d > 0))
        world.suav_positions = decision.next_positions.copy()
        world.slot += 1


def test_era_uses_uniform_shares():
    cfg = tiny_config()
    world = build_scenario(cfg)
    eb_c, eb_p = cfg.budget_split()
    queues = init_queues(cfg.num_suavs, eb_c, eb_p)
    decision, _ = run_slot(world, queues, APPROACHES["ERA"])
    z, w = decision.allocation.z, decision.allocation.w
    for s in range(z.shape[0]):
        members = np.flatnonzero(decision.profile == s)
        if len(members) == 0:
            continue
        assert np.allclose(z[s, members], 1.0 / len(members), rtol=1e-12)
        assert np.allclose(w[s, members], 1.0 / len(members), rtol=1e-12)


def test_ocq_ignores_queues_but_still_tracks_them():
    cfg = tiny_config()
    res = run_simulation(cfg, "OCQ")
    # Queues still evolve (they are metrics), they just don't steer choices.
    backlogs = np.array([r.q_p for r in res.records])
    assert backlogs.shape == (cfg.num_slots, cfg.num_suavs)
    assert np.all(backlogs >= 0.0)
    # OCQ spends more SUAV energy than the queue-aware controller on average.
    base = run_simulation(tiny_config(), "OJTRTA")
    assert res.aggregates["mean_suav_energy"] \
        >= base.aggregates["mean_suav_energy"] - 1e-9


def test_slot_channel_rate_phi_identity():
    cfg = tiny_config()
    world = build_scenario(cfg)
    rates, phi = _slot_channel(world)
    assert rates.shape == (cfg.num_suavs + 1, cfg.num_uds)
    horiz = np.linalg.norm(
        world.suav_positions[:, None, :] - world.ud_positions[None, :, :],
        axis=2)
    slant2 = cfg.suav_altitude ** 2 + horiz ** 2
    want = cfg.suav_bandwidth * np.log2(1.0 + phi[:cfg.num_suavs] / slant2)
    assert np.allclose(rates[:cfg.num_suavs], want, rtol=1e-12)
    luav_slant2 = (cfg.luav_altitude ** 2
                   + np.linalg.norm(world.ud_positions - cfg.luav_position,
                                    axis=1) ** 2)
    want_luav = cfg.luav_bandwidth * np.log2(1.0 + phi[-1] / luav_slant2)
    assert np.allclose(rates[-1], want_luav, rtol=1e-12)


def test_expected_fading_prices_the_mean_channel_power():
    """expected_fading prices phi at E[|h|^2] = mean_channel_power; the
    rates still come from the sampled fading."""
    def channel(**overrides):
        return _slot_channel(build_scenario(tiny_config(**overrides)))

    _, phi_1 = channel(expected_fading=True)
    rates_4, phi_4 = channel(expected_fading=True, mean_channel_power=4.0)
    rates_sampled, _ = channel(mean_channel_power=4.0)
    np.testing.assert_allclose(phi_4, 4.0 * phi_1, rtol=1e-12)
    np.testing.assert_array_equal(rates_4, rates_sampled)


def test_deadline_misses_count_the_audited_deadline_messages():
    cfg = desk_profile(num_slots=10, deadline_range=(0.05, 0.15))
    eo = run_simulation(cfg, "EO", seed=0)
    misses = eo.aggregates["deadline_misses"]
    logged = [msg for _, msg in eo.violations + eo.waived_violations
              if msg.startswith("deadline:")]
    assert misses > 0
    assert misses == len(logged)
    ojtrta = run_simulation(cfg, "OJTRTA", seed=0)
    assert ojtrta.aggregates["deadline_misses"] == 0


def eo_fallback_config():
    """One SUAV, deadlines that leave UDs 0 and 4 of seed 837 with no
    feasible edge at the final stage-1 profile; they joined their servers
    while those still fit."""
    return desk_profile(
        num_uds=10, num_suavs=1, suav_initial_positions=((125.0, 125.0),),
        num_slots=1, seed=837,
        deadline_range=(0.11789569661512925, 0.3409380301959986))


def test_eo_waives_the_misses_of_uds_left_on_a_fallback():
    res = run_simulation(eo_fallback_config(), "EO")
    assert res.violations == []
    assert [msg.split(" on ")[0] for _, msg in res.waived_violations] \
        == ["deadline: UD 0", "deadline: UD 4"]
    assert res.aggregates["deadline_fallbacks"] == 2
    assert res.aggregates["deadline_misses"] == 2


def test_eo_miss_off_a_fallback_stays_a_violation(monkeypatch):
    realize = engine._realize

    def late_ud_1(world, profile, alloc, rates, f_max):
        delays, energies, costs = realize(world, profile, alloc, rates,
                                          f_max)
        delays[1] += 10.0
        return delays, energies, costs

    monkeypatch.setattr(engine, "_realize", late_ud_1)
    res = run_simulation(eo_fallback_config(), "EO")
    assert [msg.split(" on ")[0] for _, msg in res.violations] \
        == ["deadline: UD 1"]
    assert len(res.waived_violations) == 2
    assert res.aggregates["deadline_misses"] == 3


SUAV_SITES = ((125.0, 125.0), (375.0, 375.0), (125.0, 375.0))


def test_eo_audits_clean_on_random_small_configs():
    """Small EO runs with deadlines drawn log-uniformly from 0.01-3 s and V
    from 1 to 1e5: every deadline miss is a waived fallback."""
    rng = np.random.default_rng(27)
    waived = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        lo, hi = np.sort(10.0 ** rng.uniform(-2.0, np.log10(3.0), 2))
        cfg = desk_profile(
            num_uds=int(rng.integers(1, 13)), num_suavs=n,
            suav_initial_positions=SUAV_SITES[:n], num_slots=3,
            deadline_range=(float(lo), float(hi)),
            lyapunov_v=float(10.0 ** rng.uniform(0.0, 5.0)),
            seed=int(rng.integers(1 << 16)))
        res = run_simulation(cfg, "EO")
        assert res.violations == [], cfg
        waived += bool(res.waived_violations)
    assert waived > 50


FOUR_SITES = SUAV_SITES + ((375.0, 125.0),)   # 250 m apart


def test_every_approach_completes_or_fails_loudly_on_random_small_configs():
    """Small runs of all five approaches over random fleets, deadlines,
    task sizes from 0, SUAV speeds, separations up to the site spacing, V
    and budgets just above the propulsion share: each run audits clean
    (only waived misses) or stops on stage 2's optimality contract."""
    rng = np.random.default_rng(31)
    prop = desk_profile().budget_split()[1]
    clean = 0
    for i in range(300):
        n = int(rng.integers(1, 5))
        lo, hi = np.sort(10.0 ** rng.uniform(-2.0, np.log10(3.0), 2))
        cfg = desk_profile(
            num_uds=int(rng.integers(1, 13)), num_suavs=n,
            suav_initial_positions=FOUR_SITES[:n], num_slots=3,
            deadline_range=(float(lo), float(hi)),
            data_bits_range=(float(rng.choice([0.0, 2e5])), 1e6),
            suav_max_speed=float(rng.choice([0.0, 5.0, 25.0])),
            min_separation=float(rng.uniform(0.0, 249.0)),
            lyapunov_v=float(10.0 ** rng.uniform(0.0, 5.0)),
            suav_energy_budget=prop * (1.0 + float(rng.uniform(1e-3, 1.0))),
            seed=int(rng.integers(1 << 16)))
        try:
            res = run_simulation(cfg, APPROACH_IDS[i % len(APPROACH_IDS)])
        except RuntimeError as exc:
            assert re.fullmatch(r"slot \d+ failed: convex subproblem failed "
                                r"its optimality contract .*", str(exc)), cfg
            continue
        assert res.violations == [], cfg
        clean += 1
    assert clean > 290


STAGE2_GATE_CONFIGS = {
    # OCQ at seed 982 once exhausted every solver tier in slot 2
    "ocq-982": desk_profile(
        num_uds=7, num_suavs=2,
        suav_initial_positions=((125.0, 125.0), (245.0, 225.0)),
        num_slots=3, deadline_range=(0.062383679082367714,
                                     0.07727908334354497),
        data_bits_range=(0.0, 1e6), lyapunov_v=3.0342416460194617,
        seed=982),
    # four SUAVs 250 m apart with d_min 244.65 m: the separation rows bind
    "4-suav-separation": desk_profile(
        num_uds=6, num_suavs=4, suav_initial_positions=FOUR_SITES,
        num_slots=3, deadline_range=(0.2989923177710316,
                                     0.4995617062223448),
        suav_max_speed=25.0, min_separation=244.65408462197655,
        lyapunov_v=118.96365552541337,
        suav_energy_budget=322.7367437229712, seed=32360),
}


@pytest.mark.parametrize("approach", APPROACH_IDS)
@pytest.mark.parametrize("name", sorted(STAGE2_GATE_CONFIGS))
def test_stage2_gate_configs_complete_with_a_clean_audit(name, approach):
    """Two valid configs on which stage 2 once failed its optimality
    contract complete under every approach with no audit violation."""
    res = run_simulation(STAGE2_GATE_CONFIGS[name], approach)
    assert res.aggregates["audit_violations"] == 0


def test_fading_stream_consumed_identically_across_approaches():
    cfg = tiny_config()
    w1 = build_scenario(cfg)
    w2 = build_scenario(cfg)
    _slot_channel(w1)
    _slot_channel(w2)
    # After one draw the streams must be in the same state regardless of use.
    assert w1.fading_rng.integers(1 << 30) == w2.fading_rng.integers(1 << 30)


def test_audit_flags_separation_breach():
    cfg = tiny_config()
    res = run_simulation(cfg, "OJTRTA")
    assert res.aggregates["audit_violations"] == 0
    # Force a breach through the audit function itself.
    from uavmec.audit import audit_slot
    pos = np.array([[100.0, 100.0], [100.0 + cfg.min_separation / 2, 100.0]])
    msgs, _ = audit_slot(
        profile=np.full(cfg.num_uds, LOCAL), n_servers=cfg.num_suavs + 1,
        z=np.zeros((cfg.num_suavs + 1, cfg.num_uds)),
        w=np.zeros((cfg.num_suavs + 1, cfg.num_uds)),
        delays=np.zeros(cfg.num_uds), deadlines=np.ones(cfg.num_uds),
        data_bits=np.zeros(cfg.num_uds), serving_positions=pos,
        next_positions=pos,
        initial_positions=np.asarray(cfg.suav_initial_positions, float),
        slot=0, v_max=cfg.suav_max_speed, d_min=cfg.min_separation,
        dt=cfg.slot_duration)
    assert any("separation" in m for m in msgs)


def loop_realize(world, profile, alloc, rates):
    """Per-UD loop over compute's scalar formulas: the reference for
    ``_realize``."""
    cfg = world.config
    d, eta, _ = world.task_arrays()
    f_max = np.concatenate([np.full(cfg.num_suavs, cfg.suav_compute),
                            [cfg.luav_compute]])
    delays = np.zeros(cfg.num_uds)
    energies = np.zeros(cfg.num_uds)
    for m in range(cfg.num_uds):
        s = int(profile[m])
        if s == LOCAL:
            delays[m] = local_delay(d[m], eta[m], world.ud_compute[m])
            energies[m] = local_energy(d[m], eta[m], world.ud_compute[m],
                                       cfg.effective_capacitance)
        elif d[m] != 0:
            rate = alloc.w[s, m] * rates[s, m]
            f_alloc = alloc.z[s, m] * f_max[s]
            delays[m] = edge_delay(d[m], eta[m], rate, f_alloc)
            energies[m] = edge_ud_energy(d[m], rate, cfg.ud_tx_power)
    costs = cm.ud_cost(delays, energies, cfg.gamma_time, cfg.gamma_energy)
    return delays, energies, costs


# UD CPU speeds whose square differs by one ulp between C pow (scalar **,
# as in compute.local_energy) and x*x (what array ** 2 computes)
POW_NOT_SQUARE = (2556014787.2301636, 2026631161.8175936, 1026732329.9739903)


def test_realized_cost_matches_formulas():
    """Realized delays, energies and costs equal compute's scalar formulas
    bit for bit: a run_slot decision, then _realize on paper FLP and
    OJTRTA, on desk EO and ERA with task sizes from 0 and a few zero-size
    tasks (which EO must offload), and on UD speeds where pow(f, 2) and
    f*f round apart."""
    cfg = tiny_config()
    world = build_scenario(cfg)
    queues = init_queues(cfg.num_suavs, *cfg.budget_split())
    decision, _ = run_slot(world, queues, APPROACHES["OJTRTA"])
    rates, _ = _slot_channel_replay(world)
    want = loop_realize(world, decision.profile, decision.allocation, rates)
    for g, w in zip((decision.delays, decision.ud_energies, decision.costs),
                    want):
        assert np.array_equal(g, w)

    zero_from = (0.0, 1.0e6)
    cases = [(paper_profile(seed=0), "FLP"), (paper_profile(seed=1), "OJTRTA"),
             (desk_profile(seed=2, data_bits_range=zero_from), "EO"),
             (desk_profile(seed=3, data_bits_range=zero_from), "ERA"),
             (desk_profile(seed=4, ud_compute_options=POW_NOT_SQUARE), "FLP")]
    kinds = np.zeros(3, dtype=int)    # local, offloaded, offloaded empty
    pow_apart = 0   # local energies that f ** 2 on the array would change
    for cfg, approach in cases:
        spec = APPROACHES[approach]
        world = build_scenario(cfg)
        queues = init_queues(cfg.num_suavs, *cfg.budget_split())
        for _ in range(3):
            for m in range(0, cfg.num_uds, 7):
                world.tasks.data_bits[m] = 0.0
            rates, _ = _slot_channel(world)
            ctx = build_game_context(world, queues, spec, rates)
            stage1 = run_stage1(ctx)
            got = _realize(world, stage1.profile, stage1.allocation, rates,
                           ctx.f_max)
            want = loop_realize(world, stage1.profile, stage1.allocation,
                                rates)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            d, eta, _ = world.task_arrays()
            local = stage1.profile == LOCAL
            kinds += [np.sum(local), np.sum(~local & (d > 0)),
                      np.sum(~local & (d == 0))]
            by_square = (cfg.effective_capacitance
                         * world.ud_compute[local] ** 2 * eta[local]
                         * d[local])
            pow_apart += np.count_nonzero(by_square != want[1][local])
            step_mobility(world)
            resample_tasks(world)
            world.slot += 1
    assert np.all(kinds > 0) and pow_apart > 0


def test_realize_rejects_a_zero_rate_or_compute_share():
    cfg = tiny_config()
    world = build_scenario(cfg)
    queues = init_queues(cfg.num_suavs, *cfg.budget_split())
    rates, _ = _slot_channel(world)
    ctx = build_game_context(world, queues, APPROACHES["EO"], rates)
    stage1 = run_stage1(ctx)
    profile, alloc = stage1.profile, stage1.allocation
    m = int(np.flatnonzero(world.task_arrays()[0] > 0)[0])
    for share in (alloc.w, alloc.z):
        saved = share[profile[m], m]
        share[profile[m], m] = 0.0
        with pytest.raises(ValueError, match="must be positive"):
            _realize(world, profile, alloc, rates, ctx.f_max)
        share[profile[m], m] = saved
    _realize(world, profile, alloc, rates, ctx.f_max)


def _slot_channel_replay(world):
    """Replay the slot's channel from a fresh world at the same state.

    run_slot consumed the fading stream, so rebuild the scenario and draw
    once; slot 0 of an identical seed reproduces the same channel.
    """
    fresh = build_scenario(world.config)
    return _slot_channel(fresh)


def test_unknown_approach_raises():
    with pytest.raises(KeyError):
        run_simulation(tiny_config(), "GREEDY")


def test_slot_path_loads_no_oracle_code():
    """Every approach runs without importing ``uavmec.verification``: the
    independent routes the suites check against stay off the slot path."""
    script = textwrap.dedent("""
        import sys
        from uavmec.config import desk_profile
        from uavmec.engine import APPROACH_IDS, run_simulation
        for approach in APPROACH_IDS:
            run_simulation(desk_profile(num_slots=2), approach)
        loaded = sorted(m for m in sys.modules if m.startswith("uavmec."))
        assert "uavmec.verification" not in loaded, loaded
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_slot_failure_reports_slot_index(monkeypatch):
    import uavmec.engine as eng

    original = eng.run_stage1
    calls = []

    def flaky(ctx, initial):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("boom")
        return original(ctx, initial)

    monkeypatch.setattr(eng, "run_stage1", flaky)
    with pytest.raises(RuntimeError, match="slot 2 failed: boom"):
        run_simulation(tiny_config(num_slots=4), "OJTRTA")


@pytest.mark.parametrize("approach", APPROACH_IDS)
def test_each_slot_starts_stage1_from_the_last_equilibrium(monkeypatch,
                                                           approach):
    """The world holds the offloading profile of the last decided slot:
    all-local when built, left as it is by ``run_slot``, which starts stage
    1 from it, and advanced by ``run_simulation``.  Stage 1 run again on a
    slot's context from that slot's own equilibrium ends in one sweep with
    no move."""
    calls = []                    # (ctx, initial, result) per stage 1

    def recorded(ctx, initial):
        result = run_stage1(ctx, initial)
        calls.append((ctx, initial, result))
        return result

    monkeypatch.setattr(engine, "run_stage1", recorded)
    cfg = tiny_config(num_slots=3)
    world = build_scenario(cfg)
    start = world.profile
    np.testing.assert_array_equal(start, np.full(cfg.num_uds, LOCAL))
    queues = init_queues(cfg.num_suavs, *cfg.budget_split())
    run_slot(world, queues, APPROACHES[approach])
    assert calls[0][1] is start and world.profile is start
    np.testing.assert_array_equal(start, LOCAL)

    worlds = []

    def built(config):
        worlds.append(build_scenario(config))
        return worlds[-1]

    monkeypatch.setattr(engine, "build_scenario", built)
    calls.clear()
    run_simulation(cfg, approach)
    assert len(calls) == cfg.num_slots
    np.testing.assert_array_equal(calls[0][1], LOCAL)
    for (_, _, last), (_, initial, _) in zip(calls, calls[1:]):
        np.testing.assert_array_equal(initial, last.profile)
    np.testing.assert_array_equal(worlds[0].profile, calls[-1][2].profile)

    for ctx, _, result in calls:
        again = run_stage1(ctx, result.profile)
        assert (again.sweeps, again.moves) == (1, [])
        np.testing.assert_array_equal(again.profile, result.profile)


def test_stage1_work_ledger(monkeypatch):
    """Stage 1's deterministic work over paper FLP, seed 0, 10 slots: the
    best responses priced, and the sweeps and moves of every slot summed."""
    priced = []
    results = []

    def counted(*args):
        priced.append(1)
        return best_response(*args)

    def recorded(*args):
        results.append(run_stage1(*args))
        return results[-1]

    monkeypatch.setattr(game, "best_response", counted)
    monkeypatch.setattr(engine, "run_stage1", recorded)
    run_simulation(paper_profile(num_slots=10, seed=0), "FLP")
    assert len(results) == 10
    assert (len(priced), sum(r.sweeps for r in results),
            sum(len(r.moves) for r in results)) == (2589, 48, 421)


# --- persistence ---

def test_slot_csv_round_trip(tmp_path):
    cfg = tiny_config()
    res = run_simulation(cfg, "OJTRTA")
    path = tmp_path / "slots.csv"
    write_slot_csv(res.records, path, cfg.num_suavs)
    import csv
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == slot_header(cfg.num_suavs)
    assert len(rows) == cfg.num_slots + 1
    first = rows[1]
    assert int(first[0]) == 1
    assert first[1] == "OJTRTA"
    assert float(first[3]) == res.records[0].cost  # repr() round-trips


def test_byte_identical_csv_for_same_seed(tmp_path):
    cfg = tiny_config()
    paths = []
    for tag in ("a", "b"):
        res = run_simulation(cfg, "OJTRTA")
        p = tmp_path / f"slots_{tag}.csv"
        write_slot_csv(res.records, p, cfg.num_suavs)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_summary_json_round_trip(tmp_path):
    cfg = tiny_config()
    results = [run_simulation(cfg, app) for app in ("OJTRTA", "FLP")]
    path = tmp_path / "summary.json"
    write_summary_json(results, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["config"] == cfg.to_dict()
    assert [r["approach"] for r in doc["runs"]] == ["OJTRTA", "FLP"]
    assert doc["runs"][0]["tac"] == results[0].aggregates["tac"]
    assert doc["generator"]["name"] == "uavmec"


def test_numpy_slot_count_runs_and_writes_a_plain_summary(tmp_path):
    """A NumPy integer count hashes like the plain int and leaves a summary
    of plain JSON numbers."""
    res = run_simulation(desk_profile(num_slots=np.int64(1)), "FLP")
    assert res.config.digest() == desk_profile(num_slots=1).digest()
    write_summary_json([res], tmp_path / "summary.json")
    doc = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert doc["config"]["num_slots"] == doc["runs"][0]["slots"] == 1


def test_trajectory_csv_requires_trace(tmp_path):
    cfg = tiny_config(num_slots=3)
    plain = run_simulation(cfg, "OJTRTA")
    with pytest.raises(ValueError, match="trace"):
        write_trajectory_csv(plain, tmp_path / "never.csv")
    traced = run_simulation(cfg, "OJTRTA", trace=True)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traced, path)
    import csv
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["slot", "kind", "index", "x", "y"]
    per_slot = cfg.num_uds + cfg.num_suavs
    assert len(rows) == 1 + cfg.num_slots * per_slot
    kinds = {r[1] for r in rows[1:]}
    assert kinds == {"ud", "suav"}
