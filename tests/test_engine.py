"""Slot loop: approach switches, metric folding, persistence round-trips."""

import dataclasses

import numpy as np
import pytest

from uavmec import compute as cm
from uavmec.config import desk_profile
from uavmec.engine import (APPROACHES, SlotDecision, _slot_channel,
                           run_simulation, run_slot)
from uavmec.game import LOCAL
from uavmec.lyapunov import dpp_objective, init_queues
from uavmec.results import (read_summary, slot_header, write_slot_csv,
                            write_summary_json, write_trajectory_csv)
from uavmec.scenario import build_scenario


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
    expected = dpp_objective(decision.queue_c, decision.queue_p,
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
                   + np.linalg.norm(world.ud_positions - world.luav_position,
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
    msgs = audit_slot(
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


def test_realized_cost_matches_formulas():
    cfg = tiny_config()
    world = build_scenario(cfg)
    eb_c, eb_p = cfg.budget_split()
    queues = init_queues(cfg.num_suavs, eb_c, eb_p)
    decision, _ = run_slot(world, queues, APPROACHES["OJTRTA"])
    d, eta, _ = world.task_arrays()
    rates, _ = _slot_channel_replay(world)
    for m in range(cfg.num_uds):
        s = int(decision.profile[m])
        if s == LOCAL:
            want_delay = cm.local_delay(d[m], eta[m], world.ud_compute[m])
            want_energy = cm.local_energy(d[m], eta[m], world.ud_compute[m],
                                          cfg.effective_capacitance)
        elif d[m] == 0:
            want_delay = want_energy = 0.0
        else:
            rate = decision.allocation.w[s, m] * rates[s, m]
            f_max = cfg.suav_compute if s < cfg.num_suavs else cfg.luav_compute
            f_alloc = decision.allocation.z[s, m] * f_max
            want_delay = cm.edge_delay(d[m], eta[m], rate, f_alloc)
            want_energy = cm.edge_ud_energy(d[m], rate, cfg.ud_tx_power)
        assert decision.delays[m] == pytest.approx(want_delay, rel=1e-12)
        assert decision.ud_energies[m] == pytest.approx(want_energy,
                                                        rel=1e-12)
        want_cost = (cfg.gamma_time * want_delay
                     + cfg.gamma_energy * want_energy)
        assert decision.costs[m] == pytest.approx(want_cost, rel=1e-12)


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


def test_slot_failure_reports_slot_index(monkeypatch):
    import uavmec.engine as eng

    original = eng.run_stage1
    calls = []

    def flaky(ctx):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("boom")
        return original(ctx)

    monkeypatch.setattr(eng, "run_stage1", flaky)
    with pytest.raises(RuntimeError, match="slot 2 failed: boom"):
        run_simulation(tiny_config(num_slots=4), "OJTRTA")


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
    doc = read_summary(path)
    assert doc["config"] == cfg.to_dict()
    assert [r["approach"] for r in doc["runs"]] == ["OJTRTA", "FLP"]
    assert doc["runs"][0]["tac"] == results[0].aggregates["tac"]
    assert doc["generator"]["name"] == "uavmec"


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
