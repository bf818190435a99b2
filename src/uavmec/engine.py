"""Slot loop: channel snapshot, offloading game, placement, queues, metrics.

One slot runs in the fixed order observe -> stage 1 (offloading + shares at
current positions) -> stage 2 (next positions at fixed stage-1 outputs) ->
realize outcomes -> charge energy queues -> advance the world.  The five
approaches are the same loop under different switches:

    OJTRTA  full controller
    EO      local computing removed from every candidate set
    ERA     uniform shares instead of the closed-form optimum
    FLP     stage 2 skipped, SUAVs parked at their initial positions
    OCQ     queue weights forced to zero in both stages (queues still
            tracked, so the energy overshoot is visible in the output)
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import compute as cm
from .allocation import AllocationResult
from .audit import audit_slot
from .config import ScenarioConfig
from .game import GameContext, run_stage1, LOCAL
from .lyapunov import QueueState, init_queues, update_queues, dpp_objective
from .scenario import World, build_scenario, step_mobility, resample_tasks
from .trajectory import build_problem, run_stage2


@dataclass(frozen=True)
class ApproachSpec:
    allow_local: bool = True
    uniform_shares: bool = False
    use_queues: bool = True
    move: bool = True


APPROACHES = {
    "OJTRTA": ApproachSpec(),
    "EO": ApproachSpec(allow_local=False),
    "ERA": ApproachSpec(uniform_shares=True),
    "FLP": ApproachSpec(move=False),
    "OCQ": ApproachSpec(use_queues=False),
}
APPROACH_IDS = tuple(APPROACHES)


@dataclass
class SlotDecision:
    """Everything decided and realized within one slot."""
    profile: np.ndarray
    allocation: AllocationResult
    serving_positions: np.ndarray
    next_positions: np.ndarray
    delays: np.ndarray
    ud_energies: np.ndarray
    costs: np.ndarray
    suav_energy_c: np.ndarray
    suav_energy_p: np.ndarray
    dpp_value: float
    violations: list
    waived_violations: list      # deadline messages excused by EO's design
    fallbacks: list              # (ud, server) pairs with no feasible edge
    deadline_misses: int


@dataclass
class MetricsRecord:
    """One CSV row: realized per-slot metrics of a single run."""
    slot: int
    approach: str
    seed: int
    cost: float
    latency: float
    ud_energy: float
    suav_energy: np.ndarray      # (N,) compute + propulsion
    q_c: np.ndarray              # (N,) post-update backlogs
    q_p: np.ndarray
    positions: np.ndarray        # (N, 2) serving positions of the slot


@dataclass
class SimulationResult:
    approach: str
    seed: int
    config: ScenarioConfig
    records: list
    aggregates: dict
    violations: list             # (slot, message) excluding waived ones
    waived_violations: list      # deadline misses of EO's forced offloads
    trace: dict | None = None


def _per_server(cfg: ScenarioConfig, suav_value, luav_value) -> np.ndarray:
    """(S,) per-server constant: ``suav_value`` for each SUAV, then the LUAV."""
    return np.concatenate([np.full(cfg.num_suavs, suav_value), [luav_value]])


def _slot_channel(world: World):
    """Sampled channel state for the slot.

    Returns full-band rates (S, M) with the LUAV last and the SNR numerators
    (S, M) consistent with those rates (rate = B*log2(1 + phi/slant^2)).
    The fading stream is consumed identically regardless of approach.
    """
    cfg = world.config
    servers = np.vstack([world.suav_positions, cfg.luav_position])
    horiz = np.linalg.norm(
        servers[:, None, :] - world.ud_positions[None, :, :], axis=2)
    alt = _per_server(cfg, cfg.suav_altitude, cfg.luav_altitude)
    slant = np.sqrt(alt[:, None] ** 2 + horiz ** 2)

    p_los = ch.los_probability(slant, alt[:, None], cfg.los_c1, cfg.los_c2)
    amp_los = ch.sample_small_scale(cfg.nakagami_los, cfg.mean_channel_power,
                                    world.fading_rng, size=slant.shape)
    amp_nlos = ch.sample_small_scale(cfg.nakagami_nlos,
                                     cfg.mean_channel_power,
                                     world.fading_rng, size=slant.shape)
    loss_los = ch.large_scale_loss(slant, cfg.carrier_frequency,
                                   cfg.attenuation_los)
    loss_nlos = ch.large_scale_loss(slant, cfg.carrier_frequency,
                                    cfg.attenuation_nlos)
    gain = ch.composite_gain(p_los, amp_los, amp_nlos, loss_los, loss_nlos)
    bandwidth = _per_server(cfg, cfg.suav_bandwidth, cfg.luav_bandwidth)
    rates = ch.transmission_rate(bandwidth[:, None], cfg.ud_tx_power, gain,
                                 cfg.noise_power)
    if cfg.expected_fading:
        amp_los = amp_nlos = np.full_like(slant,
                                          np.sqrt(cfg.mean_channel_power))
    phi = ch.snr_numerator(p_los, amp_los, amp_nlos, cfg.ud_tx_power,
                           cfg.carrier_frequency, cfg.attenuation_los,
                           cfg.attenuation_nlos, cfg.noise_power)
    return rates, phi


def build_game_context(world: World, queues: QueueState,
                       spec: ApproachSpec, rates: np.ndarray) -> GameContext:
    cfg = world.config
    d, eta, tmax = world.task_arrays()
    qw_suav = (queues.q_c / cfg.lyapunov_v if spec.use_queues
               else np.zeros(cfg.num_suavs))
    return GameContext(
        n_suavs=cfg.num_suavs,
        data_bits=d,
        cycles_per_bit=eta,
        deadline=tmax,
        ud_compute=world.ud_compute,
        rates=rates,
        f_max=_per_server(cfg, cfg.suav_compute, cfg.luav_compute),
        queue_weight=np.concatenate([qw_suav, [0.0]]),
        tx_power=cfg.ud_tx_power,
        gamma_time=cfg.gamma_time,
        gamma_energy=cfg.gamma_energy,
        capacitance=cfg.effective_capacitance,
        energy_per_cycle=cfg.suav_energy_per_cycle,
        allow_local=spec.allow_local,
        uniform_shares=spec.uniform_shares,
        tiebreak_rng=world.tiebreak_rng,
    )


def _realize(world: World, profile: np.ndarray, alloc: AllocationResult,
             rates: np.ndarray, f_max: np.ndarray):
    """Per-UD delay/energy/cost under the slot's decisions.

    The formulas of ``verification``'s per-UD scalar functions, applied to
    the local UDs and to the offloaded UDs with data in the same operation
    order; a zero-size offloaded task costs nothing.  ``f_max`` is the (S,) server
    compute of the slot's game context.
    """
    cfg = world.config
    d, eta, tmax = world.task_arrays()
    delays = np.zeros(cfg.num_uds)
    energies = np.zeros(cfg.num_uds)

    local = profile == LOCAL
    f_ud = world.ud_compute[local]
    # scalar ** (C pow) as in verification.local_energy: array ** squares
    # by x*x, which can round differently
    f_sq = np.array([f ** 2 for f in f_ud.tolist()])
    delays[local] = eta[local] * d[local] / f_ud
    energies[local] = cfg.effective_capacitance * f_sq * eta[local] \
        * d[local]

    ud = np.flatnonzero(~local & (d != 0))
    srv = profile[ud]
    rate = alloc.w[srv, ud] * rates[srv, ud]
    f_alloc = alloc.z[srv, ud] * f_max[srv]
    if np.any(rate <= 0) or np.any(f_alloc <= 0):
        raise ValueError("allocated rate and compute must be positive")
    delays[ud] = d[ud] / rate + eta[ud] * d[ud] / f_alloc
    energies[ud] = cfg.ud_tx_power * d[ud] / rate
    costs = cm.ud_cost(delays, energies, cfg.gamma_time, cfg.gamma_energy)
    return delays, energies, costs


def run_slot(world: World, queues: QueueState,
             spec: ApproachSpec) -> tuple[SlotDecision, QueueState]:
    """Decide, realize, and charge one slot; the world is not advanced.

    Stage 1 starts from ``world.profile``, the last slot's equilibrium.
    """
    cfg = world.config
    d, eta, tmax = world.task_arrays()
    rates, phi = _slot_channel(world)
    ctx = build_game_context(world, queues, spec, rates)
    stage1 = run_stage1(ctx, world.profile)
    profile, alloc = stage1.profile, stage1.allocation

    serving = world.suav_positions.copy()
    if spec.move:
        queue_p = queues.q_p if spec.use_queues else np.zeros(cfg.num_suavs)
        problem = build_problem(profile, alloc.w, d, phi[:cfg.num_suavs],
                                world.ud_positions, serving, queue_p, cfg)
        next_positions = run_stage2(problem).positions
    else:
        next_positions = serving.copy()

    delays, energies, costs = _realize(world, profile, alloc, rates,
                                       ctx.f_max)

    speeds = np.linalg.norm(next_positions - serving, axis=1) \
        / cfg.slot_duration
    assigned = np.array([eta[profile == n] @ d[profile == n]
                         for n in range(cfg.num_suavs)])
    e_c, e_p = cm.slot_suav_energy(assigned, speeds, cfg)

    # EO's fallback offloads may miss deadlines by design; keep them apart
    violations, waived = audit_slot(
        profile=profile, n_servers=cfg.num_suavs + 1, z=alloc.z, w=alloc.w,
        delays=delays, deadlines=tmax, data_bits=d,
        serving_positions=serving, next_positions=next_positions,
        initial_positions=np.asarray(cfg.suav_initial_positions, dtype=float),
        slot=world.slot, v_max=cfg.suav_max_speed, d_min=cfg.min_separation,
        dt=cfg.slot_duration,
        excused={m for m, _ in stage1.deadline_fallbacks})
    misses = len(waived) + sum(v.startswith("deadline:") for v in violations)

    decision = SlotDecision(
        profile=profile, allocation=alloc,
        serving_positions=serving, next_positions=next_positions,
        delays=delays, ud_energies=energies, costs=costs,
        suav_energy_c=e_c, suav_energy_p=e_p,
        dpp_value=dpp_objective(queues.q_c, queues.q_p, e_c, e_p,
                                float(costs.sum()), cfg.lyapunov_v),
        violations=violations, waived_violations=waived,
        fallbacks=stage1.deadline_fallbacks,
        deadline_misses=misses)
    return decision, update_queues(queues, e_c, e_p)


def run_simulation(config: ScenarioConfig, approach: str,
                   seed: int | None = None,
                   trace: bool = False) -> SimulationResult:
    """Run T slots of one approach and fold the per-slot metrics.

    ``seed`` overrides the config seed so multi-seed studies can share one
    configuration object.  Any stage error aborts with the slot index.
    """
    spec = APPROACHES[approach]
    if seed is not None:
        config = dataclasses.replace(config, seed=int(seed))
    world = build_scenario(config)
    eb_c, eb_p = config.budget_split()
    queues = init_queues(config.num_suavs, eb_c, eb_p)

    records: list[MetricsRecord] = []
    violations: list[tuple[int, str]] = []
    waived: list[tuple[int, str]] = []
    trace_rows: list[tuple] = [] if trace else None
    misses = fallbacks = 0

    for t in range(1, config.num_slots + 1):
        try:
            decision, queues = run_slot(world, queues, spec)
        except Exception as exc:
            raise RuntimeError(f"slot {t} failed: {exc}") from exc
        records.append(MetricsRecord(
            slot=t, approach=approach, seed=config.seed,
            cost=float(decision.costs.sum()),
            latency=float(decision.delays.mean()),
            ud_energy=float(decision.ud_energies.sum()),
            suav_energy=decision.suav_energy_c + decision.suav_energy_p,
            q_c=queues.q_c.copy(), q_p=queues.q_p.copy(),
            positions=decision.serving_positions))
        violations.extend((t, v) for v in decision.violations)
        waived.extend((t, v) for v in decision.waived_violations)
        misses += decision.deadline_misses
        fallbacks += len(decision.fallbacks)
        if trace:
            trace_rows.append((t, world.ud_positions.copy(),
                               decision.serving_positions.copy()))

        world.suav_positions = decision.next_positions.copy()
        world.profile = decision.profile
        step_mobility(world)
        resample_tasks(world)
        world.slot += 1

    def total(name, start=0.0):
        for rec in records:   # in slot order, not np.sum's pairwise order
            start = start + getattr(rec, name)
        return start

    t_total = config.num_slots
    suav_energy_sum = total("suav_energy", np.zeros(config.num_suavs))
    aggregates = {
        "approach": approach,
        "seed": config.seed,
        "slots": t_total,
        "tac": total("cost") / t_total,
        "avg_latency": total("latency") / t_total,
        "total_ud_energy": total("ud_energy"),
        "avg_suav_energy": (suav_energy_sum / t_total).tolist(),
        "mean_suav_energy": float(suav_energy_sum.mean() / t_total),
        "final_q_c": queues.q_c.tolist(),
        "final_q_p": queues.q_p.tolist(),
        "deadline_misses": misses,
        "deadline_fallbacks": fallbacks,
        "audit_violations": len(violations),
        "config_digest": config.digest(),
    }
    return SimulationResult(
        approach=approach, seed=config.seed, config=config, records=records,
        aggregates=aggregates, violations=violations, waived_violations=waived,
        trace={"rows": trace_rows} if trace else None)
