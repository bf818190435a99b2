"""Acceptance battery: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers, so the
run log doubles as the acceptance report.  The heavyweight fixtures (five
approaches x ten seeds at two fleet sizes, plus the trade-off sweep) are
module-scoped and shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from uavmec.config import desk_profile
from uavmec.engine import run_simulation
from uavmec.results import write_slot_csv
from uavmec.verification import (allocation_suite, poa_suite,
                                 potential_suite, surrogate_suite)

APPROACH_LIST = ("OJTRTA", "EO", "ERA", "FLP", "OCQ")
SEEDS = tuple(range(10))

# Relative tolerance under which two per-V means in criterion 8 count as a
# tie.  Drift-plus-penalty bounds cost within O(1/V) and backlog within O(V)
# but do not promise strict movement, so the criterion allows ties; a tie
# must survive float rounding, which breaks it in the last bits.  Runs
# that take the same decisions still end with final queues a few ulps
# apart (2**-53 ~ 1.1e-16 relative each; the reduction order varies with V
# and with BLAS threading), and the ten-seed mean adds at most
# ~10 * 2**-53 ~ 1e-15.  Observed tie gaps are 1.5e-16 relative with one
# BLAS thread and 3.3e-15 with default threading.  1e-9 sits over five
# orders above that and far below any real move: one energy step in one
# final Q_p shifts the desk mean backlog by ~4.7 J (~1e-1 relative), and
# the TAC gaps across V are ~1e-4 relative.
TIE_RTOL = 1e-9

# Criterion 7's wall-time gate on the desk and M=40 fixtures together.  It
# depends on host load, so its verdict line prints the margin.
WALL_GATE_S = 600.0


def at_most(a: float, b: float) -> bool:
    """`a <= b`, counting a and b equal within `TIE_RTOL` as a tie."""
    return a <= b or math.isclose(a, b, rel_tol=TIE_RTOL)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def desk_runs():
    cfg = desk_profile()
    t0 = time.perf_counter()
    runs = {(app, s): run_simulation(cfg, app, seed=s)
            for app in APPROACH_LIST for s in SEEDS}
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def m40_runs():
    cfg = desk_profile(num_uds=40)
    t0 = time.perf_counter()
    runs = {(app, s): run_simulation(cfg, app, seed=s)
            for app in APPROACH_LIST for s in SEEDS}
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def v_sweep_runs(desk_runs):
    runs = {500.0: [desk_runs[0][("OJTRTA", s)] for s in SEEDS]}
    for v in (50.0, 5000.0):
        cfg = desk_profile(lyapunov_v=v)
        runs[v] = [run_simulation(cfg, "OJTRTA", seed=s) for s in SEEDS]
    return runs


def test_criterion_1_allocation_oracle():
    suite = allocation_suite(n_instances=100, tol=1e-6)
    ok = suite.passed and suite.runtime < 10.0
    verdict(1, "allocation closed form vs numeric oracle", ok,
            f"max share error {suite.details['max_share_err']} over "
            f"{suite.details['instances']} instances in {suite.runtime:.1f}s"
            + ("" if suite.passed else f"; failures: {suite.failures[:3]}"))


def test_criterion_2_potential_game():
    suite = potential_suite(n_identity=200, n_nash=100, tol=1e-9)
    verdict(2, "potential identity, Nash fixed points, strict descent",
            suite.passed,
            f"max identity gap {suite.details['max_identity_gap']}, "
            f"{suite.details['nash_instances']} exhaustive equilibrium "
            f"checks, {suite.details['descent_moves']} strict-descent moves"
            + ("" if suite.passed else f"; failures: {suite.failures[:3]}"))


def test_criterion_3_poa_sandwich():
    suite = poa_suite(n_instances=50)
    verdict(3, "efficiency-loss ratio between 1 and analytic bound",
            suite.passed,
            f"max observed PoA {suite.details['max_poa']} over "
            f"{suite.details['instances']} instances"
            + ("" if suite.passed else f"; failures: {suite.failures[:3]}"))


def test_criterion_4_sca_correctness():
    suite = surrogate_suite(n_samples=1000, n_sca=10, n_grid=3)
    ok = suite.passed and suite.runtime < 60.0
    verdict(4, "surrogate tangency/bound, descent, grid oracle", ok,
            f"worst rise {suite.details['worst_rise']}, grid error "
            f"{suite.details['max_grid_rel']}, {suite.runtime:.1f}s"
            + ("" if suite.passed else f"; failures: {suite.failures[:3]}"))


def test_criterion_5_constraint_audit(desk_runs):
    runs, _ = desk_runs
    cfg = desk_profile()
    total_violations = 0
    worst_sep = np.inf
    worst_speed = 0.0
    for s in SEEDS:
        res = runs[("OJTRTA", s)]
        total_violations += len(res.violations)
        positions = np.array([rec.positions for rec in res.records])
        # pairwise separation in every slot
        for t in range(positions.shape[0]):
            for i in range(cfg.num_suavs):
                for j in range(i + 1, cfg.num_suavs):
                    worst_sep = min(worst_sep, float(np.linalg.norm(
                        positions[t, i] - positions[t, j])))
        # commanded speed between consecutive serving positions
        steps = np.linalg.norm(np.diff(positions, axis=0), axis=2)
        if steps.size:
            worst_speed = max(worst_speed,
                              float(steps.max()) / cfg.slot_duration)
    ok = (total_violations == 0
          and worst_sep >= cfg.min_separation - 1e-6
          and worst_speed <= cfg.suav_max_speed + 1e-9)
    verdict(5, "per-slot feasibility audit over 10 seeds", ok,
            f"{total_violations} violations, min separation {worst_sep:.3f}m "
            f"(floor {cfg.min_separation}m), max speed {worst_speed:.3f}m/s "
            f"(cap {cfg.suav_max_speed}m/s)")


def test_criterion_6_energy_budget(desk_runs):
    runs, _ = desk_runs
    cfg = desk_profile()
    budget = cfg.suav_energy_budget
    worst_energy = 0.0
    worst_backlog = 0.0
    ok = True
    for s in SEEDS:
        agg = runs[("OJTRTA", s)].aggregates
        energy = max(agg["avg_suav_energy"])
        backlog = max(max(agg["final_q_c"]), max(agg["final_q_p"])) \
            / cfg.num_slots
        worst_energy = max(worst_energy, energy)
        worst_backlog = max(worst_backlog, backlog)
        ok = ok and energy <= 1.1 * budget and backlog <= 0.05 * budget
    verdict(6, "per-SUAV energy budget compliance", ok,
            f"worst running-mean energy {worst_energy:.1f}J "
            f"(cap {1.1 * budget:.0f}J), worst Q(T)/T {worst_backlog:.3f}J "
            f"(cap {0.05 * budget:.0f}J)")


def test_criterion_7_approach_orderings(desk_runs, m40_runs):
    runs, desk_elapsed = desk_runs
    runs40, m40_elapsed = m40_runs
    tac = {app: float(np.mean([runs[(app, s)].aggregates["tac"]
                               for s in SEEDS])) for app in APPROACH_LIST}
    energy = {app: float(np.mean(
        [runs[(app, s)].aggregates["mean_suav_energy"] for s in SEEDS]))
        for app in APPROACH_LIST}
    lat40 = {app: float(np.mean(
        [runs40[(app, s)].aggregates["avg_latency"] for s in SEEDS]))
        for app in APPROACH_LIST}
    elapsed = desk_elapsed + m40_elapsed
    ok = (tac["OJTRTA"] < tac["EO"]
          and tac["OJTRTA"] <= tac["ERA"]
          and tac["OJTRTA"] <= tac["FLP"]
          and energy["OCQ"] >= energy["OJTRTA"]
          and all(lat40["EO"] > lat40[a] for a in APPROACH_LIST if a != "EO")
          and elapsed < WALL_GATE_S)
    verdict(7, "cost/energy/latency orderings across approaches", ok,
            f"TAC {tac['OJTRTA']:.4f} vs EO {tac['EO']:.4f} / "
            f"ERA {tac['ERA']:.4f} / FLP {tac['FLP']:.4f}; "
            f"energy OCQ {energy['OCQ']:.1f}J >= {energy['OJTRTA']:.1f}J; "
            f"latency at M=40: EO {lat40['EO']:.4f}s vs best other "
            f"{max(v for k, v in lat40.items() if k != 'EO'):.4f}s; "
            f"{elapsed:.0f}s elapsed, {WALL_GATE_S - elapsed:.0f}s "
            f"({WALL_GATE_S / elapsed:.1f}x) under the {WALL_GATE_S:.0f}s "
            "gate")


def test_criterion_8_v_tradeoff(v_sweep_runs):
    values = sorted(v_sweep_runs)
    tac = []
    backlog = []
    for v in values:
        aggs = [r.aggregates for r in v_sweep_runs[v]]
        tac.append(float(np.mean([a["tac"] for a in aggs])))
        backlog.append(float(np.mean([sum(a["final_q_c"])
                                      + sum(a["final_q_p"]) for a in aggs])))
    pairs = range(len(values) - 1)
    ok = all(at_most(tac[i + 1], tac[i]) for i in pairs) \
        and all(at_most(backlog[i], backlog[i + 1]) for i in pairs)

    def gaps(xs):
        return ", ".join(f"{xs[i + 1] - xs[i]:+.3g}" for i in pairs)

    verdict(8, "penalty-weight trade-off directions", ok,
            "mean TAC " + " >= ".join(f"{t:.5f}" for t in tac)
            + f" (gaps {gaps(tac)}; V="
            + ", ".join(f"{v:g}" for v in values) + "); "
            + "mean backlog " + " <= ".join(f"{b:.2f}" for b in backlog)
            + f" (gaps {gaps(backlog)}; ties within {TIE_RTOL:g} relative)")


def test_criterion_8_tie_tolerance():
    # the V=500 / V=5000 desk means: equal up to float rounding
    assert at_most(46.73234373564795, 46.732343735647945)
    # a real reversal and a one-step drop of the mean backlog still fail
    assert not at_most(46.73234373564795, 38.69)
    assert not at_most(46.73234373564795, 46.73234373564795 - 4.67)
    assert not at_most(3.08451, 3.08420)


def test_criterion_9_determinism(tmp_path):
    cfg = desk_profile(num_slots=50)
    blobs = []
    for tag in ("first", "second"):
        res = run_simulation(cfg, "OJTRTA", seed=0)
        path = tmp_path / f"{tag}.csv"
        write_slot_csv(res.records, path, cfg.num_suavs)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    verdict(9, "byte-identical outputs for identical runs", ok,
            f"two {cfg.num_slots}-slot runs, {len(blobs[0])} bytes each"
            if ok else "CSV outputs differ")
