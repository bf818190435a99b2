"""Acceptance battery: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers, so the
run log doubles as the acceptance report.  The heavyweight fixtures (five
approaches x ten seeds at two fleet sizes, plus the trade-off sweep) are
module-scoped and shared across criteria.
"""

import statistics
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

# Criterion 8's profile and sweep.  A per-SUAV budget of 212 J splits into
# 9.8 J of compute and 202.2 J of propulsion per slot, so the budget binds
# and V trades cost against backlog well clear of seed noise (on the
# default desk budget the compute queue stays empty and TAC barely moves).
# The drift-plus-penalty bounds speak of cost and of the time-averaged
# backlog (Neely, Stochastic Network Optimization, 2010, ch. 4), so those
# are the two statistics: at each V step both ten-seed means must move the
# expected way, strictly, and so must at least TRADEOFF_SEEDS_MIN of the
# ten paired seeds (a tie is a miss).
TRADEOFF_BUDGET = 212.0
TRADEOFF_V = (50.0, 500.0, 5000.0)
TRADEOFF_SEEDS_MIN = 9
# statistic -> its expected direction as V rises: -1 falls, +1 rises
TRADEOFF_EXPECTED = {"tac": -1, "backlog": +1}

# Criterion 7's wall-time gate on the desk and M=40 fixtures together.  It
# depends on host load, so its verdict line prints the margin.
WALL_GATE_S = 600.0


def tradeoff_steps(table: dict) -> list:
    """Criterion 8's check of a {V: {statistic: per-seed values}} table: one
    (statistic, V low, V high, mean low, mean high, seeds moving the expected
    way, ok) row per V step and statistic."""
    values = sorted(table)
    rows = []
    for lo, hi in zip(values, values[1:]):
        for name, sign in TRADEOFF_EXPECTED.items():
            a, b = table[lo][name], table[hi][name]
            moved = sum((y - x) * sign > 0 for x, y in zip(a, b))
            mean_a, mean_b = statistics.fmean(a), statistics.fmean(b)
            ok = (mean_b - mean_a) * sign > 0 and moved >= TRADEOFF_SEEDS_MIN
            rows.append((name, lo, hi, mean_a, mean_b, moved, ok))
    return rows


def time_averaged_backlog(result) -> float:
    """Mean over the slots of the summed queues, sum_n q_c + q_p."""
    return sum(float(r.q_c.sum() + r.q_p.sum())
               for r in result.records) / len(result.records)


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
def v_sweep_table():
    table = {}
    for v in TRADEOFF_V:
        cfg = desk_profile(suav_energy_budget=TRADEOFF_BUDGET, lyapunov_v=v)
        runs = [run_simulation(cfg, "OJTRTA", seed=s) for s in SEEDS]
        table[v] = {"tac": [r.aggregates["tac"] for r in runs],
                    "backlog": [time_averaged_backlog(r) for r in runs]}
    return table


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


def test_criterion_8_v_tradeoff(v_sweep_table):
    rows = tradeoff_steps(v_sweep_table)
    verdict(8, "penalty-weight trade-off directions",
            all(row[-1] for row in rows),
            f"budget {TRADEOFF_BUDGET:g} J; " + "; ".join(
                f"{name} V={lo:g}->{hi:g}: mean {a:.5g} -> {b:.5g}, "
                f"{'falls' if TRADEOFF_EXPECTED[name] < 0 else 'rises'} in "
                f"{moved}/{len(SEEDS)} seeds"
                for name, lo, hi, a, b, moved, _ in rows))


def tradeoff_table(tac: list, backlog: list) -> dict:
    """A criterion 8 table from per-V rows of per-seed values."""
    return {v: {"tac": list(t), "backlog": list(b)}
            for v, t, b in zip(TRADEOFF_V, tac, backlog)}


# Measured on criterion 8's sweep, one BLAS thread: OJTRTA, which the
# criterion must pass, and OCQ, which ignores the queues in stage 2 and
# must fail (its TAC falls in only 4 and 6 of the ten seeds, and its mean
# TAC rises from V=500 to 5000).  TAC is rounded to 1e-7 and the backlog
# to 1e-2, which keeps every paired direction.
OJTRTA_TABLE = tradeoff_table(
    [(4.1988146, 4.772834, 4.155713, 4.6195748, 4.4057888, 4.3541801,
      4.5091646, 4.4436917, 4.2641653, 4.3521629),
     (3.6428691, 4.086814, 3.6108831, 3.8771517, 3.7977979, 3.7264204,
      3.7817022, 3.7651985, 3.6813298, 3.697217),
     (3.4348472, 3.8199652, 3.3989881, 3.6117643, 3.5666764, 3.4775908,
      3.5529376, 3.5423358, 3.4775731, 3.4709434)],
    [(50.66, 45.6, 51.29, 48.03, 51.11, 45.75, 49.8, 49.88, 47.9, 46.05),
     (82.57, 84.32, 80.31, 85.09, 82.54, 82.97, 82.15, 82.78, 82.57, 81.74),
     (318.48, 349.47, 317.6, 335.97, 328.77, 325.95, 326.29, 323.68,
      319.05, 323.23)])
OCQ_TABLE = tradeoff_table(
    [(3.0142347, 3.2558127, 3.0093918, 3.1019801, 3.0890305, 3.0360827,
      3.0746624, 3.0919566, 3.0488913, 3.0202177),
     (3.0065213, 3.2558155, 3.0093584, 3.0977344, 3.0890469, 3.0361053,
      3.0746667, 3.0919515, 3.0526345, 3.0202193),
     (3.0142521, 3.2583581, 3.009315, 3.0977307, 3.0890408, 3.0361249,
      3.0746744, 3.0919492, 3.052632, 3.0202089)],
    [(2078.97, 1413.33, 2182.75, 2000.11, 1207.36, 1399.53, 1133.22,
      1738.28, 1402.62, 1981.28),
     (2244.54, 1538.25, 2344.0, 2053.67, 1305.95, 1506.95, 1196.0, 1866.62,
      1551.47, 2052.6),
     (2223.26, 1647.88, 2448.08, 2106.78, 1342.15, 1605.78, 1231.99, 1908.2,
      1618.49, 2075.69)])


def test_criterion_8_check_on_synthetic_tables():
    def holds(table):
        return all(row[-1] for row in tradeoff_steps(table))

    def edited(stat, v, seeds):
        """OJTRTA_TABLE with ``stat`` at ``v`` set to ``seeds[s]`` for each
        seed s listed."""
        table = {u: {k: list(xs) for k, xs in cols.items()}
                 for u, cols in OJTRTA_TABLE.items()}
        for s, value in seeds.items():
            table[v][stat][s] = value
        return table

    assert holds(OJTRTA_TABLE)
    assert [row[5] for row in tradeoff_steps(OJTRTA_TABLE)] == [10] * 4
    assert not holds(OCQ_TABLE)
    assert [row[5] for row in tradeoff_steps(OCQ_TABLE)
            if row[0] == "tac"] == [4, 6]
    # a mean reversal: nine seeds fall, but one rises enough to lift the mean
    assert not holds(edited("tac", 5000.0, {0: 10.0}))
    # one seed against still passes; two against fail, the mean rising
    at_500 = OJTRTA_TABLE[500.0]["backlog"]
    assert holds(edited("backlog", 5000.0, {0: at_500[0] - 1.0}))
    assert not holds(edited("backlog", 5000.0, {0: at_500[0] - 1.0,
                                                1: at_500[1] - 1.0}))
    # a tie is a miss: one seed against and one tied fail
    assert not holds(edited("backlog", 5000.0, {0: at_500[0] - 1.0,
                                                1: at_500[1]}))
    # and so is a tie of the means
    flat = tradeoff_table([(3.0,) * 10] * 3, [(50.0,) * 10] * 3)
    assert not holds(flat)


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
