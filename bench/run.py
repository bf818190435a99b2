#!/usr/bin/env python3
"""Slot-latency, throughput and QoE benchmark of the uavmec slot controller.

Run from the repository root:

    python3 bench/run.py --workload desk-ojtrta --seed 0 --seconds 50 --trace 0

One operation is one simulation run (profile, approach, seed) followed by
writing its slot CSV and summary JSON; the slot loop is closed (each slot
starts when the previous one ends).  Every operation's outputs are checked.
With ``--trace 0`` a run makes operations on fresh seeds for ``--seconds``
and reports the end-to-end metrics; with ``--trace 1`` it makes the
workload's base operations untraced, then again traced, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3          # timed set-ups per run; their median is setup_s
PROBE_TIMEOUT_S = 60
SEEDS_PER_RUN = 1000      # --seed n draws simulation seeds from n*1000 on


@dataclass(frozen=True)
class Workload:
    profile: str       # a uavmec.config.PROFILES entry, with its slot count
    approach: str
    base_ops: int      # operations every run makes; tac and energy use these

    def seed(self, run_seed: int, i: int) -> int:
        """Simulation seed of a run's i-th operation."""
        return run_seed * SEEDS_PER_RUN + i


# desk-ojtrta: stage 2 (SCA placement) is most of each slot.
# paper-flp: stage 2 is skipped, so stage 1 (the offloading game) is.
# Base counts keep >= 400 slots per run, so >= 10 lie beyond the p97.5.
WORKLOADS = {
    "desk-ojtrta": Workload("desk", "OJTRTA", 7),
    "paper-flp": Workload("paper", "FLP", 5),
}


def pin_blas() -> None:
    """One BLAS thread, set before numpy is first imported: threaded BLAS
    varies the KKT solves' time by two orders and changes aggregates in
    their last bits."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_program():
    """Import uavmec from the checkout's src/, or exit if it is missing."""
    if not (SRC / "uavmec" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'uavmec'}")
    sys.path.insert(0, str(SRC))
    import uavmec.config
    import uavmec.engine
    import uavmec.results
    return uavmec


def make_config(uavmec, wl: Workload):
    return uavmec.config.PROFILES[wl.profile]()


def probe(name: str) -> None:
    """Child process of ``measure_setup``: what a run does before its first
    slot (imports, config, scenario build, queues), then report."""
    uavmec = import_program()
    from uavmec.lyapunov import init_queues
    from uavmec.scenario import build_scenario
    cfg = make_config(uavmec, WORKLOADS[name])
    build_scenario(cfg)
    init_queues(cfg.num_suavs, *cfg.budget_split())
    print("ready", flush=True)


def measure_setup(name: str) -> float:
    """Median time from process start to ready-for-the-first-slot over
    SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                                 "--probe", name],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this
    process, found through /proc/self/maps."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return found
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


class Bench:
    """One benchmark run of one workload: operations, checks, bookkeeping."""

    def __init__(self, uavmec, wl: Workload, out_dir: Path):
        import checks
        self.uavmec = uavmec
        self.checks = checks
        self.wl = wl
        self.config = make_config(uavmec, wl)
        self.out_dir = out_dir
        self.slot_ms: list = []
        self.op_wall: list = []
        self.slots = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list = []        # (seed, slot, message)
        self.wrong = False              # some output failed a check
        self.csv_bytes: dict = {}       # seed -> bytes of its first run
        self.aggregates: dict = {}      # seed -> aggregates of its first run
        self.tracer = None

    def run_op(self, seed: int) -> float | None:
        """One simulation run and its outputs, then every check on them.
        Returns the run's wall time in seconds, or None if it failed."""
        self.attempted += 1
        results = self.uavmec.results
        csv_path = self.out_dir / f"slots_{self.wl.approach}_{seed}.csv"
        mark = len(self.slot_ms)
        if self.tracer:
            self.tracer.stage2.clear()
        try:
            start = time.perf_counter()
            res = self.uavmec.engine.run_simulation(
                self.config, self.wl.approach, seed=seed)
            results.write_slot_csv(res.records, csv_path,
                                   self.config.num_suavs)
            results.write_summary_json(
                [res], self.out_dir / f"summary_{self.wl.approach}_{seed}.json")
            wall = time.perf_counter() - start
        except Exception as exc:   # an operation that raises is counted
            traceback.print_exc()
            msg = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.failures.append((seed, None, msg))
            self.failed += 1
            del self.slot_ms[mark:]
            return None
        found = [(seed, slot, f"audit: {msg}") for slot, msg in res.violations]
        found += [(seed, slot, msg) for slot, msg in self.checks.check_run(
            res.records, self.config, seed, self.wl.approach != "FLP")]
        if self.tracer:
            for _, slot, problem, result in self.tracer.stage2:
                found += [(seed, slot, msg) for msg in
                          self.checks.check_stage2(problem, result)]
        data = csv_path.read_bytes()
        first = self.csv_bytes.setdefault(seed, data)
        if data != first:
            found.append((seed, None, "determinism: slot CSV differs from "
                          "the first run of this seed"))
        self.aggregates.setdefault(seed, res.aggregates)
        if found:
            self.failures.extend(found)
            self.failed += 1
            self.wrong = True
            del self.slot_ms[mark:]
            return None
        self.op_wall.append(wall)
        self.slots += len(res.records)
        return wall

    def run_for(self, run_seed: int, seconds: float) -> list:
        """Operations on fresh seeds, at least ``base_ops`` of them, while
        one more and the closing repeat of the first seed, each as long as
        the mean so far, still end within ``seconds``.  Returns the seeds."""
        seeds = []
        begin = time.perf_counter()
        while True:
            seeds.append(self.wl.seed(run_seed, len(seeds)))
            self.run_op(seeds[-1])
            elapsed = time.perf_counter() - begin
            if (len(seeds) >= self.wl.base_ops
                    and elapsed * (len(seeds) + 2) / len(seeds) > seconds):
                break
        self.run_op(seeds[0])      # runs twice: checks determinism
        return seeds


def timed_run_slot(engine, sink: list):
    """Wrap engine.run_slot with a bare timer (untraced runs)."""
    original = engine.run_slot

    def run_slot(*args, **kwargs):
        start = time.perf_counter()
        out = original(*args, **kwargs)
        sink.append((time.perf_counter() - start) * 1e3)
        return out

    engine.run_slot = run_slot
    return original


def end_to_end(bench: Bench, seeds, setup_s: float) -> dict:
    """The end-to-end metrics over the operations that did not fail."""
    times = bench.slot_ms
    aggs = [bench.aggregates[s] for s in seeds if s in bench.aggregates]
    if not times or not aggs:
        return {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "slot_ms_p50": (statistics.median(times), "ms"),
        "slot_ms_p97.5": (statistics.quantiles(times, n=40)[-1], "ms"),
        "slots_per_s": (bench.slots / sum(bench.op_wall), "slots/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "tac": (statistics.fmean(a["tac"] for a in aggs), "cost"),
        "suav_energy_j": (statistics.fmean(a["mean_suav_energy"]
                                           for a in aggs), "J"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_blas()
    if args.probe:
        probe(args.probe)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    uavmec = import_program()
    wl = WORKLOADS[args.workload]
    env = environment()
    if any(n != 1 for n in env["blas_threads"].values()):
        raise SystemExit(f"error: BLAS not pinned to one thread: "
                         f"{env['blas_threads']}")
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(uavmec, wl, out_dir)
    engine = uavmec.engine

    if args.trace == 0:
        setup_s = measure_setup(args.workload)
        original = timed_run_slot(engine, bench.slot_ms)
        try:
            seeds = bench.run_for(args.seed, args.seconds)
        finally:
            engine.run_slot = original
        metrics = end_to_end(bench, seeds[:wl.base_ops], setup_s)
    else:
        # Each base operation untraced, then at once traced: the per-layer
        # counts repeat exactly for a given --seed, the repeat checks
        # determinism, and pairing the two keeps host-speed drift out of
        # the wall-time ratio, the tracing overhead.
        from spans import Tracer, layer_metrics
        seeds = [wl.seed(args.seed, i) for i in range(wl.base_ops)]
        tracer = Tracer()
        untraced = traced = 0.0
        for seed in seeds:
            bench.tracer = None
            plain = bench.run_op(seed)
            bench.tracer = tracer
            tracer.seed = seed
            tracer.install()
            try:
                with_spans = bench.run_op(seed)
            finally:
                tracer.uninstall()
            if plain and with_spans:
                untraced += plain
                traced += with_spans
        metrics = layer_metrics(tracer, runs=len(seeds))
        tracer.write(out_dir / "spans.csv")
        if metrics:
            slot_ms = metrics["trace.slot_ms_mean"][0]
            layers_ms = metrics["trace.layers_in_slot_ms_mean"][0]
            if abs(layers_ms - slot_ms) > 1e-6 * slot_ms:
                bench.wrong = True
                bench.failures.append((None, None, "trace: layer self times "
                                       f"{layers_ms} ms != slot time "
                                       f"{slot_ms} ms"))
        if metrics and untraced:
            metrics["trace.overhead_pct"] = (
                100.0 * (traced / untraced - 1.0), "%")

    failed, correct = bench.failed, not bench.wrong
    env["seeds"] = seeds

    print(f"workload {args.workload}: {wl.profile} profile, {wl.approach}, "
          f"{bench.config.num_slots} slots, seeds {seeds}; trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for seed, slot, msg in bench.failures:
        print(f"FAILED seed={seed} slot={slot}: {msg}")
    print(f"operations attempted={bench.attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42s} {value:>14.6g} {unit}")
    doc = {"correct": correct, "attempted": bench.attempted, "failed": failed,
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    with open(out_dir / f"result_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "environment": env,
                   "failures": bench.failures, **doc}, fh, indent=2)
    print(json.dumps(doc))
    return 0 if failed == 0 and correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
