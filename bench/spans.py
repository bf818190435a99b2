"""Span tracer that times the program's layers from outside.

``Tracer.install`` replaces the program's entry points with wrappers, on the
name where each caller looks them up (``uavmec.engine.run_stage1``,
``uavmec.game.allocate``, ``uavmec.trajectory.minimize`` and so on), and
``uninstall`` puts the originals back.  Each call becomes one span: name,
start, end, parent span, and the (seed, slot) it belongs to.  Spans stay in
memory until ``write`` saves them.  A span is named ``<layer>.<function>``,
where the layer is the module that owns the function.
"""
from __future__ import annotations

import csv
import statistics
import time
from collections import defaultdict

NAME, START, END, PARENT, SEED, SLOT = range(6)


class Tracer:
    """Spans and counts of the calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []
        self.seed = None
        self.slot = None
        self.sweeps = 0
        self.moves = 0
        self.sca_iters = 0
        self.unconverged = 0
        self.kkt_residual_max = 0.0
        self.stage2: list = []      # (seed, slot, problem, result), unchecked

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by a traced call.  ``name`` is the span name
        or a function of the call's keyword arguments that gives it."""
        original = getattr(owner, attr)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name if isinstance(name, str) else name(kwargs),
                              start, end, parent, self.seed, self.slot)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        import uavmec.channel as channel
        import uavmec.engine as engine
        import uavmec.game as game
        import uavmec.results as results
        import uavmec.scenario as scenario
        import uavmec.trajectory as trajectory

        def slot_start(args):
            self.slot = args[0].slot

        def stage1_done(args, res):
            self.sweeps += res.sweeps
            self.moves += len(res.moves)

        def stage2_done(args, res):
            self.sca_iters += res.iterations
            self.unconverged += not res.converged
            self.stage2.append((self.seed, self.slot, args[0], res))

        def subproblem_done(args, sol):
            self.kkt_residual_max = max(self.kkt_residual_max,
                                        sol.kkt_residual)

        w = self.wrap
        w(engine, "run_slot", "engine.run_slot", before=slot_start)
        w(engine, "build_game_context", "engine.build_game_context")
        w(engine, "run_stage1", "game.run_stage1", after=stage1_done)
        w(engine, "build_problem", "trajectory.build_problem")
        w(engine, "run_stage2", "trajectory.run_stage2", after=stage2_done)
        w(engine, "audit_slot", "audit.audit_slot")
        for fn in ("init_queues", "update_queues", "dpp_objective"):
            w(engine, fn, f"lyapunov.{fn}")
        for fn in ("build_scenario", "step_mobility", "resample_tasks"):
            w(engine, fn, f"scenario.{fn}")
        w(scenario.World, "task_arrays", "scenario.task_arrays")
        for fn in ("los_probability", "sample_small_scale",
                   "large_scale_loss", "composite_gain", "transmission_rate",
                   "snr_numerator"):
            w(channel, fn, f"channel.{fn}")
        w(game.GameContext, "__post_init__", "game.GameContext")
        for fn in ("best_response", "potential", "utility"):
            w(game, fn, f"game.{fn}")
        for fn in ("allocate", "uniform_allocation"):
            w(game, fn, f"allocation.{fn}")
        w(trajectory, "solve_convex_subproblem",
          "trajectory.solve_convex_subproblem", after=subproblem_done)
        w(trajectory, "minimize",
          lambda kwargs: f"trajectory.minimize.{kwargs.get('method')}")
        w(trajectory._Subproblem, "kkt_polish", "trajectory.kkt_polish")
        w(trajectory, "true_objective", "trajectory.true_objective")
        for fn in ("write_slot_csv", "write_summary_json"):
            w(results, fn, f"results.{fn}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Save spans as CSV; times in ms from the first span's start."""
        t0 = min((s[START] for s in self.spans), default=0.0)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_ms", "end_ms", "parent",
                          "seed", "slot"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[NAME], f"{(s[START] - t0) * 1e3:.4f}",
                              f"{(s[END] - t0) * 1e3:.4f}", s[PARENT],
                              s[SEED], s[SLOT]])


def layer_metrics(tracer: Tracer, runs: int) -> dict:
    """Per-layer figures over the traced spans of ``runs`` simulation runs,
    normalized per traced slot (or per run for output writing).  Returns
    {name: (value, unit)}, or {} when no slot was traced."""
    spans = tracer.spans
    slots = sum(1 for s in spans if s[NAME] == "engine.run_slot")
    if not slots:
        return {}
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
            children[s[PARENT]].append(i)
    self_ms = defaultdict(float)      # layer -> self time, all spans
    in_slot_ms = 0.0                  # self time of spans under run_slot
    calls = defaultdict(int)
    total_ms = defaultdict(float)     # span name -> inclusive time
    under_slot = [False] * len(spans)
    for i, s in enumerate(spans):     # parents precede their children
        name = s[NAME]
        under_slot[i] = name == "engine.run_slot" or (
            s[PARENT] >= 0 and under_slot[s[PARENT]])
        own = (dur[i] - child_time[i]) * 1e3
        self_ms[name.split(".")[0]] += own
        if under_slot[i]:
            in_slot_ms += own
        calls[name] += 1
        total_ms[name] += dur[i] * 1e3

    subproblems = [i for i, s in enumerate(spans)
                   if s[NAME] == "trajectory.solve_convex_subproblem"]
    first_pass = sum(
        1 for i in subproblems
        if [spans[c][NAME] for c in children[i]]
        == ["trajectory.minimize.SLSQP"])
    sub_ms = [dur[i] * 1e3 for i in subproblems]

    def per_slot(x):
        return x / slots

    return {
        "game.ms_per_slot": (per_slot(self_ms["game"]), "ms"),
        "game.best_response_ms_per_slot":
            (per_slot(total_ms["game.best_response"]), "ms"),
        "game.potential_ms_per_slot":
            (per_slot(total_ms["game.potential"]), "ms"),
        "game.sweeps_per_slot": (per_slot(tracer.sweeps), "count"),
        "game.moves_per_slot": (per_slot(tracer.moves), "count"),
        "game.best_responses_per_slot":
            (per_slot(calls["game.best_response"]), "count"),
        "game.potential_calls_per_slot":
            (per_slot(calls["game.potential"]), "count"),
        "allocation.ms_per_slot": (per_slot(self_ms["allocation"]), "ms"),
        "trajectory.ms_per_slot": (per_slot(self_ms["trajectory"]), "ms"),
        "trajectory.sca_iters_per_slot": (per_slot(tracer.sca_iters), "count"),
        "trajectory.subproblems_per_slot":
            (per_slot(len(subproblems)), "count"),
        "trajectory.subproblem_ms_p50":
            (statistics.median(sub_ms) if sub_ms else 0.0, "ms"),
        "trajectory.first_pass_ratio":
            (first_pass / len(subproblems) if subproblems else 0.0, "ratio"),
        "trajectory.slsqp_calls_per_slot":
            (per_slot(calls["trajectory.minimize.SLSQP"]), "count"),
        "trajectory.kkt_polish_calls_per_slot":
            (per_slot(calls["trajectory.kkt_polish"]), "count"),
        "trajectory.kkt_polish_ms_per_slot":
            (per_slot(total_ms["trajectory.kkt_polish"]), "ms"),
        "trajectory.trust_constr_calls_per_slot":
            (per_slot(calls["trajectory.minimize.trust-constr"]), "count"),
        "trajectory.trust_constr_ms_per_slot":
            (per_slot(total_ms["trajectory.minimize.trust-constr"]), "ms"),
        "trajectory.kkt_residual_max": (tracer.kkt_residual_max, "residual"),
        "trajectory.unconverged_slots_per_run":
            (tracer.unconverged / runs, "count"),
        "channel.ms_per_slot": (per_slot(self_ms["channel"]), "ms"),
        "scenario.ms_per_slot": (per_slot(self_ms["scenario"]), "ms"),
        "scenario.task_arrays_calls_per_slot":
            (per_slot(calls["scenario.task_arrays"]), "count"),
        "audit.ms_per_slot": (per_slot(self_ms["audit"]), "ms"),
        "lyapunov.ms_per_slot": (per_slot(self_ms["lyapunov"]), "ms"),
        "engine.self_ms_per_slot": (per_slot(self_ms["engine"]), "ms"),
        "results.write_ms_per_run": (self_ms["results"] / runs, "ms"),
        "trace.slot_ms_mean":
            (per_slot(total_ms["engine.run_slot"]), "ms"),
        "trace.layers_in_slot_ms_mean": (per_slot(in_slot_ms), "ms"),
    }
