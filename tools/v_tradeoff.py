#!/usr/bin/env python3
"""Acceptance criterion 8's V sweep, with paired per-seed statistics.

    tools/v_tradeoff.py [--config FILE] [--values V ...] [--seeds S ...]

Runs OJTRTA on the desk profile, with the JSON object of config overrides
in FILE applied on top, once for every V (`lyapunov_v`) and seed.  The
default is criterion 8's sweep: V = 50, 500 and 5000, seeds 0-9.

Per V it prints three means over the seeds:
  tac            the time-averaged cost;
  final_backlog  sum over SUAVs of q_c(T) + q_p(T), criterion 8's backlog;
  avg_backlog    the same sum averaged over the T slots.
Per consecutive pair of V values and per statistic it prints the per-seed
paired differences (higher V minus lower V): their mean, sample sd and
paired t, and how many seeds move the way criterion 8 expects (TAC falls,
either backlog rises), how many tie (within criterion 8's 1e-9 relative)
and how many move the other way.  It also prints the BLAS thread
variables, since the thread count moves OJTRTA's placements, and ends
with one JSON line holding all of it.
Nothing is written to disk.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uavmec.config import desk_profile          # noqa: E402
from uavmec.engine import run_simulation        # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# +1: criterion 8 expects the statistic to rise with V; -1: to fall
EXPECTED = {"tac": -1, "final_backlog": +1, "avg_backlog": +1}
# criterion 8's TIE_RTOL: two values this close are a tie, not a move
TIE_RTOL = 1e-9


def run_stats(config, seed: int) -> dict:
    res = run_simulation(config, "OJTRTA", seed=seed)
    agg = res.aggregates
    return {
        "tac": agg["tac"],
        "final_backlog": sum(agg["final_q_c"]) + sum(agg["final_q_p"]),
        "avg_backlog": sum(float(r.q_c.sum() + r.q_p.sum())
                           for r in res.records) / len(res.records)}


def paired(low: list, high: list, sign: int) -> dict:
    diffs = [h - lo for lo, h in zip(low, high)]
    mean = statistics.fmean(diffs)
    sd = statistics.stdev(diffs) if len(diffs) > 1 else 0.0
    t = mean / (sd / math.sqrt(len(diffs))) if sd > 0 else None
    ties = [math.isclose(lo, h, rel_tol=TIE_RTOL)
            for lo, h in zip(low, high)]
    return {"mean": mean, "sd": sd, "t": t, "ties": sum(ties),
            "expected": sum(d * sign > 0 and not tie
                            for d, tie in zip(diffs, ties)),
            "against": sum(d * sign < 0 and not tie
                           for d, tie in zip(diffs, ties)),
            "diffs": diffs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", help="JSON file of config overrides")
    parser.add_argument("--values", type=float, nargs="+",
                        default=[50.0, 500.0, 5000.0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(10)))
    args = parser.parse_args(argv)
    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    try:
        configs = [desk_profile(**{**overrides, "lyapunov_v": v})
                   for v in args.values]
    except ValueError as exc:
        raise SystemExit(f"invalid configuration: {exc}") from None
    blas = {name: os.environ.get(name) for name in BLAS_VARS}
    print("blas " + " ".join(f"{k}={v if v is not None else 'unset'}"
                             for k, v in blas.items()))
    print(f"overrides {json.dumps(overrides, sort_keys=True)}; "
          f"seeds {args.seeds}")

    per_v = []
    for v, config in zip(args.values, configs):
        runs = [run_stats(config, s) for s in args.seeds]
        stats = {name: [r[name] for r in runs] for name in EXPECTED}
        means = {name: statistics.fmean(xs) for name, xs in stats.items()}
        per_v.append({"v": v, "means": means, "per_seed": stats})
        print(f"V={v:g}: " + ", ".join(f"mean {name} {m:.6g}"
                                       for name, m in means.items()))

    steps = []
    for low, high in zip(per_v, per_v[1:]):
        step = {"from": low["v"], "to": high["v"]}
        for name, sign in EXPECTED.items():
            p = paired(low["per_seed"][name], high["per_seed"][name], sign)
            step[name] = p
            t = f"{p['t']:+.3g}" if p["t"] is not None else "n/a"
            print(f"V={low['v']:g} -> {high['v']:g} {name}: "
                  f"mean diff {p['mean']:+.4g}, sd {p['sd']:.4g}, t {t}; "
                  f"{'falls' if sign < 0 else 'rises'} in {p['expected']} "
                  f"of {len(args.seeds)} seeds, {p['ties']} ties, "
                  f"{p['against']} against")
        steps.append(step)
    print(json.dumps({"blas": blas, "overrides": overrides,
                      "seeds": args.seeds, "per_v": per_v, "steps": steps},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
