"""Command-line front end: run simulations, sweeps, and the oracle suites."""

import argparse
import dataclasses
import json
import os
import sys

from .config import PROFILES, ScenarioConfig
from .engine import APPROACH_IDS, run_simulation
from .results import write_slot_csv, write_summary_json, write_trajectory_csv


def _build_config(args) -> ScenarioConfig:
    overrides = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, ValueError) as exc:   # ValueError: not JSON
            raise SystemExit(f"cannot read --config {args.config}: "
                             f"{exc}") from None
        if not isinstance(overrides, dict):
            raise SystemExit(f"--config {args.config} must hold a JSON "
                             "object of config fields")
    if args.slots is not None:
        overrides["num_slots"] = args.slots
    return _checked(PROFILES[args.profile], **overrides)


def _checked(make, *args, **kwargs) -> ScenarioConfig:
    """``make(...)``, with an invalid configuration reported as an exit."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit(f"invalid configuration: {exc}") from None


def _approach_list(spec: str):
    if spec == "all":
        return list(APPROACH_IDS)
    names = [s for s in spec.split(",") if s]
    if not names:
        raise SystemExit(f"--approach {spec!r} names no approach; choose "
                         f"from {APPROACH_IDS} or 'all'")
    for name in names:
        if name not in APPROACH_IDS:
            raise SystemExit(
                f"unknown approach {name!r}; choose from {APPROACH_IDS} or 'all'")
    return names


def _run_batch(config, approaches, seeds, trace=False):
    results = []
    for approach in approaches:
        for seed in seeds:
            results.append(run_simulation(config, approach, seed=seed,
                                          trace=trace))
    return results


def _write_outputs(results, out_dir, config, trace=False):
    os.makedirs(out_dir, exist_ok=True)
    for res in results:
        stem = f"slots_{res.approach}_{res.seed}"
        write_slot_csv(res.records, os.path.join(out_dir, stem + ".csv"),
                       config.num_suavs)
        if trace:
            write_trajectory_csv(
                res, os.path.join(out_dir,
                                  f"trajectory_{res.approach}_{res.seed}.csv"))
    write_summary_json(results, os.path.join(out_dir, "summary.json"))


def _audits_clean(results) -> bool:
    return all(res.aggregates["audit_violations"] == 0 for res in results)


def _report(results) -> None:
    for res in results:
        agg = res.aggregates
        print(f"{agg['approach']:>7s} seed={agg['seed']:<3d} "
              f"tac={agg['tac']:.4f} latency={agg['avg_latency']:.4f} "
              f"suav_energy={agg['mean_suav_energy']:.2f} "
              f"violations={agg['audit_violations']}")


def cmd_simulate(args) -> int:
    config = _build_config(args)
    seeds = args.seeds or [config.seed]
    for seed in seeds:   # every seed is validated before the first run
        _checked(dataclasses.replace, config, seed=seed)
    approaches = _approach_list(args.approach)
    results = _run_batch(config, approaches, seeds, trace=args.trace)
    _report(results)
    if args.out:
        _write_outputs(results, args.out, config, trace=args.trace)
        print(f"wrote {args.out}/summary.json")
    return 0 if _audits_clean(results) else 1


_SWEEP_ALIASES = {"V": "lyapunov_v", "v": "lyapunov_v"}


def cmd_sweep(args) -> int:
    field = _SWEEP_ALIASES.get(args.param, args.param)
    if field not in ScenarioConfig.__dataclass_fields__:
        raise SystemExit(f"unknown sweep parameter {args.param!r}")
    if field == "seed":   # each run's seed comes from --seeds
        raise SystemExit("sweep parameter 'seed' would be overridden by "
                         "--seeds; give the seeds with --seeds instead")
    base = _build_config(args)
    if isinstance(getattr(base, field), tuple):
        raise SystemExit(f"sweep parameter {field!r} is tuple-valued; "
                         "--values sweeps scalar fields only")
    seeds = args.seeds or [0]
    for seed in seeds:
        _checked(dataclasses.replace, base, seed=seed)
    approaches = _approach_list(args.approach)
    points = []   # every point is validated before the first run
    written = {}  # output directory -> the value that writes it
    for value in args.values:
        if type(getattr(base, field)) is int and value.is_integer():
            value = int(value)   # --values parses floats
        name = f"{field}_{value:g}"
        if args.out and name in written:
            raise SystemExit(f"--values {written[name]!r} and {value!r} "
                             f"would both write {name}; give values that "
                             "differ in their first six digits")
        written[name] = value
        points.append((value, name, _checked(
            ScenarioConfig.from_dict, {**base.to_dict(), field: value})))
    clean = True
    rows = []
    for value, name, config in points:
        results = _run_batch(config, approaches, seeds)
        print(f"--- {field} = {value:g} ---")
        _report(results)
        clean = clean and _audits_clean(results)
        rows.append({"value": value,
                     "runs": [res.aggregates for res in results]})
        if args.out:
            _write_outputs(results, os.path.join(args.out, name), config)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "sweep.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"param": field, "points": rows}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0 if clean else 1


def cmd_verify(args) -> int:
    from .verification import run_all   # simulations never load the oracles
    suites = run_all(seed=args.seed)
    for suite in suites:
        print(suite.line())
    return 0 if all(s.passed for s in suites) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavmec",
        description="Multi-UAV edge-computing simulator and baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--config", help="JSON file of config overrides")
    runs.add_argument("--profile", choices=sorted(PROFILES), default="desk",
                      help="base parameter set (default: desk)")
    runs.add_argument("--approach", default="OJTRTA",
                      help="approach id, comma list, or 'all'")
    runs.add_argument("--seeds", type=int, nargs="+",
                      help="random seeds (default: the config seed for "
                      "simulate, 0 for sweep)")
    runs.add_argument("--slots", type=int,
                      help="override the horizon length")
    runs.add_argument("--out", help="directory for CSV/JSON outputs")

    sim = sub.add_parser("simulate", parents=[runs],
                         help="run one or more simulations")
    sim.add_argument("--trace", action="store_true",
                     help="record per-slot positions for plotting")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", parents=[runs],
                           help="repeat runs over a config parameter")
    sweep.add_argument("--param", required=True,
                       help="config field to vary ('V' = lyapunov_v)")
    sweep.add_argument("--values", type=float, nargs="+", required=True)
    sweep.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run the solver verification suites")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
