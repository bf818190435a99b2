#!/usr/bin/env python3
"""Alternating benchmark pairs: a git revision against the working tree.

    tools/bench_pairs.py <rev> <workload> <seeds...> [--trace 0|1]
                         [--unused-seed N] [--out BENCH_n.json]

Exports <rev> and the working tree (tracked and untracked files, minus
ignored ones) with `git archive` into a temporary directory, then runs
`python3 bench/run.py --workload <workload> --seed n --trace T` (at the
benchmark's own run length) once in each export for every seed n: the
revision first on even n, the working tree first on odd n.  With
--unused-seed one more pair runs on that seed and is kept apart from the
summary.

With --trace 0 the result holds, per workload, the pairs and a summary of
every end-to-end metric in BENCHMARK.json: quartiles of both sides, wins
(a pair with equal values is a tie), the median ratio, the revision's
quartile spread and the gap between the medians (revision minus working
tree).  With --trace 1 it holds the seed's traced pair, under
`traced_pairs` and the workload's name.  The JSON goes to standard output,
or is merged into --out: the workload's entry (or its traced pair) is
replaced and every other key, such as a title, a claim or another
workload's traced pair, is kept.  Nothing in the repository is touched
apart from --out.  Each pair keeps both runs' ``correct`` flag and exit
status; when any run is not correct or exits non-zero, the JSON is still
written and the script then exits 1, naming each such run's side and seed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args, **kwargs) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True,
                          **kwargs).stdout.strip()


def working_tree(tmp: Path) -> str:
    """Tree id of the working tree, written through a scratch index."""
    env = dict(os.environ, GIT_INDEX_FILE=str(tmp / "index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def export(treeish: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", treeish],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One bench/run.py run: its result line (with its ``correct`` flag),
    its exit status and its environment."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"error: no result from {tree} seed {seed}:\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    env.pop("seeds", None)
    return {**result, "exit": proc.returncode, "environment": env}


def pair(trees: dict, workload: str, seed: int, trace: int) -> dict:
    first = "parent" if seed % 2 == 0 else "change"
    order = (first, "change" if first == "parent" else "parent")
    runs = {side: bench(trees[side], workload, seed, trace)
            for side in order}
    values = {side: {name: m["value"]
                     for name, m in runs[side]["metrics"].items()}
              for side in order}
    print(f"{workload} seed {seed}: " + ", ".join(
        f"{side} slot_ms_p50 {values[side].get('slot_ms_p50')}"
        for side in order), file=sys.stderr)
    return {"seed": seed, "first": first,
            "parent": values["parent"], "change": values["change"],
            **{f"{side}_{key}": runs[side][key] for side in SIDES
               for key in ("failed", "correct", "exit")},
            "attempted": [runs["parent"]["attempted"],
                          runs["change"]["attempted"]],
            "environment": runs["parent"]["environment"]}


def faults(pairs: list) -> list:
    """One line per run that is not ``correct`` or exited non-zero."""
    return [f"{side} run, seed {p['seed']}: correct {p[side + '_correct']}, "
            f"exit status {p[side + '_exit']}"
            for p in pairs for side in SIDES
            if not p[side + "_correct"] or p[side + "_exit"] != 0]


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(pairs: list, metrics: list) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        ties = sum(c == p for p, c in zip(par, chg))
        qp, qc = quartiles(par), quartiles(chg)
        out[name] = {
            "better": metric["better"], "bound": metric["bound"],
            "parent": qp, "change": qc,
            "change_wins": wins, "parent_wins": len(pairs) - wins - ties,
            "ties": ties,
            "median_ratio_change_over_parent": qc["median"] / qp["median"],
            "parent_quartile_spread": qp["q3"] - qp["q1"],
            "median_gap": qp["median"] - qc["median"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("workload")
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unused-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.trace and len(args.seeds) != 1:
        parser.error("--trace 1 takes one seed")
    if args.trace == 0 and len(args.seeds) < 2:
        parser.error("a summary needs at least two seeds")

    commit = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tree = working_tree(tmp)
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        export(commit, trees["parent"])
        export(tree, trees["change"])
        end_to_end = json.loads(
            (trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        pairs = [pair(trees, args.workload, seed, args.trace)
                 for seed in args.seeds]
        unused = (pair(trees, args.workload, args.unused_seed, args.trace)
                  if args.unused_seed is not None else None)

    doc = (json.loads(args.out.read_text())
           if args.out and args.out.exists() else {})
    doc["parent"] = {"commit": commit,
                     "src_tree": git("rev-parse", f"{commit}:src")}
    doc["change"] = {"src_tree": git("rev-parse", f"{tree}:src")}
    runs = pairs + ([unused] if unused else [])
    doc["environment"] = pairs[0].pop("environment")
    for p in runs[1:]:
        p.pop("environment")
    command = (f"python3 bench/run.py --workload {args.workload} --seed n "
               f"--trace {args.trace}")
    if args.trace:
        p = pairs[0]
        doc.setdefault("traced_pairs", {})[args.workload] = {
            "seed": p["seed"],
            "command": command.replace("--seed n", f"--seed {p['seed']}"),
            "parent": p["parent"], "change": p["change"],
            **{k: p[k] for k in p if k.endswith(("_correct", "_exit"))}}
    else:
        entry = {"command": command, "pairs": pairs,
                 "summary": summary(pairs, end_to_end)}
        if unused:
            entry["unused_seed"] = {k: v for k, v in unused.items()
                                    if k not in ("first", "attempted")}
        doc.setdefault("workloads", {})[args.workload] = entry
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    bad = faults(runs)
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
