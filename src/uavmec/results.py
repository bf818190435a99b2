"""Result persistence: per-slot CSV, run-summary JSON, trajectory traces.

CSV files are RFC-4180-style (default csv-module dialect), UTF-8, with '.'
as the decimal separator.  Floats are written with repr(), the shortest
round-trip representation, so identical runs produce byte-identical files.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

from . import __version__


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value


def slot_header(n_suavs: int) -> list:
    cols = ["slot", "approach", "seed", "cost", "latency", "ud_energy"]
    cols += [f"suav_energy_{n + 1}" for n in range(n_suavs)]
    cols += [f"q_c_{n + 1}" for n in range(n_suavs)]
    cols += [f"q_p_{n + 1}" for n in range(n_suavs)]
    for n in range(n_suavs):
        cols += [f"pos_x_{n + 1}", f"pos_y_{n + 1}"]
    return cols


def record_row(rec) -> list:
    row = [rec.slot, rec.approach, rec.seed, rec.cost, rec.latency,
           rec.ud_energy]
    row += [float(e) for e in rec.suav_energy]
    row += [float(q) for q in rec.q_c]
    row += [float(q) for q in rec.q_p]
    for pos in rec.positions:
        row += [float(pos[0]), float(pos[1])]
    return [_fmt(v) for v in row]


def write_slot_csv(records, path, n_suavs: int) -> None:
    """Write per-slot metric rows; an empty run still gets the header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(slot_header(n_suavs))
        for rec in records:
            writer.writerow(record_row(rec))


def write_summary_json(results, path) -> None:
    """One JSON document per sweep: config echo plus per-run aggregates.

    The config block echoes the first run's configuration (runs in one
    summary share everything except approach and seed).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "generator": {"name": "uavmec", "version": __version__},
        "config": results[0].config.to_dict() if results else None,
        "runs": [dict(res.aggregates) for res in results],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(result, path) -> None:
    """Per-slot UD and SUAV positions of a traced run, for plotting."""
    if result.trace is None:
        raise ValueError("run was not traced; pass trace=True")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "kind", "index", "x", "y"])
        for slot, ud_pos, suav_pos in result.trace["rows"]:
            for i, p in enumerate(ud_pos):
                writer.writerow([slot, "ud", i, _fmt(float(p[0])),
                                 _fmt(float(p[1]))])
            for n, p in enumerate(suav_pos):
                writer.writerow([slot, "suav", n, _fmt(float(p[0])),
                                 _fmt(float(p[1]))])
