"""Command-line entry points, exercised via main(argv)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from uavmec.cli import build_parser, main


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", "--approach", "OJTRTA", "--seeds", "0",
               "--slots", "4", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "OJTRTA" in captured and "violations=0" in captured
    assert (out / "slots_OJTRTA_0.csv").exists()
    doc = json.loads((out / "summary.json").read_text())
    assert doc["runs"][0]["approach"] == "OJTRTA"
    assert doc["runs"][0]["slots"] == 4


def test_simulate_multiple_approaches_and_seeds(tmp_path):
    out = tmp_path / "runs"
    rc = main(["simulate", "--approach", "OJTRTA,FLP", "--seeds", "0", "1",
               "--slots", "3", "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.glob("slots_*.csv")}
    assert names == {"slots_OJTRTA_0.csv", "slots_OJTRTA_1.csv",
                     "slots_FLP_0.csv", "slots_FLP_1.csv"}
    doc = json.loads((out / "summary.json").read_text())
    assert len(doc["runs"]) == 4


def test_flp_runs_without_loading_scipy(tmp_path):
    """SciPy is loaded on the first placement solve, not by ``import
    uavmec``: FLP never moves a SUAV, so it runs on NumPy alone.  The
    approaches that move SUAVs load only the compiled SLSQP/NNLS core:
    ``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg`` stay
    unloaded.  No simulation loads the oracles of ``uavmec.verification``."""
    script = textwrap.dedent("""
        import sys
        from uavmec.cli import main
        from uavmec.trajectory import _slsqplib
        out = sys.argv[1]
        assert main(["simulate", "--approach", "FLP", "--seeds", "0",
                     "--slots", "2", "--out", out + "/flp"]) == 0
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
        assert main(["simulate", "--approach", "OJTRTA,EO,ERA,OCQ",
                     "--seeds", "0", "--slots", "2",
                     "--out", out + "/moving"]) == 0
        heavy = sorted(m for m in sys.modules
                       if m.split(".")[:2] in (["scipy", "optimize"],
                                               ["scipy", "sparse"],
                                               ["scipy", "linalg"])
                       and m != "scipy.optimize._slsqplib")
        assert not heavy, heavy
        core = _slsqplib.cache_info()
        assert core.currsize == 1 and core.hits > 0, core
        assert "uavmec.verification" not in sys.modules
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for approach in ("OJTRTA", "EO", "ERA", "OCQ"):
        assert (tmp_path / "moving" / f"slots_{approach}_0.csv").exists()


def test_simulate_trace_emits_trajectories(tmp_path):
    out = tmp_path / "tr"
    rc = main(["simulate", "--seeds", "2", "--slots", "3",
               "--out", str(out), "--trace"])
    assert rc == 0
    rows = (out / "trajectory_OJTRTA_2.csv").read_text().splitlines()
    assert rows[0] == "slot,kind,index,x,y"
    assert len(rows) > 3


def test_simulate_config_overrides(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"num_uds": 8, "seed": 5}))
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg_file), "--slots", "3",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["num_uds"] == 8
    assert doc["runs"][0]["seed"] == 5


def test_unknown_approach_exits():
    with pytest.raises(SystemExit, match="unknown approach"):
        main(["simulate", "--approach", "BOGUS", "--slots", "2"])


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--slots", "0"], "num_slots"),
    (["simulate", "--config", "{cfg}"], "warp_factor"),
    (["sweep", "--param", "lyapunov_v", "--values", "-5", "--slots", "2"],
     "lyapunov_v"),
    (["sweep", "--param", "V", "--values", "50", "-5", "--slots", "2",
      "--out", "{out}"], "lyapunov_v"),
    (["simulate", "--approach", "FLP", "--seeds", "0", "-1", "--slots", "2",
      "--out", "{out}"], "seed must be >= 0"),
    (["sweep", "--param", "V", "--values", "50", "--seeds", "0", "-1",
      "--slots", "2", "--out", "{out}"], "seed must be >= 0"),
    (["sweep", "--param", "expected_fading", "--values", "2.5", "--slots",
      "2", "--out", "{out}"], "expected_fading must be true or false"),
], ids=["zero-slots", "unknown-key", "negative-v", "negative-v-after-50",
        "simulate-negative-seed-after-0", "sweep-negative-seed-after-0",
        "number-for-bool"])
def test_invalid_configuration_exits_naming_the_field(tmp_path, argv, field):
    """An invalid value exits naming its field before any output is
    written: a sweep checks every point, and both commands every seed,
    before the first run."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"warp_factor": 9}))
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg_file, out=out) for a in argv]
    with pytest.raises(SystemExit, match=f"invalid configuration: .*{field}"):
        main(argv)
    assert not list(out.glob("*"))


MALFORMED = [({"lyapunov_v": "5"}, "lyapunov_v must be a number"),
             ({"gamma_time": None}, "gamma_time must be a number"),
             ({"expected_fading": 2.5}, "expected_fading must be true or"),
             ({"mobility_alpha": True}, "mobility_alpha must be a number"),
             ({"luav_position": ["250", "250"]}, "luav_position entries"),
             ({"data_bits_range": [True, 1e6]}, "data_bits_range entries"),
             ({"luav_position": 5}, "luav_position must be a tuple"),
             ({"suav_initial_positions": [5, 6]},
              "each suav_initial_positions entry needs exactly two"),
             ({"ud_compute_options": "abc"},
              "ud_compute_options must be a tuple"),
             ({"ud_tx_power_dbm": "20"}, "ud_tx_power must be a number"),
             ({"ud_tx_power_dbm": 4000}, "ud_tx_power_dbm is too large"),
             ({"lyapunov_v": 10 ** 400}, "lyapunov_v is too large"),
             ({"data_bits_range": [1, 10 ** 400]},
              "data_bits_range entries are too large")]


@pytest.mark.parametrize("overrides, message", MALFORMED, ids=[
    "string-v", "null-gamma", "number-for-bool", "bool-for-number",
    "string-entries", "bool-entry", "number-for-pair", "flat-positions",
    "string-options", "string-dbm", "overflowing-dbm", "401-digit-v",
    "401-digit-entry"])
def test_malformed_field_exits_naming_it(tmp_path, overrides, message):
    """A value of the wrong type or shape exits with a message, not a
    traceback, before any output is written."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"invalid configuration: {message}"):
        main(["simulate", "--config", str(cfg_file), "--slots", "1",
              "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--config", "{missing}"], "cannot read --config .*absent"),
    (["simulate", "--config", "{bad}"], "cannot read --config .*bad.json"),
    (["simulate", "--config", "{listed}"],
     "--config .*listed.json must hold a JSON object"),
    (["simulate", "--approach", ",", "--out", "{out}"],
     "--approach ',' names no approach"),
], ids=["missing-config", "malformed-config", "non-object-config",
        "no-approach"])
def test_bad_input_exits_naming_the_file_or_flag(tmp_path, argv, message):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_uds": 8,')
    listed = tmp_path / "listed.json"
    listed.write_text('[["num_uds", 8]]')
    argv = [a.format(missing=tmp_path / "absent.json", bad=bad,
                     listed=listed, out=tmp_path / "out") for a in argv]
    with pytest.raises(SystemExit, match=message):
        main(argv + ["--slots", "2"])
    assert not (tmp_path / "out").exists()


def test_value_error_inside_a_run_still_propagates(monkeypatch):
    import uavmec.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "run_simulation", broken)
    with pytest.raises(ValueError, match="boom"):
        main(["simulate", "--slots", "2"])


def test_sweep_writes_points(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--param", "V", "--values", "50", "5000",
               "--seeds", "0", "--slots", "3", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["param"] == "lyapunov_v"
    assert [p["value"] for p in doc["points"]] == [50.0, 5000.0]
    assert (out / "lyapunov_v_50" / "summary.json").exists()
    assert (out / "lyapunov_v_5000" / "summary.json").exists()


def test_sweep_exits_when_two_points_share_a_directory(tmp_path):
    """Point directories are named by six significant digits, so values
    that agree in them would write one directory twice: the sweep exits
    naming both values before the first run."""
    out = tmp_path / "sw"
    with pytest.raises(SystemExit,
                       match=r"0\.0100001 and 0\.01000012 would both write "
                             r"sca_tolerance_0\.0100001"):
        main(["sweep", "--param", "sca_tolerance", "--values", "0.0100001",
              "0.01000012", "--seeds", "0", "--slots", "1", "--out",
              str(out)])
    assert not out.exists()


def test_sweep_passes_integer_fields_as_integers(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--param", "sca_max_iters", "--values", "1", "3",
               "--seeds", "0", "--slots", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert [p["value"] for p in doc["points"]] == [1, 3]
    with pytest.raises(SystemExit, match="sca_max_iters"):
        main(["sweep", "--param", "sca_max_iters", "--values", "2.5",
              "--seeds", "0", "--slots", "2"])


def test_sweep_rejects_unknown_param():
    with pytest.raises(SystemExit, match="unknown sweep parameter"):
        main(["sweep", "--param", "warp_factor", "--values", "1"])


@pytest.mark.parametrize("field", ["deadline_range", "luav_position"])
def test_sweep_rejects_tuple_valued_param(field):
    with pytest.raises(SystemExit, match=field):
        main(["sweep", "--param", field, "--values", "1"])


def test_verify_runs_suites(capsys):
    rc = main(["verify", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("allocation-oracle", "potential-game", "poa-sandwich",
                 "sca-surrogates"):
        assert name in out
    assert "FAIL" not in out


def test_parser_profiles_registered():
    parser = build_parser()
    args = parser.parse_args(["simulate", "--profile", "paper"])
    assert args.profile == "paper"
    args = parser.parse_args(["simulate"])
    assert args.profile == "desk"
