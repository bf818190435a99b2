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
    uavmec``: FLP never moves a SUAV, so it runs on NumPy alone."""
    script = textwrap.dedent("""
        import sys
        from uavmec.cli import main
        out = sys.argv[1]
        assert main(["simulate", "--approach", "FLP", "--seeds", "0",
                     "--slots", "2", "--out", out + "/flp"]) == 0
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
        assert main(["simulate", "--approach", "OJTRTA", "--seeds", "0",
                     "--slots", "2", "--out", out + "/ojtrta"]) == 0
        assert "scipy.optimize" in sys.modules
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ojtrta" / "slots_OJTRTA_0.csv").exists()


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


def test_sweep_passes_integer_fields_as_integers(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--param", "sca_max_iters", "--values", "1", "3",
               "--seeds", "0", "--slots", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert [p["value"] for p in doc["points"]] == [1, 3]
    with pytest.raises(ValueError, match="sca_max_iters"):
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
