import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from d2dcache import cli, harness, ndl
from d2dcache.cli import main
from d2dcache.harness import read_results


def tiny_config(tmp_path, **extra):
    data = dict(
        num_users=8,
        zipf_beta=1.0,
        drops=2,
        base_seed=3,
        betas=[0.8, 1.2],
        user_counts=[8],
    )
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_simulate_writes_single_row(tmp_path, capsys):
    config = tiny_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(config), "--mode", "coop", "--out", str(out)]
    )
    assert code == 0
    rows = read_results(out / "results.csv")
    assert len(rows) == 1
    assert rows[0]["mode"] == "coop"
    assert rows[0]["K"] == 8 and rows[0]["drops"] == 2
    assert "results.csv" in capsys.readouterr().out


def test_simulate_flags_override_config(tmp_path):
    config = tiny_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--config", str(config),
            "--mode", "nocoop",
            "--drops", "1",
            "--seed", "42",
            "--users", "6",
            "--beta", "0.9",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_results(out / "results.csv")
    assert rows[0]["mode"] == "nocoop"
    assert rows[0]["K"] == 6
    assert rows[0]["beta"] == 0.9
    assert rows[0]["drops"] == 1


def test_sweep_covers_all_cells(tmp_path):
    config = tiny_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = read_results(out / "results.csv")
    assert [(r["beta"], r["mode"]) for r in rows] == [
        (0.8, "coop"),
        (0.8, "nocoop"),
        (1.2, "coop"),
        (1.2, "nocoop"),
    ]


def test_unknown_config_key_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, kind", [("5", "int"), ("null", "NoneType"), ("[1, 2]", "list"), ('"x"', "str")]
)
def test_config_that_is_not_an_object_fails(tmp_path, capsys, text, kind):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: config must be a JSON object, got {kind}" in err


def test_missing_config_file_fails(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_negative_seed_fails_naming_the_field(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--drops", "1", "--seed", "-3", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "base_seed" in err
    assert not (out / "results.csv").exists()


def test_invalid_config_value_fails(tmp_path, capsys):
    bad = tiny_config(tmp_path, drops=0)
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        {"drops": "5"},
        {"drops": 2.5},
        {"drops": True},
        {"num_users": 30.5},
        {"pmax_dbm": "23"},
        {"betas": 0.6},
        {"betas": ["0.6"]},
        {"user_counts": 8},
        {"user_counts": [8.0]},
        {"allow_full_rank": "false"},
        {"cdl_bandwidth_hz": float("nan")},
        {"rmin_bps_per_hz": float("inf")},
        {"pmax_dbm": float("nan")},
        {"betas": [float("nan")]},
    ],
)
def test_wrongly_typed_config_value_fails(tmp_path, capsys, extra):
    bad = tiny_config(tmp_path, **extra)
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, field",
    [
        ({"rmin_bps_per_hz": 1024.0}, "sinr_target"),
        ({"rmin_bps_per_hz": 1e-17}, "sinr_target"),
        ({"pmax_dbm": 4000.0}, "pmax_w"),
        ({"noise_dbm": 4000.0}, "noise_w"),
        # sub-config fields under another name: the message names the key
        ({"ndl_bandwidth_hz": 0}, "ndl_bandwidth_hz"),
        ({"cdl_bandwidth_hz": -1}, "cdl_bandwidth_hz"),
        ({"sus_epsilon": 1.5}, "sus_epsilon"),
        # a sweep-axis entry is named by its key and index, a scalar cell
        # field by its own key
        ({"user_counts": [8, 1]}, "user_counts[1] = 1 must be >= 2"),
        ({"betas": [0.8, -1.0]}, "betas[1] = -1.0 must be finite and >= 0"),
        ({"num_users": 1}, "num_users = 1 must be >= 2"),
        ({"zipf_beta": -1.0}, "zipf_beta = -1.0 must be finite and >= 0"),
    ],
)
def test_out_of_range_radio_value_fails_naming_the_field(tmp_path, capsys, extra, field):
    bad = tiny_config(tmp_path, **extra)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(bad), "--mode", "coop", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("axis", [{"user_counts": [8, 1]}, {"betas": [0.8, -1.0]}])
def test_invalid_sweep_axis_fails_before_any_cell(tmp_path, capsys, monkeypatch, axis):
    cells = []

    def recording(*args, **kwargs):
        cells.append(kwargs)
        return {}

    monkeypatch.setattr(harness, "run_cell", recording)
    monkeypatch.setattr(cli, "run_cell", recording)
    bad = tiny_config(tmp_path, **axis)
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert cells == []


def test_failed_power_certificate_is_one_error_line(tmp_path, capsys, monkeypatch):
    def uncertified(*args, **kwargs):
        raise ArithmeticError("max-min power failed its certificate")

    monkeypatch.setattr(ndl, "dc_power_allocation", uncertified)
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--mode", "nocoop",
            "--users", "30",
            "--beta", "1.2",
            "--drops", "1",
            "--seed", "73",
            "--out", str(out),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "seed 73" in lines[0] and "K=30" in lines[0] and "mode=nocoop" in lines[0]
    assert "failed its certificate" in lines[0]
    assert "Traceback" not in err
    assert not (out / "results.csv").exists()


# A None entry in sys.modules makes every import of scipy, or of any of its
# submodules, raise ImportError.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from d2dcache import cli, harness
config = harness.SimConfig()
for num_users in (30, 100):
    for mode in harness.MODES:
        harness.run_drop(config, 1, num_users=num_users, beta=1.2, mode=mode)
sys.exit(cli.main(["simulate", "--drops", "2", "--out", sys.argv[1]]))
"""


def test_library_runs_without_scipy(tmp_path):
    """scipy is a test-only dependency: a drop of each mode at K=30 and
    K=100, and a CLI run, import none of it."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), path])))
    out = tmp_path / "out"
    completed = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert len(read_results(out / "results.csv")) == 1
