"""Self-tests of the benchmark: the checker catches planted violations, the
tracer's self times add up, and every metric prints with its name and unit.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from d2dcache import harness  # noqa: E402

import bench  # noqa: E402
import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

CONFIG = harness.SimConfig()


def find_drop(mode, predicate, num_users=30):
    for seed in range(1, 200):
        drop = harness.simulate_drop(CONFIG, seed, num_users=num_users, mode=mode)
        if predicate(drop):
            return drop
    raise AssertionError("no drop with the wanted shape in 200 seeds")


def test_checker_accepts_real_drops():
    for seed in range(1, 6):
        for mode in harness.MODES:
            drop = harness.simulate_drop(CONFIG, seed, mode=mode)
            assert checker.check_drop(drop, CONFIG, mode) == []


def test_checker_flags_ndl_power_above_pmax():
    drop = find_drop("nocoop", lambda d: d.ndl_schedule.num_served > 0)
    drop.ndl_schedule.powers_w = drop.ndl_schedule.powers_w.copy()
    drop.ndl_schedule.powers_w[0] = CONFIG.ndl_config().pmax_w * 1.5
    problems = checker.check_drop(drop, CONFIG, "nocoop")
    assert any(p.startswith("ndl: power") for p in problems)


def test_checker_flags_ndl_sinr_below_floor():
    drop = find_drop("nocoop", lambda d: d.ndl_schedule.num_served > 0)
    drop.ndl_schedule.powers_w = drop.ndl_schedule.powers_w * 1e-3
    problems = checker.check_drop(drop, CONFIG, "nocoop")
    assert any(p.startswith("ndl: NR SINR") for p in problems)


def test_checker_flags_cdl_budget_and_shared_user():
    drop = find_drop(
        "coop",
        lambda d: d.cdl_schedule.num_served > 0 and d.ndl_schedule.num_served > 0,
    )
    drop.cdl_schedule.powers_w = drop.cdl_schedule.powers_w * 10.0
    tx, _ = drop.ndl_schedule.links[0]
    drop.ndl_schedule.links[0] = (tx, int(drop.cdl_schedule.receivers[0]))
    problems = checker.check_drop(drop, CONFIG, "coop")
    assert any(p.startswith("cdl: CT power") for p in problems)
    assert any(p.startswith("roles: a user is on both") for p in problems)


def test_checker_flags_zf_cross_talk():
    drop = find_drop("coop", lambda d: d.cdl_schedule.num_served > 1)
    precoder = drop.cdl_schedule.precoder
    mixed = precoder.normalized.copy()
    mixed[:, 0] += 1e-3 * mixed[:, 1]
    drop.cdl_schedule.precoder = dataclasses.replace(precoder, normalized=mixed)
    problems = checker.check_drop(drop, CONFIG, "coop")
    assert any(p.startswith("cdl: ZF cross-term") for p in problems)


def test_self_times_subtract_direct_children():
    spans = [
        tracer.Span(1, "a", 0, 100, None, 7),
        tracer.Span(2, "b", 10, 40, 1, 7),
        tracer.Span(3, "c", 15, 25, 2, 7),
        tracer.Span(4, "b", 50, 90, 1, 7),
    ]
    assert tracer.self_times_ns(spans) == {1: 30, 2: 20, 3: 10, 4: 40}


def test_tracer_restores_the_library():
    original = harness.run_drop
    spans = tracer.Tracer()
    with tracer.patched(spans.replacements()):
        assert harness.run_drop is not original
        harness.run_drop(CONFIG, 3, num_users=10, mode="coop")
    assert harness.run_drop is original
    drop = [s for s in spans.spans if s.name == tracer.DROP_SPAN]
    assert len(drop) == 1 and drop[0].drop_seed == 3
    assert all(s.drop_seed == 3 for s in spans.spans)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_prints_with_name_and_unit(name, trace, tmp_path, monkeypatch, capsys):
    small = dataclasses.replace(bench.WORKLOADS[name], unit_drops=1, min_units=1)
    monkeypatch.setitem(bench.WORKLOADS, name, small)
    monkeypatch.setattr(bench, "OUT_ROOT", tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0

    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert np.isfinite(result["metrics"][metric["name"]]["value"])
        assert any(
            line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
            for line in lines
        )
