"""Tests of the benchmark itself.

    python3 -m pytest benchmark
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from cpfuse import als, degradation, experiment, fileio, metrics, solver  # noqa: E402
from tracer import Tracer, install  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(w: workloads.Workload) -> workloads.Workload:
    """The workload's code path at a size that runs in well under a second."""
    return replace(
        w,
        dims=(8, 8, 6),
        rank=2,
        degradation=replace(w.degradation, kernel_size=3, factor=2, num_msi_bands=3),
        solver=replace(w.solver, max_iters=4),
        quality_replicates=2,
        setup_repeats=2,
        reference_passes=1,
    )


def units(found: dict) -> dict:
    return {name: unit for name, (_, unit) in found.items()}


def test_workload_names_match_the_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    found, attempted, failed, _ = workloads.run_untraced(
        tiny(workloads.WORKLOADS[name]), 3, 0.0, tmp_path
    )
    assert units(found) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert (attempted, failed) == (2, 0)
    assert all(value > 0 for value, _ in found.values())
    assert list(tmp_path.iterdir()) == []  # the file round trip cleans up


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(name, tmp_path):
    w = tiny(workloads.WORKLOADS[name])
    found, attempted, failed, lines = workloads.run_traced(w, 3, tmp_path)
    assert units(found) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert (attempted, failed) == (4, 0)
    assert "traced replicates that differ from untraced in iterations or rsnr_db: 0" in lines
    calls = [value for metric, (value, _) in found.items() if metric.endswith(".calls")]
    assert all(c > 0 for c in calls)


def test_replicate_times_the_reference_around_each_fusion(tmp_path):
    w = tiny(workloads.WORKLOADS["s5-budget"])
    _, scene = workloads.setup(w, 0, tmp_path)
    assert workloads.run_replicate(w, 0, 0, scene).reference_s == []
    start = time.perf_counter()
    rep = workloads.run_replicate(w, 0, 0, scene, workloads.Reference(w))
    elapsed = time.perf_counter() - start
    assert len(rep.reference_s) == 3
    assert all(t > 0 for t in rep.reference_s)
    # The replicate's own time leaves the reference loops out.
    assert rep.solve_s + rep.als_solve_s < rep.wall_s <= elapsed - sum(rep.reference_s)


def test_self_time_excludes_nested_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    traced_leaf = tracer.wrap("leaf", leaf)

    def mid():
        now[0] += 1.0
        traced_leaf()
        traced_leaf()

    traced_mid = tracer.wrap("mid", mid)

    def top():
        now[0] += 3.0
        traced_mid()

    tracer.wrap("top", top)()
    assert tracer.calls == {"leaf": 2, "mid": 1, "top": 1}
    assert tracer.total_s == {"leaf": 4.0, "mid": 5.0, "top": 8.0}
    assert tracer.self_s == {"leaf": 4.0, "mid": 1.0, "top": 3.0}
    # Each second is attributed to exactly one span.
    assert sum(tracer.self_s.values()) == tracer.total_s["top"]


def test_self_time_is_kept_when_a_span_raises():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def failing():
        now[0] += 1.0
        raise ValueError

    traced = tracer.wrap("inner", failing)

    def outer():
        now[0] += 2.0
        with pytest.raises(ValueError):
            traced()

    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"inner": 1.0, "outer": 2.0}


def test_gradient_self_time_excludes_mttkrp(tmp_path):
    w = tiny(workloads.WORKLOADS["s5-budget"])
    _, scene = workloads.setup(w, 0, tmp_path)
    prob = workloads.make_problem(w, scene, 0)
    latent = solver.init_latent(prob.sri_dims, w.rank, 0)
    tracer = Tracer()
    with install(tracer):
        solver.gradient(latent, prob)
    assert tracer.calls["tensors.mttkrp"] == 6
    assert tracer.self_s["solver.gradient"] < tracer.total_s["solver.gradient"]
    assert tracer.self_s["solver.gradient"] + tracer.total_s["tensors.mttkrp"] == pytest.approx(
        tracer.total_s["solver.gradient"]
    )


def test_install_restores_the_original_functions():
    owners = (als, degradation, experiment, fileio, metrics, solver, solver.GramianOperator)
    before = [dict(vars(owner)) for owner in owners]
    with pytest.raises(RuntimeError):
        with install(Tracer()):
            assert solver.solve is not before[-2]["solve"]
            assert vars(solver.GramianOperator)["apply"] is not before[-1]["apply"]
            raise RuntimeError
    after = [dict(vars(owner)) for owner in owners]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is value for key, value in old.items())


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", ".io-*"))
    cmd = [sys.executable, "benchmark/run.py", "--workload", "s5-budget", "--seed", "0", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
