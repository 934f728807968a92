"""Toy-size checks of the benchmark's tracer, metric table and workloads."""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from perfbench import layers, serve, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_excludes_traced_children(tmp_path):
    tracer = Tracer(tmp_path)
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.02)
        inner()
        inner()

    tracer.wrap("outer", body)()
    snap = tracer.snapshot()
    assert snap["calls"] == {"inner": 2, "outer": 1}
    assert snap["self_s"]["outer"] == pytest.approx(
        snap["total_s"]["outer"] - snap["total_s"]["inner"]
    )
    assert 0.015 < snap["self_s"]["outer"] < snap["total_s"]["inner"]


def test_patch_rebinds_names_copied_by_import(tmp_path):
    from repro.analysis import longitudinal
    from repro.core import matching
    from repro.sweep import runners

    original = matching.match_pairs
    table1 = runners._RUNNERS["table1"]
    tracer = Tracer(tmp_path)
    tracer.patch(matching, "match_pairs", "match")
    tracer.patch(runners, "_run_table1", "table1")
    try:
        assert longitudinal.match_pairs is matching.match_pairs
        assert matching.match_pairs is not original
        assert runners._RUNNERS["table1"] is runners._run_table1
        assert runners._RUNNERS["table1"] is not table1
    finally:
        tracer.uninstall()
    assert longitudinal.match_pairs is original
    assert matching.match_pairs is original
    assert runners._RUNNERS["table1"] is table1


def _double(x):
    return _traced_double(x)


def _traced_double(x):
    return 2 * x


def test_forked_workers_spill_their_calls(tmp_path):
    global _traced_double
    tracer = Tracer(tmp_path)
    original = _traced_double
    _traced_double = tracer.wrap("double", original)
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            assert list(pool.map(_double, range(6))) == [0, 2, 4, 6, 8, 10]
    finally:
        _traced_double = original
    tracer.collect()
    assert tracer.snapshot()["calls"] == {"double": 6}
    assert not list(tmp_path.glob("*.json"))


def test_benchmark_json_lists_every_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == (
        layers.per_layer_metrics()
    )
    from perfbench.run import END_TO_END, WORKLOADS

    assert sorted(m["name"] for m in declared["end_to_end"]) == sorted(
        name for name, _ in END_TO_END
    )
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_install_patches_every_layer_and_uninstall_restores(tmp_path):
    from repro.analysis.paper_report import fragment_keys
    from repro.datasets.world import _ColumnarDataset

    assert fragment_keys() == layers.FRAGMENTS
    users = vars(_ColumnarDataset)["users"]
    tracer = layers.install(tmp_path)
    try:
        assert vars(_ColumnarDataset)["users"] is not users
    finally:
        tracer.uninstall()
    assert vars(_ColumnarDataset)["users"] is users


@pytest.fixture
def toy_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "BUILD_WORLD", (40, 10))
    monkeypatch.setattr(workloads, "REPORT_WORLD", (80, 10))
    monkeypatch.setattr(workloads, "SWEEP_WORLD", (60, 0))
    monkeypatch.setattr(workloads, "SWEEP_SEEDS", 2)
    monkeypatch.setattr(serve, "SERVE_WORLD", (60, 10))
    monkeypatch.setattr(serve, "APPEND_HOUSEHOLDS", 10)
    monkeypatch.setattr(serve, "APPENDS", 1)


def test_build_op_reloads_and_repeats(tmp_path, toy_sizes):
    first = workloads._build_op(3, tmp_path, 0, None)
    second = workloads._build_op(3, tmp_path, 1, None)
    assert first["errors"] == [] and second["errors"] == []
    assert first["digest"] == second["digest"]
    assert first["extra"]["datasets.builder.households"] == 50


def test_report_and_sweep_ops_match_their_setup(tmp_path, toy_sizes):
    workloads.setup("report", 3, tmp_path, ROOT)
    report = workloads._report_op(3, tmp_path, 0, None)
    assert report["errors"] == [] and report["digest"]

    sweep_dir = tmp_path / "sweep"
    prepared = workloads.setup("sweep", 3, sweep_dir, ROOT)
    warm = workloads._sweep_op(3, sweep_dir, 0, None)
    assert warm["errors"] == []
    assert warm["digest"] == prepared["digest"]


def test_serve_session_matches_cold_report(tmp_path, toy_sizes):
    summary = serve.run(3, 0.5, False, tmp_path, ROOT, None)
    assert summary["errors"] == []
    assert summary["failed"] == 0
    assert len(summary["samples"]["op_s"]) == 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
