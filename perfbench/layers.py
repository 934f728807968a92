"""The per-layer metrics of the traced run, and the functions they time.

Each :class:`Layer` names one public function or method of the program,
the metrics derived from timing it, and the workload it belongs to: the
workload whose end-to-end metric it should move, where the traced run
fails if the function was never called. The comment above each group
says which end-to-end metric and workload it should move, and which it
should not.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Callable

from .tracer import Tracer

#: What a layer's timer can report: tracer snapshot field -> metric name
#: suffix and unit. ``calls`` counts calls, ``self_s`` excludes traced
#: calls nested inside, ``total_s`` is the inclusive time.
CALLS, SELF, TOTAL = "calls", "self_s", "total_s"
TIMER_METRICS = {
    CALLS: (".calls", "count"),
    SELF: (".self_s", "s"),
    TOTAL: ("_s", "s"),
}


@dataclass(frozen=True)
class Layer:
    """One traced function: ``module:attr`` or ``module:Class.attr``."""

    name: str
    target: str
    metrics: tuple[str, ...]
    home: str
    after: Callable | None = None

    def metric_names(self) -> list[tuple[str, str]]:
        return [
            (self.name + TIMER_METRICS[field][0], TIMER_METRICS[field][1])
            for field in self.metrics
        ]


def _store_bytes(tracer, args, kwargs, entry) -> None:
    if entry is not None:
        size = sum(p.stat().st_size for p in entry.iterdir() if p.is_file())
        tracer.add("datasets.cache.store_bytes", size)


def _append_households(tracer, args, kwargs, result) -> None:
    parent = args[0]
    added = (result.config.n_dasu_users + result.config.n_fcc_users) - (
        parent.n_dasu_users + parent.n_fcc_users
    )
    tracer.add("datasets.append.households", added)


def _dag_stages(tracer, args, kwargs, result) -> None:
    tracer.add("dag.run_dag.stages_executed", len(result.executed))
    tracer.add("dag.run_dag.stages_cached", len(result.cached))


def _sweep_cells(tracer, args, kwargs, result) -> None:
    tracer.add("sweep.cells", len(result.cells))
    tracer.add("sweep.cache_hits", result.n_cache_hits)


LAYERS: tuple[Layer, ...] = (
    # Build layers: move the build workload's op_s (cold build + store)
    # and the serve workload's op_s (an append simulates households).
    # They should not move the report workload's op_s.
    Layer("traffic.generate_usage_series",
          "repro.traffic.generator:generate_usage_series",
          (CALLS, SELF), "build"),
    Layer("measurement.ndt.run_tests",
          "repro.measurement.ndt:NdtClient.run_tests", (CALLS, SELF), "build"),
    Layer("measurement.dasu.collect",
          "repro.measurement.dasu:DasuClient.collect", (SELF,), "build"),
    Layer("measurement.gateway.collect",
          "repro.measurement.gateway:FccGateway.collect", (SELF,), "build"),
    Layer("core.metrics.demand_summary",
          "repro.core.metrics:demand_summary", (CALLS, SELF), "build"),
    Layer("datasets.records.hourly_profile",
          "repro.datasets.records:hourly_profile", (CALLS, SELF), "build"),
    Layer("behavior.choice.choose",
          "repro.behavior.choice:ChoiceModel.choose", (SELF,), "build"),
    Layer("behavior.upgrades.review",
          "repro.behavior.upgrades:UpgradePolicy.review", (SELF,), "build"),
    Layer("datasets.cache.store", "repro.datasets.cache:WorldCache.store",
          (TOTAL,), "build", _store_bytes),
    # Report layers: move the report workload's op_s. Matching also
    # moves the sweep's op_s and the serve workload's append visibility.
    # They should not move the build workload's op_s.
    Layer("datasets.cache.load", "repro.datasets.cache:WorldCache.load",
          (TOTAL,), "report"),
    Layer("datasets.world.materialize",
          "repro.datasets.world:_ColumnarDataset.users", (TOTAL,), "report"),
    Layer("datasets.columns.records_to_rows",
          "repro.datasets.columns:records_to_rows", (SELF,), "report"),
    Layer("core.matching.match_pairs", "repro.core.matching:match_pairs",
          (CALLS, SELF), "report"),
    Layer("core.binning.group", "repro.core.binning:BinSpec.group",
          (CALLS, SELF), "report"),
    Layer("core.binning.index_of", "repro.core.binning:BinSpec.index_of",
          (CALLS, SELF), "report"),
    Layer("core.stats.binomial_test_greater",
          "repro.core.stats:binomial_test_greater", (CALLS, SELF), "report"),
    Layer("analysis.common.matched_experiment",
          "repro.analysis.common:matched_experiment", (SELF,), "report"),
    Layer("analysis.common.binned_demand_curve",
          "repro.analysis.common:binned_demand_curve", (SELF,), "report"),
    Layer("analysis.iqb.score_columns", "repro.analysis.iqb:score_columns",
          (SELF,), "report"),
    # Serve layers: move the serve workload's op_s (spool drop to new
    # ETag) and its GET tail latency, through the daemon's GIL.
    Layer("service.refresh", "repro.service.report:ReportService.refresh",
          (TOTAL,), "serve"),
    Layer("service.append", "repro.service.report:ReportService.append",
          (TOTAL,), "serve"),
    Layer("service.iqb_payload", "repro.analysis.iqb:iqb_payload",
          (TOTAL,), "serve"),
    Layer("datasets.append.append_world",
          "repro.datasets.append:append_world", (TOTAL,), "serve",
          _append_households),
    Layer("dag.run_dag", "repro.dag.schedule:run_dag", (), "serve",
          _dag_stages),
    Layer("dag.store.load", "repro.dag.store:DagStore.load", (TOTAL,), "serve"),
    Layer("dag.store.store", "repro.dag.store:DagStore.store",
          (TOTAL,), "serve"),
    # Sweep layers: move the sweep workload's op_s (a warm sweep).
    Layer("sweep.run_sweep", "repro.sweep.engine:run_sweep", (TOTAL,),
          "sweep", _sweep_cells),
)

#: Experiments the sweep runs, each timed as ``sweep.runners.<key>_s``.
#: Kept literal so the metric list does not depend on importing the
#: program; ``install`` checks it against the registry.
SWEEP_RUNNERS = ("table1", "table2", "table3", "table6", "table7",
                 "table8", "iqb")

#: The report's fragments, each timed as ``analysis.fragment.<key>_s``
#: from the ``report/<key>`` spans of the report's run ledger.
FRAGMENTS = ("fig1", "fig2", "fig3", "table1", "fig4", "table2", "fig6",
             "table3", "table4", "fig7", "fig10", "table5", "table6_bt",
             "table6_nobt", "table7", "fig11", "table8", "fig12", "iqb")

#: Metrics computed from counters rather than timers: name and unit.
COUNTERS: tuple[tuple[str, str], ...] = (
    ("datasets.builder.households", "count"),
    ("datasets.builder.users_kept", "count"),
    ("datasets.builder.kept_ratio", "ratio"),
    ("datasets.cache.store_bytes", "B"),
    ("core.matching.candidates", "count"),
    ("core.matching.pairs", "count"),
    ("core.matching.accept_ratio", "ratio"),
    ("datasets.append.households", "count"),
    ("dag.run_dag.stages_executed", "count"),
    ("dag.run_dag.stages_cached", "count"),
    ("dag.run_dag.hit_ratio", "ratio"),
    ("sweep.cells", "count"),
    ("sweep.cache_hits", "count"),
)

#: What the serve load generator measures about itself and the GETs.
HARNESS: tuple[tuple[str, str], ...] = (
    ("harness.requests_attempted", "count"),
    ("harness.requests_failed", "count"),
    ("harness.generator_late_p99_ms", "ms"),
    ("harness.get_p50_ms", "ms"),
    ("harness.get_p99_ms", "ms"),
    ("harness.get_within_limit_ratio", "ratio"),
    ("harness.trace_overhead_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names: list[tuple[str, str]] = []
    for layer in LAYERS:
        names.extend(layer.metric_names())
    names.extend((f"sweep.runners.{key}_s", "s") for key in SWEEP_RUNNERS)
    names.extend((f"analysis.fragment.{key}_s", "s") for key in FRAGMENTS)
    names.extend(COUNTERS)
    names.extend(HARNESS)
    return names


def _resolve(target: str) -> tuple[object, str]:
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def install(spill_dir: str | os.PathLike) -> Tracer:
    """A tracer with every layer of :data:`LAYERS` and the sweep
    runners patched in."""
    # Import every module that binds a traced name before patching, so
    # the rebinding pass sees each copy.
    for module in ("repro.analysis.paper_report", "repro.cli",
                   "repro.service.report", "repro.service.server",
                   "repro.sweep.engine", "repro.dag.pipelines"):
        importlib.import_module(module)
    from repro.sweep import runners

    if tuple(runners.SWEEP_EXPERIMENTS) != SWEEP_RUNNERS:
        raise RuntimeError(
            f"sweep experiments changed: {runners.SWEEP_EXPERIMENTS}"
        )
    tracer = Tracer(spill_dir)
    for layer in LAYERS:
        owner, attr = _resolve(layer.target)
        tracer.patch(owner, attr, layer.name, layer.after)
    for key, runner in list(runners._RUNNERS.items()):
        tracer.patch(runners, runner.__name__, f"sweep.runners.{key}")
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(snap: dict, ledger=None) -> dict[str, float]:
    """Per-layer metric values from one tracer snapshot plus, when the
    workload ran under a run ledger, its counters and fragment spans.
    Metrics the snapshot and ledger say nothing about read 0."""
    values: dict[str, float] = {}
    for layer in LAYERS:
        for field in layer.metrics:
            suffix = TIMER_METRICS[field][0]
            values[layer.name + suffix] = snap[field].get(layer.name, 0)
    for key in SWEEP_RUNNERS:
        values[f"sweep.runners.{key}_s"] = snap[TOTAL].get(
            f"sweep.runners.{key}", 0
        )
    counts = snap["counts"]
    for name, _ in COUNTERS:
        values[name] = counts.get(name, 0)
    cached = counts.get("dag.run_dag.stages_cached", 0)
    values["dag.run_dag.hit_ratio"] = _ratio(
        cached, counts.get("dag.run_dag.stages_executed", 0) + cached
    )
    for key in FRAGMENTS:
        values[f"analysis.fragment.{key}_s"] = 0.0
    if ledger is not None:
        c = ledger.counters
        values["core.matching.candidates"] = c.get("matching.candidates", 0)
        values["core.matching.pairs"] = c.get("matching.pairs", 0)
        values["core.matching.accept_ratio"] = _ratio(
            c.get("matching.pairs", 0), c.get("matching.candidates", 0)
        )
        for span in ledger.spans:
            if span.name.startswith("report/"):
                key = span.name[len("report/"):]
                if key in FRAGMENTS:
                    values[f"analysis.fragment.{key}_s"] += span.wall_s
    return values


def builder_values(world) -> dict[str, float]:
    """``datasets.builder.*`` from a freshly built world's run ledger."""
    c = world.ledger.counters
    households = c.get("build.households.simulated", 0)
    kept = c.get("build.users.dasu", 0) + c.get("build.users.fcc", 0)
    return {
        "datasets.builder.households": households,
        "datasets.builder.users_kept": kept,
        "datasets.builder.kept_ratio": _ratio(kept, households),
    }


def home_timers(workload: str) -> list[str]:
    """Timer names that must see calls on ``workload``'s traced run."""
    names = [layer.name for layer in LAYERS if layer.home == workload]
    if workload == "sweep":
        names.extend(f"sweep.runners.{key}" for key in SWEEP_RUNNERS)
    return names
