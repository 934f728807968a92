"""The build, report and sweep workloads.

Each workload prepares its inputs in the benchmark process (the timed
set-up), then runs its measured loop in a fresh child interpreter, so
the child's peak resident set (its own and its pool workers') covers the
measured loop and nothing of the set-up.

A traced run measures half of the window untraced and half traced, in
the same child: the per-layer metrics come from the traced half, and the
difference between the halves' median op times is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import layers

#: Worker processes for builds and sweeps: at most two, never more than
#: the machine has.
JOBS = min(2, os.cpu_count() or 1)

#: World sizes as (Dasu households, FCC households), all at one observed
#: day per year.
BUILD_WORLD = (1_000, 100)
REPORT_WORLD = (3_000, 300)
SWEEP_WORLD = (400, 0)
#: Replicate seeds per sweep, and scenarios that share each seed's world
#: (an IQB config changes only the iqb experiment, not the world).
SWEEP_SEEDS = 8
SWEEP_SCENARIOS = (("default", None), ("streaming", "streaming"))

#: Fresh interpreters timed for the build workload's set-up.
IMPORT_REPEATS = 3

#: The host's speed drifts by tens of percent over minutes on a shared
#: machine, which swamps run-to-run comparisons. So beside every timed
#: operation a fresh interpreter times a fixed pure-Python loop (no
#: program code), and ``op_s``/``setup_s`` are reported as seconds at the
#: speed where that probe takes ``PROBE_REF_S``: raw seconds times
#: ``PROBE_REF_S`` over the mean of the probes taken just before and
#: just after the operation. ``PROBE_REF_S`` is the probe's typical time
#: on the 2-vCPU Xeon host the bounds were set on.
PROBE_REF_S = 0.045
_PROBE = """
import time
def loop():
    started = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    return time.perf_counter() - started
print(sorted(loop() for _ in range(3))[1])
"""


def world_config(seed: int, size: tuple[int, int]):
    from repro.datasets import WorldConfig

    return WorldConfig(
        seed=seed,
        n_dasu_users=size[0],
        n_fcc_users=size[1],
        days_per_year=1.0,
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env(root: Path) -> dict[str, str]:
    """Environment for a child interpreter: the program's source and the
    benchmark importable, and no inherited world cache location."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def sweep_inputs(seed: int):
    from repro.sweep import Scenario, ScenarioGrid

    grid = ScenarioGrid(
        scenarios=tuple(
            Scenario(name=name, iqb_config=iqb)
            for name, iqb in SWEEP_SCENARIOS
        ),
        name="perfbench",
    )
    seeds = [seed + k for k in range(SWEEP_SEEDS)]
    return world_config(seed, SWEEP_WORLD), grid, seeds


def sweep_json(result) -> str:
    from repro.sweep import sweep_payload

    return json.dumps(sweep_payload(result), indent=2, sort_keys=True) + "\n"


def probe_seconds() -> float:
    """Median of three timings of the probe loop in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        check=True,
    )
    return float(out.stdout)


def scaled(samples: list[tuple[float, float]]) -> list[float]:
    """``(raw seconds, probe)`` samples as reference-speed seconds."""
    return [raw * PROBE_REF_S / probe for raw, probe in samples]


# -- set-up (benchmark process) ---------------------------------------------


def import_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter importing the build path."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import repro.datasets.builder, repro.datasets.cache"],
        env=child_env(root),
        check=True,
    )
    return time.perf_counter() - started


def _setup_report(seed: int, tmp: Path) -> float:
    from repro.datasets import build_world
    from repro.datasets.cache import WorldCache

    started = time.perf_counter()
    world = build_world(
        world_config(seed, REPORT_WORLD), jobs=JOBS, ground_truth=False
    )
    WorldCache(tmp / "cache").store(world)
    return time.perf_counter() - started


def _setup_sweep(seed: int, tmp: Path, prepared: dict) -> float:
    from repro.sweep import SWEEP_EXPERIMENTS, run_sweep

    base, grid, seeds = sweep_inputs(seed)
    started = time.perf_counter()
    result = run_sweep(
        base, grid, seeds, experiments=SWEEP_EXPERIMENTS, jobs=JOBS,
        cache_root=tmp / "cache",
    )
    elapsed = time.perf_counter() - started
    # The cold sweep's output is what every warm sweep must repeat.
    prepared["digest"] = sha256(sweep_json(result).encode())
    return elapsed


def setup(workload: str, seed: int, tmp: Path, root: Path) -> dict:
    """Prepare ``workload``'s inputs under ``tmp``; returns the set-up
    samples as ``(raw seconds, probe)`` and whatever the measured loop
    checks against."""
    prepared: dict = {"setup": []}
    if workload == "build":
        steps = [lambda: import_seconds(root)] * IMPORT_REPEATS
    elif workload == "report":
        steps = [lambda: _setup_report(seed, tmp)]
    elif workload == "sweep":
        steps = [lambda: _setup_sweep(seed, tmp, prepared)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    previous = probe_seconds()
    for step in steps:
        seconds = step()
        after = probe_seconds()
        prepared["setup"].append((seconds, (previous + after) / 2))
        previous = after
    return prepared


# -- one operation of each workload (child process) --------------------------


def _build_op(seed: int, tmp: Path, index: int, ledger) -> dict:
    from repro.datasets import build_world
    from repro.datasets.cache import WorldCache

    config = world_config(seed, BUILD_WORLD)
    cache = WorldCache(tmp / f"build-cache-{index}")
    started = time.perf_counter()
    world = build_world(config, jobs=JOBS, ground_truth=False)
    cache.store(world)
    elapsed = time.perf_counter() - started
    built = (
        world.dasu.columns.rows.tobytes() + world.fcc.columns.rows.tobytes()
    )
    loaded = cache.load(config)
    errors = []
    if loaded is None:
        errors.append("stored world did not reload")
    elif built != (
        loaded.dasu.columns.rows.tobytes() + loaded.fcc.columns.rows.tobytes()
    ):
        errors.append("stored world reloads different columns")
    shutil.rmtree(cache.root)
    return {
        "op_s": elapsed,
        "digest": sha256(built),
        "errors": errors,
        "extra": layers.builder_values(world),
    }


def _report_op(seed: int, tmp: Path, index: int, ledger) -> dict:
    from repro.analysis.paper_report import full_report
    from repro.datasets.cache import WorldCache

    started = time.perf_counter()
    world = WorldCache(tmp / "cache").load(world_config(seed, REPORT_WORLD))
    if world is None:
        return {"op_s": 0.0, "digest": "", "errors": ["world cache miss"],
                "extra": {}}
    dasu, fcc = world.dasu.users, world.fcc.users
    text = full_report(dasu, fcc, world.survey, jobs=1, ledger=ledger)
    elapsed = time.perf_counter() - started
    return {
        "op_s": elapsed,
        "digest": sha256((text + "\n").encode()),
        "errors": [],
        "extra": {},
    }


def _sweep_op(seed: int, tmp: Path, index: int, ledger) -> dict:
    from repro.sweep import SWEEP_EXPERIMENTS, run_sweep

    base, grid, seeds = sweep_inputs(seed)
    started = time.perf_counter()
    result = run_sweep(
        base, grid, seeds, experiments=SWEEP_EXPERIMENTS, jobs=JOBS,
        cache_root=tmp / "cache", ledger=ledger,
    )
    elapsed = time.perf_counter() - started
    errors = []
    if result.n_cache_hits != len(result.cells):
        errors.append(
            f"warm sweep loaded {result.n_cache_hits} of "
            f"{len(result.cells)} worlds from the cache"
        )
    return {
        "op_s": elapsed,
        "digest": sha256(sweep_json(result).encode()),
        "errors": errors,
        "extra": {},
    }


_OPS = {"build": _build_op, "report": _report_op, "sweep": _sweep_op}


def _window(op, seed, tmp, seconds, first_index, start=None, finish=None):
    """Run ``op`` back to back until ``seconds`` have passed (at least
    once), probing the host between operations; ``start``/``finish``
    bracket each operation."""
    outcomes = []
    previous = probe_seconds()
    started = time.perf_counter()
    while not outcomes or time.perf_counter() - started < seconds:
        ledger = start() if start is not None else None
        outcome = op(seed, tmp, first_index + len(outcomes), ledger)
        if finish is not None:
            outcome["layers"] = finish(outcome, ledger)
        after = probe_seconds()
        outcome["probe_s"] = (previous + after) / 2
        previous = after
        outcomes.append(outcome)
    return outcomes


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _measure(workload: str, seed: int, tmp: Path, seconds: float,
             trace: bool) -> dict:
    """The measured loop; runs in the child process."""
    op = _OPS[workload]
    window = seconds / 2 if trace else seconds
    plain = _window(op, seed, tmp, window, 0)
    traced = []
    if trace:
        from repro.obs.ledger import RunLedger

        tracer = layers.install(tmp / "spill")

        def start():
            tracer.collect()
            tracer.reset()
            return RunLedger() if workload != "build" else None

        def finish(outcome, ledger):
            tracer.collect()
            snap = tracer.snapshot()
            outcome["calls"] = snap["calls"]
            values = layers.layer_values(snap, ledger)
            values.update(outcome["extra"])
            return values

        traced = _window(op, seed, tmp, window, len(plain), start, finish)
        tracer.uninstall()
    for outcome in plain + traced:
        outcome.pop("extra")
    return {"plain": plain, "traced": traced, "peak_rss_mb": _peak_rss_mb()}


def measure(workload: str, seed: int, tmp: Path, seconds: float,
            trace: bool, root: Path) -> dict:
    """Run the measured loop in a fresh interpreter and return its
    outcomes. A plain subprocess, not a multiprocessing child, so the
    program's own pools start their workers the way they do under the
    CLI."""
    out = tmp / "measured.json"
    subprocess.run(
        [sys.executable, "-m", "perfbench.workloads", workload, str(seed),
         str(tmp), repr(seconds), str(int(trace)), str(out)],
        cwd=root, env=child_env(root), check=True,
    )
    return json.loads(out.read_text())


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
        root: Path, expected: str | None) -> dict:
    """Set up, measure and check one workload; see ``run.py`` for the
    shape of the returned summary."""
    prepared = setup(workload, seed, tmp, root)
    measured = measure(workload, seed, tmp, seconds, trace, root)
    outcomes = measured["plain"] + measured["traced"]
    errors = [e for o in outcomes for e in o["errors"]]
    digests = [o["digest"] for o in outcomes]
    reference = expected or prepared.get("digest") or digests[0]
    if prepared.get("digest", reference) != reference:
        errors.append(f"cold sweep digest {prepared['digest']} != {reference}")
    failed = sum(
        1 for o in outcomes if o["errors"] or o["digest"] != reference
    )
    if any(d != reference for d in digests):
        errors.append(f"output digests {sorted(set(digests))} != {reference}")
    summary = {
        "digest": digests[0],
        "attempted": len(outcomes),
        "failed": failed,
        "errors": errors,
        "samples": {
            "setup_s": prepared["setup"],
            "op_s": [(o["op_s"], o["probe_s"]) for o in measured["plain"]],
        },
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    if trace:
        summary["layers"] = [o["layers"] for o in measured["traced"]]
        summary["calls"] = [o["calls"] for o in measured["traced"]]
        summary["trace_overhead_s"] = statistics.median(
            scaled([(o["op_s"], o["probe_s"]) for o in measured["traced"]])
        ) - statistics.median(scaled(summary["samples"]["op_s"]))
    return summary


if __name__ == "__main__":
    workload, seed, tmp, seconds, trace, out = sys.argv[1:]
    result = _measure(workload, int(seed), Path(tmp), float(seconds),
                      trace == "1")
    Path(out).write_text(json.dumps(result))
