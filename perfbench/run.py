"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``build``  - cold ``build_world`` of a 1,000 + 100 household world with
  two workers, then ``WorldCache.store`` into an empty cache;
* ``report`` - ``WorldCache.load``, materializing the user records, and
  ``full_report(jobs=1)`` on a 3,000 + 300 world prepared in set-up;
* ``serve``  - ``python -m repro serve`` over a 1,500 + 150 world, with
  50 GET/s of ``/report.txt`` and four appends of 100 households each;
* ``sweep``  - a warm ``run_sweep`` of every sweep experiment over eight
  seeds x two IQB scenarios of a 400-household world, two workers.

Every world comes from ``--seed``; each invocation builds into a fresh
cache and serve state under ``.perfbench_tmp/`` and removes them on exit.

End-to-end metrics (``--trace 0``), the same three for every workload:

* ``setup_s``     - set-up before measuring: median of three fresh
  interpreters importing the build path (build), building and storing
  the input world (report), daemon launch to first 200 (serve), the
  cold sweep that fills the cache (sweep);
* ``op_s``        - median seconds of one operation: build + store
  (build), load + materialize + report (report), spool drop until the
  new ETag is served (serve), one warm sweep (sweep);
* ``peak_rss_mb`` - peak resident set of the measured loop's process and
  its workers (build, report, sweep) or of the daemon (serve).

Both times are given at a reference host speed. A shared machine's speed
drifts by tens of percent over minutes, so beside every timed operation a
fresh interpreter times a fixed pure-Python loop that runs no program
code, and each raw time is scaled by ``PROBE_REF_S`` over the mean of the
probes just before and after it (see ``perfbench/workloads.py``). The raw
seconds and probe times are printed on the lines before the result.

``--trace 1`` measures half the window untraced and half with the
program's layers timed (``perfbench/layers.py``) and prints every
per-layer metric instead; layers a workload does not use read 0. The
run fails if a layer belonging to the workload was never called.

Outputs are checked on every run: each operation's output digest must
equal the others', the cold sweep's, and the one recorded for the seed
in ``perfbench/digests.json`` when there is one; a build's stored entry
must reload equal to the built columns; every body served under one ETag
must be the same, the first must equal the base world's report, and the
last must equal the report of a cold build of the chain's tip (the
recorded digest, which was taken from one, or for other seeds a cold
build made in the run). A mismatch counts as a failed operation.

Lines before the last describe the run: its metadata (machine, versions,
commit, seed), the output digest, each end-to-end metric's median,
quartiles and sample count, and the raw samples with their probes. The
last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "report", "serve", "sweep")
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MiB"))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _expected_digest(workload: str, seed: int) -> str | None:
    recorded = json.loads((Path(__file__).parent / "digests.json").read_text())
    return recorded.get(workload, {}).get(str(seed))


def _layer_metrics(workload: str, summary: dict) -> tuple[dict, list[str]]:
    from perfbench import layers

    errors = []
    calls: dict[str, float] = {}
    for snap_calls in summary["calls"]:
        for name, value in snap_calls.items():
            calls[name] = calls.get(name, 0) + value
    for name in layers.home_timers(workload):
        if not calls.get(name):
            errors.append(f"traced layer {name} saw no calls on {workload}")
    iterations = summary["layers"]
    if workload == "report":
        for key in layers.FRAGMENTS:
            if not all(v[f"analysis.fragment.{key}_s"] for v in iterations):
                errors.append(f"report fragment {key} recorded no span")
    metrics = {}
    for name, unit in layers.per_layer_metrics():
        if name == "harness.trace_overhead_s":
            value = summary["trace_overhead_s"]
        else:
            value = statistics.median(v.get(name, 0) for v in iterations)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Never share a world cache with anything outside this invocation.
    os.environ.pop("REPRO_CACHE_DIR", None)

    from perfbench import serve, workloads

    print("meta " + json.dumps(metadata(args), sort_keys=True), flush=True)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    trace = bool(args.trace)
    try:
        expected = _expected_digest(args.workload, args.seed)
        if args.workload == "serve":
            summary = serve.run(
                args.seed, args.seconds, trace, tmp, ROOT, expected
            )
        else:
            summary = workloads.run(
                args.workload, args.seed, args.seconds, trace, tmp, ROOT,
                expected,
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    errors = list(summary["errors"])
    print(f"digest {summary['digest']}")
    if "gets" in summary:
        print("gets " + json.dumps(summary["gets"], sort_keys=True))
    values = {
        name: workloads.scaled(samples)
        for name, samples in summary["samples"].items()
    }
    values["peak_rss_mb"] = [summary["peak_rss_mb"]]
    for name, unit in END_TO_END:
        if not values[name]:
            print(f"perfbench: no {name} sample was measured", file=sys.stderr)
            return 1
        q1, median, q3 = _quartiles(values[name])
        print(f"{name:12s} {unit:4s} median {median:.6g}  q1 {q1:.6g}  "
              f"q3 {q3:.6g}  n {len(values[name])}")
    for name, samples in summary["samples"].items():
        print(f"{name} raw s / probe s: "
              + " ".join(f"{raw:.4g}/{probe:.4g}" for raw, probe in samples))
    if trace:
        metrics, trace_errors = _layer_metrics(args.workload, summary)
        errors.extend(trace_errors)
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {
            name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END
        }
    for error in errors:
        print(f"error: {error}")
    print(json.dumps({
        "correct": not errors and summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
