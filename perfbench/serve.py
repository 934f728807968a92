"""The serve workload: ``repro serve`` under reads and spool appends.

The daemon runs as a subprocess over a prepared world. Two sender threads
form an open loop of GETs to ``/report.txt`` at a fixed rate, alternating
full GETs and ``If-None-Match`` revalidations; each request is timed from
when it was due, so a stall also delays the requests queued behind it. The
benchmark thread drops one append of Dasu households into the spool at a
time (written under a ``.tmp`` name, then renamed) and drops the next once
the readers see the new ETag.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from . import layers
from .workloads import (
    JOBS, child_env, probe_seconds, scaled, sha256, world_config,
)

SERVE_WORLD = (1_500, 150)
APPEND_HOUSEHOLDS = 100
#: Appends per daemon, one after another. A fixed count rather than as
#: many as fit in the window: each append grows the world, so the op
#: times are comparable between runs only over the same chain of sizes.
APPENDS = 4
GET_RATE = 50.0
SENDERS = min(2, os.cpu_count() or 1)
LIMIT_S = 0.100
POLL_INTERVAL_S = 0.1
#: Generous ceilings for the daemon's start and for one append to show.
START_TIMEOUT_S = 60.0
VISIBLE_TIMEOUT_S = 30.0


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


class LoadGenerator:
    """Open-loop GETs of ``/report.txt`` from a few sender threads.

    Records every request and, per ETag, the body digest and when the
    ETag was first seen. Two different bodies under one ETag count as a
    failed request.
    """

    def __init__(self, port: int, rate: float) -> None:
        self.port = port
        self.rate = rate
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.next_index = 0
        self.records: list[tuple[float, float, float, bool]] = []
        self.bodies: dict[str, str] = {}
        self.first_seen: dict[str, float] = {}
        self.latest_etag: str | None = None
        self.threads: list[threading.Thread] = []

    def start(self) -> None:
        self.origin = time.perf_counter()
        self.threads = [
            threading.Thread(target=self._sender, daemon=True)
            for _ in range(SENDERS)
        ]
        for thread in self.threads:
            thread.start()

    def finish(self) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=30.0)
        if any(thread.is_alive() for thread in self.threads):
            raise RuntimeError("load generator thread did not stop")

    def _sender(self) -> None:
        while not self.stop.is_set():
            with self.lock:
                index = self.next_index
                self.next_index += 1
                etag = self.latest_etag
            due = self.origin + index / self.rate
            delay = due - time.perf_counter()
            if delay > 0 and self.stop.wait(delay):
                return
            sent = time.perf_counter()
            ok = self._request(etag if index % 2 else None)
            done = time.perf_counter()
            with self.lock:
                self.records.append((due, sent, done, ok))

    def _request(self, etag: str | None) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            headers = {"If-None-Match": etag} if etag else {}
            conn.request("GET", "/report.txt", headers=headers)
            response = conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException):
            return False
        finally:
            conn.close()
        if response.status == 304 and etag is not None:
            return True
        tag = response.getheader("ETag")
        if response.status != 200 or not tag:
            return False
        return self.observe(tag, body)

    def observe(self, tag: str, body: bytes) -> bool:
        digest = hashlib.sha256(body).hexdigest()
        with self.lock:
            known = self.bodies.setdefault(tag, digest)
            if tag not in self.first_seen:
                self.first_seen[tag] = time.perf_counter()
                self.latest_etag = tag
        return known == digest

    def stats(self) -> dict:
        with self.lock:
            records = list(self.records)
        latencies = [done - due for due, _, done, ok in records if ok]
        within = sum(
            1 for due, _, done, ok in records if ok and done - due <= LIMIT_S
        )
        return {
            "attempted": len(records),
            "failed": sum(1 for *_, ok in records if not ok),
            "get_p50_ms": _percentile(latencies, 50) * 1e3,
            "get_p99_ms": _percentile(latencies, 99) * 1e3,
            "within_limit_ratio": within / len(records) if records else 0.0,
            "late_p99_ms": _percentile(
                [sent - due for due, sent, _, _ in records], 99
            ) * 1e3,
        }


def _get(port: int, path: str) -> tuple[int, str | None, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.getheader("ETag"), response.read()
    finally:
        conn.close()


def _peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Daemon:
    """One ``repro serve`` subprocess over a cache and a fresh state dir."""

    def __init__(
        self, root: Path, work: Path, seed: int, trace_out: Path | None
    ) -> None:
        self.spool = work / "spool"
        self.log_path = work / "serve.log"
        args = [
            "serve", "--seed", str(seed),
            "--users", str(SERVE_WORLD[0]), "--fcc", str(SERVE_WORLD[1]),
            "--days", "1.0",
            "--cache-dir", str(work / "cache"),
            "--state-dir", str(work / "state"),
            "--spool", str(self.spool),
            "--port", "0", "--interval", str(POLL_INTERVAL_S),
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, "-m", "perfbench.traced_daemon",
                       str(trace_out), *args]
        self.log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=child_env(root), stdout=self.log,
            stderr=subprocess.STDOUT,
        )

    def wait_ready(self) -> tuple[int, float, str, bytes]:
        """Port, seconds from launch to the first 200, its ETag and body."""
        deadline = self.started + START_TIMEOUT_S
        port = None
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"serve exited early:\n{self.log_path.read_text()}"
                )
            if port is None:
                text = self.log_path.read_text()
                if " on http://" in text:
                    port = int(text.split(" on http://")[1].split()[0]
                               .rsplit(":", 1)[1])
            if port is not None:
                try:
                    status, tag, body = _get(port, "/report.txt")
                except (OSError, http.client.HTTPException):
                    status = None
                if status == 200:
                    return port, time.perf_counter() - self.started, tag, body
            time.sleep(0.01)
        raise RuntimeError("serve did not answer within the start timeout")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def _append(
    daemon: Daemon, loadgen: LoadGenerator, index: int
) -> float | None:
    """Drop one append into the spool; seconds until the readers see a
    new ETag, or ``None`` if none shows within the timeout."""
    with loadgen.lock:
        known = set(loadgen.first_seen)
    name = f"append-{index:04d}.json"
    staged = daemon.spool / f"{name}.tmp"
    staged.write_text(json.dumps(
        {"n_dasu_users": APPEND_HOUSEHOLDS, "n_fcc_users": 0}
    ))
    dropped = time.perf_counter()
    os.rename(staged, daemon.spool / name)
    while time.perf_counter() - dropped < VISIBLE_TIMEOUT_S:
        time.sleep(0.005)
        with loadgen.lock:
            fresh = [t for t in loadgen.first_seen if t not in known]
        if fresh:
            return loadgen.first_seen[fresh[0]] - dropped
    return None


def _session(root: Path, work: Path, seed: int, seconds: float,
             trace_out: Path | None) -> dict:
    """Serve, reading for at least ``seconds`` while making
    :data:`APPENDS` appends; returns what was seen."""
    previous = probe_seconds()
    daemon = Daemon(root, work, seed, trace_out)
    loadgen = None
    visible: list[tuple[float, float]] = []
    errors: list[str] = []
    try:
        port, setup_s, first_tag, body = daemon.wait_ready()
        after = probe_seconds()
        setup = (setup_s, (previous + after) / 2)
        previous = after
        loadgen = LoadGenerator(port, GET_RATE)
        loadgen.observe(first_tag, body)
        loadgen.start()
        started = time.perf_counter()
        for index in range(APPENDS):
            seen = _append(daemon, loadgen, index)
            if seen is None:
                errors.append(f"append {index} never became visible")
                break
            after = probe_seconds()
            visible.append((seen, (previous + after) / 2))
            previous = after
        # Reads go on for the whole window even when the appends end early.
        remaining = seconds - (time.perf_counter() - started)
        if remaining > 0:
            time.sleep(remaining)
        loadgen.finish()
        peak_rss_mb = _peak_rss_mb(daemon.process.pid)
        status, final_tag, final_body = _get(port, "/report.txt")
        _, _, status_body = _get(port, "/status.json")
    finally:
        if loadgen is not None:
            loadgen.finish()
        daemon.stop()
    if status != 200 or loadgen.bodies.get(final_tag) not in (
        None, hashlib.sha256(final_body).hexdigest()
    ):
        errors.append("final report does not match the body served under "
                      "its ETag")
    if len(loadgen.bodies) != len(visible) + 1:
        errors.append(f"{len(visible)} appends showed {len(loadgen.bodies)} "
                      "ETags")
    tip = json.loads(status_body)
    return {
        "setup": setup,
        "visible": visible,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "gets": loadgen.stats(),
        "first_digest": loadgen.bodies[first_tag],
        "final_body": final_body,
        "tip": (tip["n_dasu_users"], tip["n_fcc_users"]),
    }


def _report_txt(world) -> bytes:
    """``report.txt`` of ``world`` rendered in process, off the DAG."""
    from repro.analysis.paper_report import full_report

    text = full_report(world.dasu.users, world.fcc.users, world.survey)
    return (text + "\n").encode()


def _per_refresh(snap: dict) -> dict:
    """Daemon totals divided by the number of refreshes after start."""
    refreshes = snap["calls"].get("service.refresh", 0)
    if not refreshes:
        raise RuntimeError("traced daemon recorded no refresh")
    return {
        field: {name: value / refreshes for name, value in values.items()}
        for field, values in snap.items()
    }


def run(seed: int, seconds: float, trace: bool, tmp: Path, root: Path,
        expected: str | None) -> dict:
    """Set up, measure and check the serve workload (see ``run.py``)."""
    from repro.datasets import build_world
    from repro.datasets.cache import WorldCache

    base = tmp / "plain"
    config = world_config(seed, SERVE_WORLD)
    world = build_world(config, jobs=JOBS, ground_truth=False)
    entry = WorldCache(base / "cache").store(world)
    base_digest = sha256(_report_txt(world))
    del world
    window = seconds / 2 if trace else seconds
    sessions = [_session(root, base, seed, window, None)]
    if trace:
        traced_dir = tmp / "traced"
        # A cache of its own: the plain session's appends are cached
        # under the same keys and would otherwise skip the simulation.
        shutil.copytree(entry, traced_dir / "cache" / entry.name)
        trace_out = traced_dir / "trace.json"
        sessions.append(_session(root, traced_dir, seed, window, trace_out))
    # Every session makes the same appends, so all end on one tip.
    plain, final = sessions[0], sessions[-1]
    errors = [e for s in sessions for e in s["errors"]]
    mismatches = sum(1 for s in sessions if s["first_digest"] != base_digest)
    if mismatches:
        errors.append("first served report differs from the base world's")
    if expected is None:
        # Digests in digests.json were recorded from this cold build;
        # for any other seed, make it here.
        tip = dataclasses.replace(
            config, n_dasu_users=final["tip"][0], n_fcc_users=final["tip"][1]
        )
        expected = sha256(
            _report_txt(build_world(tip, jobs=JOBS, ground_truth=False))
        )
    for session in sessions:
        served = sha256(session["final_body"])
        if served != expected:
            mismatches += 1
            errors.append(
                f"served report {served} of tip {session['tip']} != "
                f"{expected}, the cold-built tip's report"
            )
    gets = [s["gets"] for s in sessions]
    lost = APPENDS * len(sessions) - sum(len(s["visible"]) for s in sessions)
    summary = {
        "digest": sha256(final["final_body"]),
        "attempted": sum(g["attempted"] for g in gets)
        + APPENDS * len(sessions),
        "failed": sum(g["failed"] for g in gets) + lost + mismatches,
        "errors": errors,
        "samples": {
            "setup_s": [plain["setup"]],
            "op_s": plain["visible"],
        },
        "peak_rss_mb": plain["peak_rss_mb"],
        "gets": plain["gets"],
    }
    if trace:
        traced = final["gets"]
        snap = _per_refresh(json.loads(trace_out.read_text()))
        values = layers.layer_values(snap)
        values.update({
            "harness.requests_attempted": traced["attempted"],
            "harness.requests_failed": traced["failed"],
            "harness.generator_late_p99_ms": traced["late_p99_ms"],
            "harness.get_p50_ms": traced["get_p50_ms"],
            "harness.get_p99_ms": traced["get_p99_ms"],
            "harness.get_within_limit_ratio": traced["within_limit_ratio"],
        })
        summary["layers"] = [values]
        summary["calls"] = [snap["calls"]]
        summary["trace_overhead_s"] = statistics.median(
            scaled(final["visible"])
        ) - statistics.median(scaled(plain["visible"]))
    return summary
