"""Run ``repro serve`` with the benchmark's tracer installed.

Usage: ``python -m perfbench.traced_daemon TRACE_JSON serve [ARGS...]``
with ``src`` and the repository root on ``PYTHONPATH``. The daemon's
totals, from the end of its start-up refresh until it stops (Ctrl-C or
SIGINT), are written to ``TRACE_JSON`` as the tracer's snapshot.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from perfbench.layers import install


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = install(out.parent / "spill")
    from repro.cli import main as cli_main
    from repro.service.server import ReportServer

    start = ReportServer.start

    def start_then_reset(server) -> None:
        # Count only the refreshes that appends trigger, not the warm-up.
        start(server)
        tracer.reset()

    ReportServer.start = start_then_reset
    try:
        return cli_main(argv[1:])
    finally:
        ReportServer.start = start
        tracer.uninstall()
        tracer.collect()
        tmp = out.with_suffix(".tmp")
        tmp.write_text(json.dumps(tracer.snapshot()))
        os.replace(tmp, out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
