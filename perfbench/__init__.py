"""The repository benchmark: four workloads over both halves of the pipeline.

Run it from the repository root::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` at the root names the workloads and metrics; ``run.py``
documents the arguments and the output.
"""
