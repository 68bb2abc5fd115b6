"""The repository benchmark: host cost and simulated latency of the repro package.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload figures_dry --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` at the repository root lists the workloads and the
metrics.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Self-tests: ``python3 -m pytest perfbench -q``.
"""
