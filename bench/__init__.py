"""The repository's benchmark: five workloads, end-to-end and per-layer metrics.

Run it with ``python3 bench/run.py``; see ``bench/README.md``.
"""
