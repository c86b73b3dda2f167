"""End-to-end benchmark: real-time factor, sweep throughput, stage table.

Run ``python3 benchmarks/e2e/run.py --seed 1`` (or ``python -m
benchmarks.e2e --seed 1``) from the repository root; see README.md.
"""
