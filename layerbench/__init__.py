"""Layered benchmark: host time to a converged estimate, split by layer.

Run ``python3 layerbench/run.py --workload <name>`` from the repository
root; see ``layerbench/README.md`` for the workloads and metrics.
"""
