"""The repository benchmark: CFD discovery served through a real fleet.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md`` for the
workloads, the metrics and what each one should move.
"""
