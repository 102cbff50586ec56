"""Live-server benchmark of the ``repro`` scheduling service.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md`` for
the workloads, the metrics and which layer each metric belongs to.
"""
