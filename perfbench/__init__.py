"""Host-time and per-layer benchmark of the Hyperion simulation.

Run ``python3 perfbench/run.py --workload scaleout --seed 1 --seconds 30
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
