"""COPS-HTTP benchmark: out-of-process, open-loop load against the
default generated build, with a separate traced per-layer run.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (see ``perfbench/README.md``).
"""
