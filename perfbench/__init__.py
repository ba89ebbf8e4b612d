"""Benchmark of the recdiv CLI; run perfbench/run.py."""
