"""Benchmark of the CDC replay, lake and SQL paths; see run.py."""
