"""Benchmark for spinlab; run it with ``python3 perfbench/run.py``."""
