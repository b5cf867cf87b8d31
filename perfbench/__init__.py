"""Benchmark of the medialcover command line; run ``python3 perfbench/run.py --help``."""
