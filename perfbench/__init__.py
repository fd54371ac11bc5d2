"""Benchmark for specord: closed-loop CLI workloads, output gates and a
trace that times each library layer from outside the program.

Run it from the repository root with ``python3 perfbench/run.py --help``.
"""
