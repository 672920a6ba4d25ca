"""Benchmark harness for the spinqpe CLI; run.py is the entry point."""
