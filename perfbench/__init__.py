"""Benchmark for kscolour; see README.md in this directory."""
