"""Benchmark for the cnnlf package: end-to-end runs plus a per-module trace."""
