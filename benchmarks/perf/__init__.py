"""The repo benchmark: workloads, tracing and comparison (see README.md)."""
