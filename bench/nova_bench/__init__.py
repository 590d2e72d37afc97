"""Benchmark harness for a Nova run: workloads, latency backend, span tracing."""
