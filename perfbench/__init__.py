"""ttabench benchmark: workloads, tracing and metrics."""
