"""Benchmark harness for hgtensor: seeded inputs, CLI-shaped requests, an
independent oracle, and span tracing around the package's public calls."""
