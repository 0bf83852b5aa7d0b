"""Benchmark harness for hexmob: seeded synthetic worlds, closed-loop passes
in memory-limited child processes, output checks against the world's
ground-truth ledger, and an optional traced run that attributes a pass's
wall time to the package's modules."""
