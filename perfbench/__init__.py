"""Perf benchmark for canvasmem; see README.md in this directory."""
