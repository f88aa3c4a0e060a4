"""End-to-end and per-layer benchmark of the figure-regeneration workflow.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
