"""Serving benchmark harness (see run.py)."""
