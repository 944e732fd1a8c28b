"""Serving benchmark for the repro taxonomy service (see README.md)."""
