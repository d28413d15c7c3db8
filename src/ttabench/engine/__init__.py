"""Adaptation engine: run configuration, optimizers, runners, and run artifacts."""
