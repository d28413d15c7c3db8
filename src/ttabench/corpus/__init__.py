"""Corpus ingestion, audio reading, acoustic features, and VAD."""
