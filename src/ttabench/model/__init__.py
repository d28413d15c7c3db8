"""Model value types, greedy CTC decoding, and the reference model."""
