"""Differentiable CTC model contract, greedy decoding, and the reference model."""
