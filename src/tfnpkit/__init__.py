"""Combinatorial codecs, total-search-problem verifiers, and reductions."""

from .numerics import BitString

__all__ = ["BitString"]
