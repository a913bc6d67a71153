"""Theorem 8 engine (system S8): weighted query evaluation with updates."""

from .weighted_query import WeightedQueryEngine, normalize_arguments

__all__ = ["WeightedQueryEngine", "normalize_arguments"]
