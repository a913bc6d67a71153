"""Naive baselines (system S13): re-exported test oracles & benchmark rivals.

The naive evaluators live next to the ASTs in ``repro.logic`` (and
``repro.fog.evaluator`` / ``repro.algebra.permanent`` for their domains);
this package gathers them under one roof for benchmarks.
"""

from ..algebra.permanent import permanent_naive
from ..fog.evaluator import eval_fog_naive
from ..logic.naive import (ForestModel, StructureModel, eval_expression,
                           eval_formula, model_for)

__all__ = [
    "eval_expression", "eval_formula", "model_for", "StructureModel",
    "ForestModel", "eval_fog_naive", "permanent_naive",
]
