"""The paper's core contribution (system S7): the Theorem 6 compiler."""

from .closure import (SELECTED, Selector, arguments_of, close_over,
                      normalize_arguments, selected_elements, selection,
                      selector_key)
from .forest_compiler import (ForestCompiler, Fragment, chain_info,
                              color_blocks, compile_forest_query,
                              exclusive_assignments, labeled_shapes_for_block,
                              required_comparable, residual_formula,
                              weight_depth_index)
from .pipeline import (CompiledQuery, DynamicQuery, compile_structure_query,
                       plan_cache_key)
from .shapes import Shape, enumerate_shapes
from .stages import forest_from_structure

__all__ = [
    "Shape", "enumerate_shapes", "ForestCompiler", "Fragment", "chain_info",
    "compile_forest_query", "residual_formula", "exclusive_assignments",
    "required_comparable", "labeled_shapes_for_block", "weight_depth_index",
    "forest_from_structure", "color_blocks",
    "CompiledQuery", "DynamicQuery", "compile_structure_query",
    "plan_cache_key",
    "SELECTED", "Selector", "close_over", "selector_key", "selection",
    "selected_elements", "normalize_arguments", "arguments_of",
]
