"""Circuits with permanent gates (system S6)."""

from .backends import (VALID_BACKENDS, VALID_EXACT_MODES, validate_backend,
                       validate_exact_mode)
from .evaluation import (BatchedEvaluator, DynamicEvaluator, StaticEvaluator,
                         Valuation, valuation_from_dict)
from .gates import (AddGate, Circuit, CircuitBuilder, ConstGate, GateId,
                    InputGate, MulGate, PermGate)
from .optimize import OptimizeResult, optimize_circuit
from .render import describe_optimization, render_dot, render_text, summarize
from .schedule import LayerSchedule, build_schedule, co_occurring_inputs
from .serialize import (PLAN_FORMAT_VERSION, PlanNotSerializable,
                        PlanStaleError, PlanStateError, circuit_from_state,
                        circuit_to_state, decode_atom, dump_plan_bytes,
                        encode_atom, load_plan_bytes)
from .vectorized import (HAVE_NUMPY, ArrayKernel, VectorizedEvaluator,
                         kernel_for)

__all__ = [
    "Circuit", "CircuitBuilder", "InputGate", "ConstGate", "AddGate",
    "MulGate", "PermGate", "GateId",
    "StaticEvaluator", "BatchedEvaluator", "DynamicEvaluator",
    "valuation_from_dict", "Valuation",
    "LayerSchedule", "build_schedule",
    "co_occurring_inputs",
    "PLAN_FORMAT_VERSION", "PlanStateError", "PlanStaleError",
    "PlanNotSerializable", "circuit_to_state", "circuit_from_state",
    "encode_atom", "decode_atom", "dump_plan_bytes", "load_plan_bytes",
    "VectorizedEvaluator", "ArrayKernel", "kernel_for",
    "HAVE_NUMPY", "validate_backend", "VALID_BACKENDS",
    "validate_exact_mode", "VALID_EXACT_MODES",
    "optimize_circuit", "OptimizeResult",
    "render_text", "render_dot", "summarize", "describe_optimization",
]
