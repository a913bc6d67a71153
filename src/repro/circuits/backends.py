"""The batched-evaluation backend and exact-kernel axes, validated in one place.

Every layer that accepts a ``backend`` string — ``CompiledQuery.
evaluate_batch``/``evaluate_selected`` and :class:`repro.api.ExecOptions`
(which every prepared and served query reads) — validates it through
:func:`validate_backend`, so a typo fails eagerly at the first seam it
crosses with one consistent error message instead of surfacing later
(or never) deep inside a dispatcher thread.

``exact_mode`` — the plan-level kernel override for the exact carriers
(``N``/``Z``/``Q``) of the vectorized backend — is validated the same
way through :func:`validate_exact_mode`.
"""

from __future__ import annotations

#: The recognised values of every ``backend=`` parameter.
VALID_BACKENDS = ("auto", "python", "numpy")

#: The recognised values of every ``exact_mode=`` parameter.
VALID_EXACT_MODES = ("auto", "object")


def validate_backend(backend: str) -> str:
    """Validate a ``backend`` string; returns it unchanged.

    Raises :class:`ValueError` with the shared message used across the
    whole API surface.
    """
    if backend not in VALID_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected "
                         f"'auto', 'python' or 'numpy'")
    return backend


def validate_exact_mode(exact_mode: str) -> str:
    """Validate an ``exact_mode`` string; returns it unchanged.

    ``"auto"`` — the guarded native kernel (int64 for ``N``/``Z``,
    integer-float64 for ``Q``): batches certified unable to overflow
    run natively, every other one on the exact object-dtype kernel;
    ``"object"`` — the exact object-dtype kernels only.  Semirings
    without an exact array carrier ignore the knob.
    """
    if exact_mode not in VALID_EXACT_MODES:
        raise ValueError(f"unknown exact_mode {exact_mode!r}; expected "
                         f"'auto' or 'object'")
    return exact_mode
