"""The batched-evaluation backend and exact-kernel axes, validated in one place.

Every layer that accepts a ``backend`` string — ``CompiledQuery.
evaluate_batch``, ``WeightedQueryEngine.query_batch`` and
:class:`repro.api.ExecOptions` (which every served query reads) — validates it through
:func:`validate_backend`, so a typo fails eagerly at the first seam it
crosses with one consistent error message instead of surfacing later
(or never) deep inside a dispatcher thread.

``exact_mode`` — the kernel-selection knob for the exact carriers
(``N``/``Z``/``Q``) of the vectorized backend — is validated the same
way through :func:`validate_exact_mode`.  ``"int64"`` *requires* the
NumPy backend, so on a NumPy-less install it is rejected here, eagerly,
with the same :class:`ValueError` shape as an unknown mode: the knob
can never be accepted at construction only to fail (or silently
degrade) deep inside an evaluation.
"""

from __future__ import annotations

import importlib.util

#: The recognised values of every ``backend=`` parameter.
VALID_BACKENDS = ("auto", "python", "numpy")

#: The recognised values of every ``exact_mode=`` parameter.
VALID_EXACT_MODES = ("auto", "int64", "object")

#: Memoized once: whether the vectorized backend can exist at all.
#: (find_spec, not an import: validation must stay cheap on installs
#: that never touch the numpy backend.  A blocking import hook may
#: raise instead of returning None — same answer.)
try:
    _HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
except ImportError:  # pragma: no cover - import-hooked environments
    _HAVE_NUMPY = False


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
    ``"int64"`` — the same guarded kernel, but requiring NumPy (a
    NumPy-less install rejects it here, eagerly); ``"object"`` — the
    exact object-dtype kernels only.  Semirings without an exact array
    carrier ignore the knob.
    """
    if exact_mode not in VALID_EXACT_MODES:
        raise ValueError(f"unknown exact_mode {exact_mode!r}; expected "
                         f"'auto', 'int64' or 'object'")
    if exact_mode == "int64" and not _HAVE_NUMPY:
        raise ValueError("exact_mode 'int64' requires numpy; expected "
                         "'auto' or 'object' on numpy-less installs")
    return exact_mode
