"""Versioned, pickle-free serialization of circuits.

Compiled plans persist to disk (``repro.serve.PlanStore``) so a fresh
process — a serving worker, a CI leg, an example run — can load a plan
instead of re-running the Theorem 6 compiler.  Loading data must never
execute it, so the on-disk format is **data-only**: a small binary
container (magic + JSON header + zlib-compressed canonical JSON payload)
with no pickle anywhere.  Every Python value that appears in a plan —
input-gate keys, constants, recorded weights — is encoded through the
tagged-atom codec below; a value outside the closed vocabulary (e.g. a
user-defined carrier object) raises :class:`PlanNotSerializable` and
the store simply skips that plan.  The same codec, with one extra tag
for mappings, is the cluster's wire format (:mod:`repro.cluster.
protocol`); plan loads refuse that tag.

Two version stamps guard staleness:

* ``PLAN_FORMAT_VERSION`` — bumped whenever the state layout changes;
* the library version — a plan compiled by one release is not trusted
  by another (compiler output may differ gate-for-gate).

A mismatch of either raises :class:`PlanStaleError`; corrupt bytes
(bad magic, truncation, checksum mismatch, malformed state) raise
:class:`PlanStateError`.  Both are misses to the store, never crashes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
import zlib
from fractions import Fraction
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from .._version import __version__ as LIBRARY_VERSION
from .gates import (AddGate, Circuit, ConstGate, GateId, InputGate, MulGate,
                    PermGate)

#: Bump on any change to the state layout; stale entries reload as misses.
#: 2: the ``recorded`` table gained the value-less selector kind ``"s"``.
#: 3: forests, coloring and the layer schedule left the state (the
#: schedule is rebuilt from the circuit); three decomposition counts came.
#: Not bumped when constant folding moved into the circuit builder: a
#: plan compiled before is the same circuit as one compiled now, or an
#: unfolded version of it with the same value, so it stays valid.
PLAN_FORMAT_VERSION = 3

#: Container magic: identifies a serialized plan file.
PLAN_MAGIC = b"RPLN\x01"


class PlanStateError(ValueError):
    """The serialized plan state is corrupt or malformed."""


class PlanStaleError(PlanStateError):
    """The plan was written by a different format or library version."""


class PlanNotSerializable(PlanStateError):
    """The plan contains values outside the data-only vocabulary."""


# -- tagged atoms ----------------------------------------------------------------
# Scalars (None/bool/int/float/str) pass through as JSON values; every
# composite is a tagged JSON array, so decode is unambiguous and closed
# (an unknown tag is an error, never an eval or a pickle).  The cluster
# wire (repro.cluster.protocol) speaks the same vocabulary plus the "m"
# tag for mappings; a plan never does, so a mapping atom in plan bytes
# stays an unknown tag.

_TUPLE, _FROZENSET, _SET, _LIST, _FRACTION, _BYTES, _MAP = \
    "t", "f", "s", "l", "q", "b", "m"


def atom_codec(mappings: bool) -> Tuple[Callable[[Any], Any],
                                        Callable[[Any], Any]]:
    """The tagged-atom ``(encode, decode)`` pair; with ``mappings`` it
    also carries dicts, as ``"m"`` arrays of key/value pairs.  The flag
    is bound once, so each recursion calls itself with the value alone
    (the wire encodes and decodes every frame through it)."""

    def encode(value: Any) -> Any:
        """Encode one value into the tagged-JSON vocabulary."""
        if value is None or isinstance(value, (bool, int, str, float)):
            # Python's json emits Infinity/NaN literals (allow_nan
            # default) and parses them back — the tropical zeros survive.
            return value
        if isinstance(value, tuple):
            return [_TUPLE] + [encode(item) for item in value]
        if isinstance(value, list):
            return [_LIST] + [encode(item) for item in value]
        if isinstance(value, (frozenset, set)):
            tag = _FROZENSET if isinstance(value, frozenset) else _SET
            return [tag] + sorted((encode(item) for item in value),
                                  key=repr)
        if isinstance(value, Fraction):
            return [_FRACTION, value.numerator, value.denominator]
        if isinstance(value, bytes):
            return [_BYTES, base64.b64encode(value).decode("ascii")]
        if mappings and isinstance(value, dict):
            return [_MAP] + [[encode(key), encode(item)]
                             for key, item in value.items()]
        raise PlanNotSerializable(
            f"cannot serialize {type(value).__name__} value {value!r}; "
            f"values are restricted to the data-only vocabulary "
            f"(scalars, tuples, sets, fractions, bytes)")

    def decode(value: Any) -> Any:
        """Decode one tagged-JSON value; unknown shapes are errors."""
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if not isinstance(value, list) or not value:
            raise PlanStateError(f"malformed atom {value!r}")
        tag, rest = value[0], value[1:]
        if tag == _TUPLE:
            return tuple(decode(item) for item in rest)
        if tag == _LIST:
            return [decode(item) for item in rest]
        if tag == _FROZENSET:
            return frozenset(decode(item) for item in rest)
        if tag == _SET:
            return {decode(item) for item in rest}
        if tag == _FRACTION:
            if len(rest) != 2:
                raise PlanStateError(f"malformed fraction {value!r}")
            return Fraction(rest[0], rest[1])
        if tag == _BYTES:
            return base64.b64decode(rest[0])
        if tag == _MAP and mappings:
            out: Dict[Any, Any] = {}
            for pair in rest:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise PlanStateError(f"malformed mapping entry {pair!r}")
                out[decode(pair[0])] = decode(pair[1])
            return out
        raise PlanStateError(f"unknown atom tag {tag!r}")

    return encode, decode


#: The plan vocabulary: every plan value goes through these two.
encode_atom, decode_atom = atom_codec(False)


# -- circuits --------------------------------------------------------------------
# All stored gates serialize (dead gates included) so gate ids — which
# the output and hash-consing sharing refer to, and which make the
# schedule rebuilt at load time the one built at compile time — are
# preserved verbatim.

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PlanStateError(message)


def circuit_to_state(circuit: Circuit) -> Dict[str, Any]:
    gates: List[Any] = []
    for gate in circuit.gates:
        if isinstance(gate, InputGate):
            gates.append(["i", encode_atom(gate.key)])
        elif isinstance(gate, ConstGate):
            gates.append(["c", encode_atom(gate.value)])
        elif isinstance(gate, AddGate):
            gates.append(["+", list(gate.children)])
        elif isinstance(gate, MulGate):
            gates.append(["*", list(gate.children)])
        elif isinstance(gate, PermGate):
            gates.append(["p", [list(row) for row in gate.entries]])
        else:
            raise PlanNotSerializable(f"unknown gate {gate!r}")
    return {"gates": gates, "output": circuit.output}


def _check_child(child: Any, index: int) -> GateId:
    _require(isinstance(child, int) and not isinstance(child, bool)
             and 0 <= child < index,
             f"gate {index} references invalid child {child!r}")
    return child


def circuit_from_state(state: Any) -> Circuit:
    _require(isinstance(state, dict) and isinstance(state.get("gates"), list),
             "malformed circuit state")
    gates: List[Any] = []
    inputs: Dict[Hashable, GateId] = {}
    for index, item in enumerate(state["gates"]):
        _require(isinstance(item, list) and len(item) == 2,
                 f"malformed gate entry {item!r}")
        tag, body = item
        if tag == "i":
            gate: Any = InputGate(decode_atom(body))
            inputs[gate.key] = index
        elif tag == "c":
            gate = ConstGate(decode_atom(body))
        elif tag in ("+", "*"):
            _require(isinstance(body, list) and len(body) >= 2,
                     f"gate {index}: add/mul needs >= 2 children")
            children = tuple(_check_child(c, index) for c in body)
            gate = (AddGate if tag == "+" else MulGate)(children)
        elif tag == "p":
            _require(isinstance(body, list) and body
                     and all(isinstance(row, list) for row in body),
                     f"gate {index}: malformed permanent entries")
            width = len(body[0])
            _require(all(len(row) == width for row in body),
                     f"gate {index}: permanent matrix is not rectangular")
            entries = tuple(
                tuple(None if e is None else _check_child(e, index)
                      for e in row)
                for row in body)
            gate = PermGate(entries)
        else:
            raise PlanStateError(f"unknown gate tag {tag!r}")
        gates.append(gate)
    output = state.get("output")
    _require(isinstance(output, int) and not isinstance(output, bool)
             and 0 <= output < len(gates),
             f"invalid output gate {output!r}")
    # Child-id < parent-id above re-establishes the builder's topological
    # invariant, which every evaluator (and the schedule) relies on.
    return Circuit(gates, output, inputs)


# -- the binary container --------------------------------------------------------

def dump_plan_bytes(state: Any, format_version: Optional[int] = None,
                    library_version: Optional[str] = None) -> bytes:
    """Serialize ``state`` into the container format.

    The version overrides exist for tests exercising the staleness
    paths; production callers always stamp the current versions.
    """
    payload = zlib.compress(
        json.dumps(state, separators=(",", ":")).encode(), 6)
    header = json.dumps({
        "format": (PLAN_FORMAT_VERSION if format_version is None
                   else format_version),
        "library": (LIBRARY_VERSION if library_version is None
                    else library_version),
        "length": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }, separators=(",", ":"), sort_keys=True).encode()
    return PLAN_MAGIC + struct.pack(">I", len(header)) + header + payload


def load_plan_bytes(data: bytes) -> Any:
    """Parse a container back into its state, verifying magic, versions
    and the payload checksum.  Raises :class:`PlanStaleError` on version
    mismatch, :class:`PlanStateError` on any corruption."""
    prefix = len(PLAN_MAGIC) + 4
    _require(isinstance(data, (bytes, bytearray)) and len(data) > prefix
             and bytes(data[:len(PLAN_MAGIC)]) == PLAN_MAGIC,
             "not a serialized plan (bad magic)")
    (header_length,) = struct.unpack(">I", data[len(PLAN_MAGIC):prefix])
    _require(len(data) >= prefix + header_length, "truncated plan header")
    try:
        header = json.loads(data[prefix:prefix + header_length])
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise PlanStateError(f"corrupt plan header: {error}") from None
    _require(isinstance(header, dict), "malformed plan header")
    if header.get("format") != PLAN_FORMAT_VERSION or \
            header.get("library") != LIBRARY_VERSION:
        raise PlanStaleError(
            f"plan written by format {header.get('format')!r} / library "
            f"{header.get('library')!r}; this is format "
            f"{PLAN_FORMAT_VERSION} / library {LIBRARY_VERSION}")
    payload = bytes(data[prefix + header_length:])
    _require(len(payload) == header.get("length"), "truncated plan payload")
    _require(hashlib.sha256(payload).hexdigest() == header.get("sha256"),
             "plan payload checksum mismatch")
    try:
        return json.loads(zlib.decompress(payload))
    except (zlib.error, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise PlanStateError(f"corrupt plan payload: {error}") from None
