"""The cluster wire protocol: length-prefixed frames of tagged JSON.

Gateway and workers speak a small request/response protocol over
:func:`multiprocessing.Pipe` connections.  Every message is one
**frame**: a big-endian ``u32`` byte length followed by exactly that
many bytes of UTF-8 JSON.  The prefix makes the layout self-describing
over any byte stream (a raw socket would carry it unchanged); over
multiprocessing pipes — which already preserve message boundaries — it
doubles as a truncation/corruption check on every read.

Message payloads are **data-only**: the same discipline as the plan
store (no pickle on the wire — a compromised worker must not gain code
execution in the gateway, nor vice versa).  Values travel through
:func:`encode_value`/:func:`decode_value`: the plan serializer's
tagged-atom codec (:mod:`repro.circuits.serialize` — scalars, tuples,
sets, fractions, bytes, every shipped semiring carrier) with its
``"m"`` tag for string-or-atom-keyed mappings switched on, so whole
request dicts and structure snapshots ride the same closed codec.  A
value outside the vocabulary raises :class:`ClusterCodecError` at the
sender — eagerly, in the process that owns the value — never a decode
surprise at the receiver; a malformed one raises it at the receiver.

Typed errors for the serving contract live here too:
:class:`Overloaded` (admission control shed the request),
:class:`WorkerCrashed` (a shard worker died and took the request's
answer with it), :class:`ShardingError` (the domain partition cannot
honor the request).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict

from ..circuits.serialize import (PlanNotSerializable, PlanStateError,
                                  atom_codec)

__all__ = ["ClusterError", "ClusterCodecError", "Overloaded",
           "WorkerCrashed", "ShardingError", "encode_value", "decode_value",
           "write_frame", "read_frame", "encode_message", "decode_message"]


class ClusterError(RuntimeError):
    """Base class of every cluster-serving error."""


class ShardingError(ClusterError):
    """The domain partition cannot honor the request (a cross-shard
    tuple, an unshardable query shape, or a bad custom assignment)."""


class Overloaded(ClusterError):
    """Admission control shed the request instead of queueing it.

    Raised by the gateway when the global pending cap or the caller's
    per-client in-flight cap is exhausted — the typed signal for
    clients to back off (retry with jitter) rather than pile on.
    ``scope`` is ``"gateway"`` or ``"client"``; ``limit`` the cap that
    tripped.
    """

    def __init__(self, message: str, scope: str = "gateway",
                 limit: int = 0):
        super().__init__(message)
        self.scope = scope
        self.limit = limit


class WorkerCrashed(ClusterError):
    """A shard worker died while holding the request.

    The gateway respawns the worker and retries reads; a request that
    exhausts its retries surfaces this instead of a silent wrong/zero
    answer.
    """


class ClusterCodecError(ClusterError):
    """A value is outside the data-only wire vocabulary."""


# -- the wire value codec --------------------------------------------------------
# The plan serializer's tagged-atom codec with its "m" mapping tag on;
# its failures surface here as ClusterCodecError.

_encode_atom, _decode_atom = atom_codec(mappings=True)


def encode_value(value: Any) -> Any:
    """Encode one wire value into the tagged-JSON vocabulary."""
    try:
        return _encode_atom(value)
    except PlanNotSerializable as error:
        raise ClusterCodecError(
            f"cannot send over the cluster wire: {error} — custom "
            f"carriers like the provenance Poly cannot be served across "
            f"shards") from None


def decode_value(value: Any) -> Any:
    """Decode one tagged-JSON wire value; unknown shapes are errors."""
    try:
        return _decode_atom(value)
    except PlanStateError as error:
        raise ClusterCodecError(f"malformed wire value: {error}") from None


# -- framing ---------------------------------------------------------------------

#: Frame header: big-endian u32 payload byte length.
_HEADER = struct.Struct(">I")

#: Ceiling on one frame's payload (64 MiB): a corrupt header must not
#: allocate unbounded memory at the receiver.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message dict -> one framed byte string."""
    body = json.dumps(encode_value(message),
                      separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterCodecError(f"message of {len(body)} bytes exceeds the "
                                f"{MAX_FRAME_BYTES}-byte frame ceiling")
    return _HEADER.pack(len(body)) + body


def decode_message(frame: bytes) -> Dict[str, Any]:
    """One framed byte string -> the message dict (length-checked)."""
    if len(frame) < _HEADER.size:
        raise ClusterCodecError(f"truncated frame of {len(frame)} bytes")
    (length,) = _HEADER.unpack_from(frame)
    body = frame[_HEADER.size:]
    if length != len(body):
        raise ClusterCodecError(f"frame declares {length} payload bytes "
                                f"but carries {len(body)}")
    if length > MAX_FRAME_BYTES:
        raise ClusterCodecError(f"frame of {length} bytes exceeds the "
                                f"{MAX_FRAME_BYTES}-byte ceiling")
    message = decode_value(json.loads(body.decode("utf-8")))
    if not isinstance(message, dict):
        raise ClusterCodecError(f"frame payload is not a message dict: "
                                f"{type(message).__name__}")
    return message


def write_frame(conn: Any, message: Dict[str, Any]) -> None:
    """Send one message as a frame on a multiprocessing connection."""
    conn.send_bytes(encode_message(message))


def read_frame(conn: Any) -> Dict[str, Any]:
    """Receive one framed message from a multiprocessing connection.

    Raises :class:`EOFError` when the peer closed (worker death — the
    caller's respawn trigger) and :class:`ClusterCodecError` on any
    malformed frame.
    """
    return decode_message(conn.recv_bytes())


# -- structure snapshots ---------------------------------------------------------
# A shard structure rides the "load" message (not the spawn args): the
# gateway keeps the authoritative copy, so a respawned worker reloads
# the *current* state — updates included — through the same codec.

def encode_structure(structure: Any) -> Dict[str, Any]:
    """A Structure's full content as a wire-codec payload."""
    return {
        "domain": list(structure.domain),
        "relations": {name: sorted(tuples, key=repr)
                      for name, tuples in structure.relations.items()},
        "weights": {name: [[tup, value] for tup, value
                           in sorted(mapping.items(), key=repr)]
                    for name, mapping in structure.weights.items()},
        "arity": dict(structure._arity),
    }


def decode_structure(payload: Dict[str, Any]) -> Any:
    """Rebuild a Structure from :func:`encode_structure`'s payload."""
    from ..structures import Structure
    structure = Structure(payload["domain"])
    for name, tuples in payload["relations"].items():
        for tup in tuples:
            structure.add_tuple(name, tuple(tup))
        structure.relations.setdefault(name, set())
    for name, entries in payload["weights"].items():
        for tup, value in entries:
            structure.set_weight(name, tuple(tup), value)
        structure.weights.setdefault(name, {})
    # Names that are empty on this shard still need their declared
    # arities (a worker must accept updates/queries mentioning them).
    for name, arity in payload["arity"].items():
        structure._arity.setdefault(name, arity)
    return structure


def error_reply(request_id: Any, error: BaseException) -> Dict[str, Any]:
    """The standard error reply for one request."""
    return {"id": request_id, "ok": False,
            "error": type(error).__name__, "detail": str(error)}


def raise_reply_error(reply: Dict[str, Any]) -> None:
    """Re-raise a worker-side error reply in the gateway.

    Errors cross the wire as ``(type name, message)`` — data, not
    pickled exception objects.  Well-known types re-raise as
    themselves so caller contracts hold across the process boundary
    (``KeyError`` for bad arguments, ``ValueError`` for bad knobs);
    everything else surfaces as :class:`ClusterError`.
    """
    name = reply.get("error", "ClusterError")
    detail = reply.get("detail", "")
    known: Dict[str, Any] = {
        "KeyError": KeyError, "ValueError": ValueError,
        "TypeError": TypeError, "RuntimeError": RuntimeError,
        "Overloaded": Overloaded, "ShardingError": ShardingError,
        "ClusterCodecError": ClusterCodecError,
        "PlanStateError": PlanStateError,
    }
    exc_type = known.get(name)
    if exc_type is None:
        raise ClusterError(f"worker error {name}: {detail}")
    raise exc_type(detail)


def check_wire_roundtrip(value: Any) -> Any:
    """Assert ``value`` survives the wire codec; returns it unchanged.

    Used by the gateway at construction to refuse un-servable carriers
    (e.g. the provenance ``Poly``) eagerly — the same fail-at-the-seam
    discipline as the backend validators.
    """
    decode_value(encode_value(value))
    return value
