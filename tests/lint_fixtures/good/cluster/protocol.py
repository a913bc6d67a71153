"""REP005 positive fixture: a wire protocol of length-prefixed JSON."""

import json
import struct

_HEADER = struct.Struct(">I")


def encode_message(message):
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(body)) + body


def decode_message(frame):
    (length,) = _HEADER.unpack_from(frame)
    return json.loads(frame[_HEADER.size:_HEADER.size + length])
