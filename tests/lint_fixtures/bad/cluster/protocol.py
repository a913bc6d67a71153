"""REP005 negative fixture: a wire protocol that pickles its frames."""

import pickle  # REP005
import struct

_HEADER = struct.Struct(">I")


def encode_message(message):
    body = pickle.dumps(message)
    return _HEADER.pack(len(body)) + body


def decode_message(frame):
    return pickle.loads(frame[_HEADER.size:])
