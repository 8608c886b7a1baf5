"""The structural value fingerprint, frozen as the oracle.

A verbatim copy of ``repro.cache.fingerprint.fingerprint_value`` and
``combine`` as they stood before atoms and exact tuples took a fast
path: every atom through ``combine``'s generator and six ``update``
calls, every container through the full ``isinstance`` chain.  It is
the reference the fast path is held to, digest for digest; it recurses
into itself only.  Callables and the unpicklable-object fallback reuse
the package's ``fingerprint_function`` / ``_instance_state`` (the fast
path changed neither), and the fallback's telemetry counter is left
out.
"""

import hashlib
import pickle

from repro.cache.fingerprint import (
    _PICKLE_FAILURES,
    _instance_state,
    fingerprint_function,
)

_DIGEST_BYTES = 16
_MAX_DEPTH = 12


def _digest(parts):
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    for part in parts:
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


def combine(*parts):
    return _digest(str(p).encode("utf-8", "backslashreplace") for p in parts)


def fingerprint_value(value, _depth=0):
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return combine("atom", type(value).__name__, value)
    if isinstance(value, type):
        return combine("type", value.__module__, value.__qualname__)
    if callable(value):
        return fingerprint_function(value)
    if _depth >= _MAX_DEPTH:
        return combine("depth-limit", type(value).__qualname__)
    if isinstance(value, (list, tuple)):
        return combine(
            "seq",
            type(value).__name__,
            *(fingerprint_value(item, _depth + 1) for item in value),
        )
    if isinstance(value, dict):
        items = sorted(
            (fingerprint_value(k, _depth + 1), fingerprint_value(v, _depth + 1))
            for k, v in value.items()
        )
        return combine("map", *(part for pair in items for part in pair))
    if isinstance(value, (set, frozenset)):
        return combine(
            "set", *sorted(fingerprint_value(item, _depth + 1) for item in value)
        )
    try:
        payload = pickle.dumps(value, protocol=4)
    except _PICKLE_FAILURES:
        state = _instance_state(value)
        if state:
            return combine(
                "obj",
                type(value).__module__,
                type(value).__qualname__,
                fingerprint_value(state, _depth + 1),
            )
        return combine("opaque", type(value).__module__, type(value).__qualname__)
    return _digest([type(value).__qualname__.encode("utf-8"), payload])
