"""Deterministic fingerprints for lineage-keyed caching.

A fingerprint is a short hex digest identifying *what would be
computed*: the producing function, the lineage of its arguments and
the cache epoch.  Two submissions with equal fingerprints are
guaranteed to produce equal results (the simulation's real Python
computation is deterministic), so the cache can skip the virtual-time
charges of re-execution.

Functions are fingerprinted structurally (module, qualname, code
bytes, defaults and closure cells) rather than by ``id()`` so that a
re-created lambda or a reconstructed lineage entry maps to the same
key — this is what makes fault-driven re-execution hit the cache.
``hash()`` is never used: it is salted per interpreter run for
strings, which would break cross-run determinism.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Dict, Iterable
from weakref import WeakKeyDictionary

__all__ = [
    "combine",
    "fingerprint_value",
    "fingerprint_function",
]

_DIGEST_BYTES = 16

#: Everything ``pickle.dumps`` raises for *unpicklable input* — as
#: opposed to programming errors, which should surface.  PicklingError
#: covers unregistered/local types, TypeError unpicklable primitives
#: (locks, generators), AttributeError missing ``__reduce__`` lookups,
#: ValueError mid-pickle state errors, RecursionError deep object
#: graphs.  Anything outside this set propagates instead of being
#: silently swallowed into a shared "opaque" digest.
_PICKLE_FAILURES = (
    pickle.PicklingError,
    TypeError,
    AttributeError,
    ValueError,
    RecursionError,
)


def _note_fallback(kind: str) -> None:
    """Count a structural-fallback event on the installed tracer.

    The fallback digest is weaker than a pickle digest (it sees only
    attribute state), so traced runs record how often caching had to
    rely on it — a spike in ``cache.fingerprint.fallback`` is the cue
    to make the offending type picklable.
    """
    from repro.obs import current_tracer

    tracer = current_tracer()
    if tracer.enabled:
        tracer.metrics.counter("cache.fingerprint.fallback", kind=kind).inc()


def _instance_state(value: Any) -> Any:
    """Observable attribute state: ``__dict__`` plus ``__slots__``.

    ``__slots__`` classes have no ``__dict__``, so a fallback that only
    looked there digested every instance to the same opaque value —
    distinct states collided, and the cache could serve a stale result.
    Walking the MRO collects slot descriptors from every base class.
    """
    state: dict = {}
    plain = getattr(value, "__dict__", None)
    if plain:
        state.update(plain)
    for klass in type(value).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__") or name in state:
                continue
            try:
                state[name] = getattr(value, name)
            except AttributeError:  # slot declared but never assigned
                state[name] = "<unset-slot>"
    return state


def _digest(parts: Iterable[bytes]) -> str:
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    for part in parts:
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


def combine(*parts: Any) -> str:
    """Hash any mix of strings/ints/floats/digests into one digest.

    One ``blake2b`` call over each part's text followed by a NUL: the
    bytes :func:`_digest` would feed it part by part (UTF-8 encodes
    character by character, so encoding the joined text once gives the
    same bytes).  No parts hash no bytes.
    """
    text = "\x00".join(map(str, parts)) + "\x00" if parts else ""
    data = text.encode("utf-8", "backslashreplace")
    return hashlib.blake2b(data, digest_size=_DIGEST_BYTES).hexdigest()


#: Recursion bound for structural fingerprinting — deep enough for any
#: real operator/argument graph, shallow enough to survive cycles.
_MAX_DEPTH = 12

#: ``combine("atom", type name, value)``'s leading bytes per exact atom
#: type: an atom digests as one blake2b call over this prefix, the
#: value's text and the closing separator (same bytes, same digest).
_ATOM_PREFIX = {
    cls: b"atom\x00" + cls.__name__.encode("utf-8") + b"\x00"
    for cls in (type(None), bool, int, float, str, bytes)
}
_STR_PREFIX = _ATOM_PREFIX[str]

#: Digests of exact-``str`` atoms: the same column values and ids
#: recur batch after batch.  Bounded; reaching the cap empties it.
_STR_DIGESTS: Dict[str, str] = {}
_STR_DIGESTS_CAP = 4096


def fingerprint_value(value: Any, _depth: int = 0) -> str:
    """Fingerprint an arbitrary argument or payload value.

    Containers recurse (so a list holding a lambda keys by the
    lambda's code, not its identity); plain data takes a pickle
    round-trip (stable for the simulation's lists, dataclasses and
    tables); unpicklable objects fall back to a structural digest of
    their attribute state (``__dict__`` plus ``__slots__`` across the
    MRO), counted as ``cache.fingerprint.fallback`` on traced runs.
    ``repr`` is never trusted for objects — it
    embeds memory addresses, which would silently break cross-run
    determinism.
    """
    cls = type(value)
    if cls is str:
        digest = _STR_DIGESTS.get(value)
        if digest is None:
            if len(_STR_DIGESTS) >= _STR_DIGESTS_CAP:
                _STR_DIGESTS.clear()
            data = _STR_PREFIX + value.encode("utf-8", "backslashreplace") + b"\x00"
            digest = hashlib.blake2b(data, digest_size=_DIGEST_BYTES).hexdigest()
            _STR_DIGESTS[value] = digest
        return digest
    prefix = _ATOM_PREFIX.get(cls)
    if prefix is not None:
        data = prefix + str(value).encode("utf-8", "backslashreplace") + b"\x00"
        return hashlib.blake2b(data, digest_size=_DIGEST_BYTES).hexdigest()
    if (cls is tuple or cls is list) and _depth < _MAX_DEPTH:
        # A string item the memo knows skips the call.
        memo = _STR_DIGESTS.get
        depth = _depth + 1
        return combine(
            "seq",
            cls.__name__,
            *[
                (type(item) is str and memo(item)) or fingerprint_value(item, depth)
                for item in value
            ],
        )
    # Subclasses of the atom types (``numpy.float64``, int enums), of
    # tuple and list, and everything else take the general path below.
    if isinstance(value, (bool, int, float, str, bytes)):
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
        _note_fallback("value")
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


#: Memoised immutable byte parts per code object.  ``repr(co_consts)``
#: dominates fingerprinting cost on submit-heavy runs; code objects are
#: immutable, so the derived bytes never go stale.  Keyed weakly so
#: short-lived lambdas don't accumulate.  Function-level attributes
#: (``__module__``/``__qualname__``/defaults/closures) are *not* cached
#: here — they are mutable and hashed fresh on every call.
_CODE_PARTS: "WeakKeyDictionary[Any, tuple]" = WeakKeyDictionary()


def _code_parts(code: Any) -> tuple:
    parts = _CODE_PARTS.get(code)
    if parts is None:
        parts = (
            code.co_code,
            repr(code.co_consts).encode("utf-8", "backslashreplace"),
            repr(code.co_names).encode("utf-8"),
        )
        _CODE_PARTS[code] = parts
    return parts


def fingerprint_function(fn: Any) -> str:
    """Fingerprint a callable by structure, not identity.

    Plain functions and lambdas hash their module, qualname, code
    bytes, defaults and (recursively) closure cells.  Bound methods
    include the fingerprint of ``__self__``.  Anything else (functools
    partials, callable instances) falls back to
    :func:`fingerprint_value` on its parts.
    """
    if hasattr(fn, "__func__") and hasattr(fn, "__self__"):
        return combine(
            "method",
            fingerprint_function(fn.__func__),
            fingerprint_value(fn.__self__),
        )
    code = getattr(fn, "__code__", None)
    if code is None:
        # Callable object / partial: hash its type and attributes.
        func = getattr(fn, "func", None)
        if func is not None and callable(func):  # functools.partial-like
            return combine(
                "partial",
                fingerprint_function(func),
                fingerprint_value(getattr(fn, "args", ())),
                fingerprint_value(sorted(getattr(fn, "keywords", {}).items())),
            )
        try:
            payload = pickle.dumps(fn, protocol=4)
        except _PICKLE_FAILURES:
            _note_fallback("callable")
            state = _instance_state(fn)
            return combine(
                "callable",
                type(fn).__module__,
                type(fn).__qualname__,
                fingerprint_value(state) if state else "",
            )
        return _digest(
            [b"callable", type(fn).__qualname__.encode("utf-8"), payload]
        )
    parts = [
        b"function",
        getattr(fn, "__module__", "?").encode("utf-8"),
        getattr(fn, "__qualname__", "?").encode("utf-8"),
        *_code_parts(code),
    ]
    defaults = getattr(fn, "__defaults__", None) or ()
    for default in defaults:
        parts.append(fingerprint_value(default).encode("ascii"))
    closure = getattr(fn, "__closure__", None) or ()
    for cell in closure:
        try:
            contents = cell.cell_contents
        except ValueError:  # empty cell
            parts.append(b"<empty-cell>")
            continue
        if callable(contents) and not isinstance(contents, type):
            parts.append(fingerprint_function(contents).encode("ascii"))
        else:
            parts.append(fingerprint_value(contents).encode("ascii"))
    return _digest(parts)
