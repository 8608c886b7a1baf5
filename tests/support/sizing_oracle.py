"""The recursive structural walk, frozen as the sizing oracle.

A verbatim copy of ``repro.cluster.serialization.estimate_bytes`` as it
stood before it priced rows itself (one Python call per value, every
row's ``Schema`` re-walked through ``__slots__`` / ``__dict__``).  It is
the reference the kernel is held to, integer for integer; it
recurses into itself only, so nothing the kernel learns can leak in.
"""

from repro.cluster import Sized

_OBJECT_OVERHEAD = 16
_ENTRY_OVERHEAD = 8
_SCALAR_SIZES = {type(None): 4, bool: 4, int: 8, float: 8}


def walk_bytes(obj):
    cls = type(obj)
    size = _SCALAR_SIZES.get(cls)
    if size is not None:
        return size
    if cls is tuple or cls is list:
        total = _OBJECT_OVERHEAD
        for item in obj:
            total += _ENTRY_OVERHEAD + walk_bytes(item)
        return total
    if cls is str:
        return _OBJECT_OVERHEAD + len(obj)
    if obj is None:
        return 4
    if isinstance(obj, Sized):
        return obj.payload_bytes()
    if isinstance(obj, bool):
        return 4
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, str):
        return _OBJECT_OVERHEAD + len(obj)
    if isinstance(obj, (bytes, bytearray)):
        return _OBJECT_OVERHEAD + len(obj)
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return _OBJECT_OVERHEAD + nbytes
    if isinstance(obj, dict):
        total = _OBJECT_OVERHEAD
        for key, value in obj.items():
            total += _ENTRY_OVERHEAD + walk_bytes(key) + walk_bytes(value)
        return total
    if isinstance(obj, (list, tuple, set, frozenset)):
        total = _OBJECT_OVERHEAD
        for item in obj:
            total += _ENTRY_OVERHEAD + walk_bytes(item)
        return total
    state = getattr(obj, "__dict__", None)
    if state:
        return _OBJECT_OVERHEAD + walk_bytes(state)
    slots = getattr(obj, "__slots__", None)
    if slots:
        total = _OBJECT_OVERHEAD
        for name in slots:
            if hasattr(obj, name):
                total += _ENTRY_OVERHEAD + walk_bytes(getattr(obj, name))
        return total
    return _OBJECT_OVERHEAD
