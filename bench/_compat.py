"""The one private-attribute read the benchmark needs.

Everything else in ``bench/`` goes through ``repro``'s public
functions.  ``Environment`` has no public counter of how many events
the kernel scheduled, so — exactly as ``benchmarks/bench_kernel.py``
does — the final sequence number is read from ``Environment._sequence``.
A later issue should add a public accessor (``Environment.events_scheduled``)
and this module should then shrink to a call of it.
"""


def events_scheduled(env) -> int:
    """Total events the kernel scheduled on ``env`` (exact, virtual)."""
    return env._sequence
