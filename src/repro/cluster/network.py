"""Intra-cluster network model.

Transfers between distinct nodes pay latency plus bytes/bandwidth;
loopback (same node) transfers are free, matching how both Ray and
Texera short-circuit local data movement.

The model is contention-free per transfer (GCP intra-zone links are far
from saturated by these workloads); what matters to the reproduced
experiments is the *size-proportional* cost of shipping models and tuple
batches between machines.
"""

from __future__ import annotations

from typing import Generator

from repro.config import NetworkConfig
from repro.sim import Environment

__all__ = ["Network"]


class Network:
    """Uniform full-mesh network between cluster nodes."""

    def __init__(self, env: Environment, config: NetworkConfig) -> None:
        self.env = env
        self.config = config
        self.bytes_moved = 0
        self.transfers = 0

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Virtual seconds to move ``nbytes`` from ``src`` to ``dst``."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src == dst:
            return 0.0
        return self.config.transfer_time(nbytes)

    def transfer(self, src: str, dst: str, nbytes: int) -> Generator:
        """Simulation process performing the transfer.

        A transfer starting inside a link-degradation window (injected
        by :mod:`repro.faults`) takes ``factor`` times longer; the
        factor is sampled once at transfer start, which keeps the
        charge deterministic for transfers straddling a window edge.
        """
        duration = self.transfer_time(src, dst, nbytes)
        factor = self.env.faults.link_factor(self.env.now)
        tracer = self.env.tracer
        span = None
        if src != dst:
            self.bytes_moved += nbytes
            self.transfers += 1
            if tracer.enabled:
                link = f"{src}->{dst}"
                tracer.metrics.counter("network.bytes", link=link).add(nbytes)
                tracer.metrics.counter("network.transfers", link=link).inc()
                span = tracer.start(
                    "transfer", category="network", node=src, dst=dst, nbytes=nbytes
                )
                if factor > 1.0:
                    span.attrs["degraded_factor"] = factor
                    tracer.metrics.counter("faults.link_slowdown_s").add(
                        duration * (factor - 1.0)
                    )
        try:
            if duration > 0:
                yield self.env.timeout(duration * factor)
        finally:
            if span is not None:
                tracer.end(span)
        return nbytes
