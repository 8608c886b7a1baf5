"""Seeded open-loop traffic generator: Poisson arrivals, diurnal bursts.

The generator produces a deterministic arrival list from a
:class:`repro.config.JobsConfig` — *open loop* because arrival times
never depend on how fast the service drains the queue (the defining
property of production traffic, and the reason queueing latency blows
up past the saturation point instead of politely backing off).

Arrivals are a non-homogeneous Poisson process sampled by thinning
(Lewis & Shedler): candidate arrivals are drawn from a homogeneous
process at the peak rate, then each candidate is kept with probability
``rate(t) / peak_rate``.  The instantaneous rate is

``rate(t) = rate_per_s x (1 + diurnal * sin(2 pi t / diurnal_period))
x (1 + burst  if t is inside a burst window else 1)``

where a burst window is the first ``burst_duty`` fraction of every
``burst_period_s``.  Each :meth:`TrafficGenerator.arrivals` call is
driven by a *fresh* ``random.Random(seed)`` so the same config always
yields the same traffic — the determinism contract every layer of this
repo keeps — including on *repeated* calls (an earlier revision reused
one instance-level RNG, so a second call continued the stream and
silently produced different arrivals).

Majorant audit: thinning is only correct when the candidate rate
dominates ``rate_at(t)`` everywhere; otherwise arrivals in the exceeded
windows are silently under-sampled.  :attr:`TrafficGenerator.peak_rate`
is exact — ``sin <= 1`` bounds the diurnal factor by ``1 + diurnal``,
and the burst factor ``1 + burst`` is applied to the envelope whenever
``burst > 0`` (burst windows always exist for a positive duty cycle) —
and the sampling loop *checks* the bound on every candidate, raising
:class:`repro.errors.TrafficInvariantError` rather than degrading
silently if a future rate-shape change breaks it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from repro.config import JobsConfig
from repro.errors import TrafficInvariantError
from repro.jobs.bodies import GEN_BODIES
from repro.jobs.model import JobSpec

__all__ = ["Arrival", "TrafficGenerator", "merge_arrivals"]


@dataclass(frozen=True)
class Arrival:
    """One generated submission: when, and what."""

    time_s: float
    spec: JobSpec


class TrafficGenerator:
    """Deterministic open-loop arrival stream for one config."""

    def __init__(self, config: JobsConfig) -> None:
        self.config = config

    # -- rate shape --------------------------------------------------------

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (jobs per virtual second)."""
        config = self.config
        rate = config.rate_per_s
        if config.diurnal > 0.0:
            rate *= 1.0 + config.diurnal * math.sin(
                2.0 * math.pi * t / config.diurnal_period_s
            )
        if config.burst > 0.0 and self.in_burst(t):
            rate *= 1.0 + config.burst
        return max(rate, 0.0)

    def in_burst(self, t: float) -> bool:
        """True inside a burst window (first ``duty`` of each period)."""
        config = self.config
        phase = math.fmod(t, config.burst_period_s)
        return phase < config.burst_duty * config.burst_period_s

    @property
    def peak_rate(self) -> float:
        """Upper bound on :meth:`rate_at` (the thinning envelope)."""
        return self.config.peak_rate_per_s

    # -- sampling ----------------------------------------------------------

    def arrivals(self) -> List[Arrival]:
        """The full arrival list over ``horizon_s``, time-ordered.

        Deterministic per config *and per call*: every invocation
        reseeds from ``config.seed``, so calling this twice (or on two
        generators built from equal configs) yields identical lists.
        """
        config = self.config
        rng = random.Random(config.seed)
        peak = self.peak_rate
        out: List[Arrival] = []
        t = 0.0
        while True:
            # Homogeneous candidate at the peak rate ...
            t += rng.expovariate(peak)
            if t >= config.horizon_s:
                break
            # ... thinned down to the instantaneous rate.
            rate = self.rate_at(t)
            if rate > peak:
                raise TrafficInvariantError(
                    f"thinning majorant violated at t={t:.3f}s: "
                    f"rate_at={rate:.6f} > peak_rate={peak:.6f} "
                    f"(arrivals would be under-sampled)"
                )
            if rng.random() * peak > rate:
                continue
            out.append(Arrival(time_s=t, spec=self._draw_spec(rng)))
        return out

    def _draw_spec(self, rng: random.Random) -> JobSpec:
        config = self.config
        tenant = f"tenant-{rng.randrange(config.tenants)}"
        # Exponential duration jitter around the configured mean keeps
        # per-job service times varied but strictly positive.
        duration = max(1e-3, rng.expovariate(1.0 / config.duration_s))
        body = config.body
        if body == "gen":
            # Corpus mode: each arrival draws one generated family ×
            # paradigm body uniformly.  The extra RNG draw happens only
            # here, so every other body name keeps its exact stream.
            body = GEN_BODIES[rng.randrange(len(GEN_BODIES))]
        return JobSpec(
            tenant=tenant,
            body=body,
            cpus=config.cpus,
            ram_bytes=config.ram_bytes,
            duration_s=duration,
        )


def merge_arrivals(*streams: List[Arrival]) -> List[Arrival]:
    """Merge independently generated streams into one ordered list.

    Lets an experiment model asymmetric tenants (a flooding tenant and
    a trickling one) by generating each tenant's stream with its own
    config/seed and interleaving by arrival time.  Ties break by
    stream position, keeping the merge deterministic.
    """
    indexed = [
        (arrival.time_s, position, arrival)
        for position, stream in enumerate(streams)
        for arrival in stream
    ]
    indexed.sort(key=lambda item: (item[0], item[1]))
    return [arrival for _t, _p, arrival in indexed]
