"""Traffic generator: determinism, rate shape, thinning correctness."""

from dataclasses import replace

import pytest

from repro.config import JobsConfig
from repro.errors import JobsSpecError
from repro.jobs import Arrival, JobSpec, TrafficGenerator, merge_arrivals
from repro.jobs.spec import parse_jobs_spec

BASE = JobsConfig(seed=7, rate_per_s=20.0, horizon_s=10.0, tenants=3)


def test_same_seed_same_arrivals():
    assert TrafficGenerator(BASE).arrivals() == TrafficGenerator(BASE).arrivals()


def test_different_seed_different_arrivals():
    other = replace(BASE, seed=8)
    assert TrafficGenerator(BASE).arrivals() != TrafficGenerator(other).arrivals()


def test_arrivals_ordered_within_horizon_with_sane_count():
    arrivals = TrafficGenerator(BASE).arrivals()
    times = [a.time_s for a in arrivals]
    assert times == sorted(times)
    assert all(0.0 < t < BASE.horizon_s for t in times)
    # ~200 expected; Poisson noise stays well inside a factor of two.
    assert 100 < len(arrivals) < 400


def test_specs_draw_from_the_config():
    arrivals = TrafficGenerator(BASE).arrivals()
    tenants = {a.spec.tenant for a in arrivals}
    assert tenants <= {f"tenant-{i}" for i in range(BASE.tenants)}
    assert len(tenants) > 1  # really spread over the population
    assert all(a.spec.duration_s > 0.0 for a in arrivals)
    assert all(a.spec.cpus == BASE.cpus for a in arrivals)
    assert all(a.spec.body == BASE.body for a in arrivals)


# -- rate shape ---------------------------------------------------------------


def test_flat_config_rate_is_constant():
    gen = TrafficGenerator(BASE)
    assert gen.rate_at(0.0) == gen.rate_at(5.0) == BASE.rate_per_s
    assert gen.peak_rate == BASE.rate_per_s


def test_burst_window_multiplies_the_rate():
    config = replace(
        BASE, burst=2.0, burst_period_s=100.0, burst_duty=0.1
    )
    gen = TrafficGenerator(config)
    assert gen.in_burst(5.0) and not gen.in_burst(50.0)
    assert gen.in_burst(105.0)  # windows repeat every period
    assert gen.rate_at(5.0) == 60.0
    assert gen.rate_at(50.0) == 20.0


def test_diurnal_sine_modulates_the_rate():
    config = replace(BASE, diurnal=0.5, diurnal_period_s=100.0)
    gen = TrafficGenerator(config)
    assert gen.rate_at(25.0) == 30.0  # sine peak: x1.5
    assert abs(gen.rate_at(75.0) - 10.0) < 1e-9  # trough: x0.5
    assert gen.rate_at(0.0) == 20.0


def test_peak_rate_bounds_the_instantaneous_rate():
    config = replace(
        BASE, burst=1.5, burst_period_s=60.0, burst_duty=0.2,
        diurnal=0.8, diurnal_period_s=40.0,
    )
    gen = TrafficGenerator(config)
    for t in range(0, 120):
        assert gen.rate_at(float(t)) <= gen.peak_rate + 1e-9


@pytest.mark.parametrize(
    "spec", ["on,rate=1e308,horizon=1", "on,rate=1e5,horizon=6,burst=1"]
)
def test_a_spec_expecting_too_many_arrivals_is_rejected(spec):
    # TrafficGenerator.arrivals would draw ~1e308 (or ~1.2e6) candidates.
    with pytest.raises(JobsSpecError, match="expected arrivals"):
        parse_jobs_spec(spec)


def test_the_largest_committed_flood_is_valid():
    # bench's jobs_flood: 400 jobs/s over 3.3 s.
    assert TrafficGenerator(parse_jobs_spec("on,rate=400,horizon=3.3")).peak_rate == 400.0


def test_bursty_config_still_deterministic_and_denser():
    config = replace(BASE, burst=3.0, burst_period_s=5.0, burst_duty=0.5)
    first = TrafficGenerator(config).arrivals()
    assert first == TrafficGenerator(config).arrivals()
    assert len(first) > len(TrafficGenerator(BASE).arrivals())


def test_repeated_calls_on_one_generator_are_identical():
    # Regression: arrivals() used to draw from a shared instance RNG, so
    # a second call on the same generator continued the stream and
    # silently produced a different (shorter or longer) arrival list.
    gen = TrafficGenerator(replace(BASE, burst=3.0, burst_period_s=5.0, burst_duty=0.5))
    first = gen.arrivals()
    assert gen.arrivals() == first
    assert gen.arrivals() == first  # and a third time


def test_bursty_arrival_counts_are_pinned():
    # Pinned counts guard the whole sampling path: candidate draws,
    # thinning decisions and spec draws all consume the same RNG stream,
    # so any change to the drawing order shows up here immediately.
    bursty = replace(BASE, burst=3.0, burst_period_s=5.0, burst_duty=0.5)
    assert len(TrafficGenerator(bursty).arrivals()) == 539
    assert len(TrafficGenerator(BASE).arrivals()) == 213
    rich = replace(
        BASE, burst=1.5, burst_period_s=6.0, burst_duty=0.25,
        diurnal=0.6, diurnal_period_s=8.0,
    )
    assert len(TrafficGenerator(rich).arrivals()) == 335


def test_thinning_keeps_burst_windows_denser():
    # The Lewis-Shedler majorant must dominate rate_at(t) everywhere or
    # burst windows get silently under-sampled; with a correct envelope
    # the in-window density tracks the 1 + burst factor.
    config = replace(BASE, burst=3.0, burst_period_s=5.0, burst_duty=0.5)
    gen = TrafficGenerator(config)
    arrivals = gen.arrivals()
    inside = sum(1 for a in arrivals if gen.in_burst(a.time_s))
    outside = len(arrivals) - inside
    # Expected ratio 4:1 (burst=3.0); Poisson noise stays well clear of 2:1.
    assert inside > 2 * outside


def test_gen_corpus_mode_spreads_over_family_bodies():
    from repro.jobs.bodies import GEN_BODIES

    arrivals = TrafficGenerator(replace(BASE, body="gen")).arrivals()
    bodies = {a.spec.body for a in arrivals}
    assert bodies <= set(GEN_BODIES)
    assert len(bodies) == len(GEN_BODIES)  # ~200 draws cover all six
    # Corpus mode is deterministic like everything else.
    assert arrivals == TrafficGenerator(replace(BASE, body="gen")).arrivals()


# -- merging ------------------------------------------------------------------


def test_merge_orders_by_time():
    a = [Arrival(1.0, JobSpec(tenant="a")), Arrival(3.0, JobSpec(tenant="a"))]
    b = [Arrival(2.0, JobSpec(tenant="b"))]
    merged = merge_arrivals(a, b)
    assert [arrival.spec.tenant for arrival in merged] == ["a", "b", "a"]


def test_merge_ties_break_by_stream_position():
    a = [Arrival(1.0, JobSpec(tenant="a"))]
    b = [Arrival(1.0, JobSpec(tenant="b"))]
    assert [x.spec.tenant for x in merge_arrivals(a, b)] == ["a", "b"]
    assert [x.spec.tenant for x in merge_arrivals(b, a)] == ["b", "a"]
