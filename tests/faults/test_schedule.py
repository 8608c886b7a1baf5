"""Unit tests for deterministic fault schedules."""

import json

import pytest

from repro.errors import FaultSpecError
from repro.faults import FAULT_KINDS, FaultEvent, FaultSchedule


def test_generate_is_deterministic():
    a = FaultSchedule.generate(seed=7, horizon_s=30.0, tasks=3, nodes=2, links=1)
    b = FaultSchedule.generate(seed=7, horizon_s=30.0, tasks=3, nodes=2, links=1)
    assert a.events == b.events
    assert a.seed == b.seed == 7


def test_generate_differs_across_seeds():
    a = FaultSchedule.generate(seed=7, horizon_s=30.0, tasks=3)
    b = FaultSchedule.generate(seed=8, horizon_s=30.0, tasks=3)
    assert a.events != b.events


def test_generate_counts_per_kind():
    schedule = FaultSchedule.generate(
        seed=1, tasks=2, operators=3, nodes=1, links=2, replicas=1
    )
    counts = {kind: len(schedule.of_kind(kind)) for kind in FAULT_KINDS}
    assert counts == {
        "task": 2,
        "operator": 3,
        "node": 1,
        "link": 2,
        "replica": 1,
        "oom": 0,
    }


def test_events_sorted_by_time():
    schedule = FaultSchedule.generate(seed=3, tasks=4, nodes=2, links=2)
    times = [event.at_s for event in schedule]
    assert times == sorted(times)


def test_timestamps_land_inside_horizon():
    schedule = FaultSchedule.generate(seed=5, horizon_s=100.0, tasks=10)
    for event in schedule:
        assert 0.05 * 100.0 <= event.at_s <= 0.95 * 100.0


def test_json_round_trip():
    schedule = FaultSchedule.generate(
        seed=7, tasks=2, nodes=1, links=1, replicas=1, note="round-trip"
    )
    data = json.loads(json.dumps(schedule.to_json()))  # through real JSON
    restored = FaultSchedule.from_json(data)
    assert restored == schedule


def test_from_json_rejects_malformed():
    with pytest.raises(FaultSpecError, match="malformed"):
        FaultSchedule.from_json({"seed": 1})
    with pytest.raises(FaultSpecError, match="malformed"):
        FaultSchedule.from_json({"events": [{"bogus": 1}]})


def test_from_spec_parses_counts_and_seed():
    schedule = FaultSchedule.from_spec("seed=7,tasks=2,nodes=1,horizon=40")
    assert schedule.seed == 7
    assert len(schedule.of_kind("task")) == 2
    assert len(schedule.of_kind("node")) == 1
    assert schedule.note == "seed=7,tasks=2,nodes=1,horizon=40"


def test_from_spec_ops_alias_and_targets():
    schedule = FaultSchedule.from_spec("seed=1,ops=2,operator_target=extract*")
    operators = schedule.of_kind("operator")
    assert len(operators) == 2
    assert all(event.target == "extract*" for event in operators)


def test_from_spec_equals_generate():
    assert FaultSchedule.from_spec("seed=7,tasks=2").events == FaultSchedule.generate(
        seed=7, tasks=2
    ).events


@pytest.mark.parametrize(
    "spec, message",
    [
        ("", "empty fault spec"),
        ("tasks=2", "needs a seed"),
        ("seed=7,tasks", "bad fault spec fragment"),
        ("seed=7,bogus=1", "unknown fault spec key"),
        ("seed=seven", "bad value"),
        ("seed=7,tasks=lots", "bad value"),
        # Used to pass with no faults, or name the derived event time.
        ("seed=1,horizon=-1", "horizon: must be >= 0"),
        ("seed=1,ooms=1,oom_factor=0", "oom factor must be >= 1"),
    ],
)
def test_from_spec_rejects_bad_input(spec, message):
    with pytest.raises(FaultSpecError, match=message):
        FaultSchedule.from_spec(spec)


def test_from_spec_reads_json_file(tmp_path):
    schedule = FaultSchedule.generate(seed=9, tasks=1, links=1)
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(schedule.to_json()), encoding="utf-8")
    assert FaultSchedule.from_spec(str(path)) == schedule


def test_from_spec_missing_json_file():
    with pytest.raises(FaultSpecError, match="cannot read"):
        FaultSchedule.from_spec("/nonexistent/faults.json")


def test_event_validation():
    with pytest.raises(FaultSpecError, match="unknown fault kind"):
        FaultEvent(1.0, "meteor")
    with pytest.raises(FaultSpecError, match=">= 0"):
        FaultEvent(-1.0, "task")
    with pytest.raises(FaultSpecError, match="factor"):
        FaultEvent(1.0, "link", factor=0.5)
    with pytest.raises(FaultSpecError, match="negative duration"):
        FaultEvent(1.0, "node", duration_s=-1.0)
    with pytest.raises(FaultSpecError, match="negative delay"):
        FaultEvent(1.0, "task", delay_s=-0.1)


def test_of_kind_rejects_unknown():
    with pytest.raises(FaultSpecError, match="unknown fault kind"):
        FaultSchedule.empty().of_kind("meteor")


def test_empty_schedule_is_falsy():
    assert not FaultSchedule.empty()
    assert len(FaultSchedule.empty()) == 0
    assert bool(FaultSchedule.generate(seed=1, tasks=1))


def test_describe_lists_every_event():
    schedule = FaultSchedule.generate(
        seed=7, tasks=1, operators=1, nodes=1, links=1, replicas=1, ooms=1, note="demo"
    )
    text = schedule.describe()
    assert "6 events" in text and "seed=7" in text and "note: demo" in text
    for kind in FAULT_KINDS:
        assert kind in text
