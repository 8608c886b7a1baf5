"""The three generated task families: shape, determinism, paradigm parity."""

import pytest

from repro.errors import GenSpecError
from repro.gen import FAMILIES, family_catalogue, family_spec, run_family
from repro.workflow.spec import WorkflowSpec


def test_catalogue_names_every_family():
    text = family_catalogue()
    for name in ("stream", "smallsteps", "raster"):
        assert name in FAMILIES
        assert name in text


def test_unknown_family_raises_with_the_catalogue():
    with pytest.raises(GenSpecError, match="stream"):
        family_spec("nope")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_specs_validate(family):
    spec = WorkflowSpec.from_json(family_spec(family, seed=3))
    assert spec.operators and spec.links


def test_smallsteps_is_a_deep_chain():
    spec = WorkflowSpec.from_json(family_spec("smallsteps"))
    assert len(spec.operators) >= 30
    # A chain: every operator has at most one consumer.
    consumers = [link.producer_id for link in spec.links]
    assert len(consumers) == len(set(consumers))


def test_stream_uses_micro_batch_source():
    spec = WorkflowSpec.from_json(family_spec("stream"))
    assert any(op.type == "micro_batch_source" for op in spec.operators)


def test_raster_uses_raster_source_and_drops_blobs():
    spec = WorkflowSpec.from_json(family_spec("raster"))
    assert any(op.type == "raster_source" for op in spec.operators)
    assert any(op.type == "projection" for op in spec.operators)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_paradigms_agree_per_family(family):
    workflow = run_family(family, paradigm="workflow")
    script = run_family(family, paradigm="script")
    assert workflow.rows == script.rows
    assert len(workflow.rows) > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_runs_are_deterministic(family):
    first = run_family(family, paradigm="workflow")
    second = run_family(family, paradigm="workflow")
    assert first == second


def test_scale_grows_the_workload():
    small = WorkflowSpec.from_json(family_spec("smallsteps", scale=1.0))
    large = WorkflowSpec.from_json(family_spec("smallsteps", scale=2.0))
    assert len(large.operators) > len(small.operators)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scale_is_capped_per_family_before_anything_is_built(family):
    _, _, max_scale = FAMILIES[family]
    assert max_scale >= 64  # the largest size the benchmark runs
    assert family_spec(family, scale=max_scale)["operators"]
    for scale in (max_scale * 1.01, 1e300, float("nan")):
        with pytest.raises(GenSpecError, match="scale"):
            family_spec(family, scale=scale)


def test_unknown_paradigm_is_rejected():
    with pytest.raises(GenSpecError, match="paradigm"):
        run_family("stream", paradigm="notebook")
