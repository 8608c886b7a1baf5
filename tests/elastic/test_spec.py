"""Spec grammar, shape catalogue and the install pattern of repro.elastic."""

import json
from dataclasses import asdict

import pytest

from repro.config import ElasticConfig
from repro.elastic import (
    MACHINE_SHAPES,
    current_elastic_config,
    elastic_enabled,
    install_elastic,
    machine_shape,
    parse_elastic_spec,
    uninstall_elastic,
)
from repro.elastic.spec import ELASTIC_GRAMMAR
from repro.errors import ElasticSpecError


def test_defaults_are_dormant():
    config = ElasticConfig()
    assert not config.enabled
    assert parse_elastic_spec("off") == config


def test_parse_all_keys():
    config = parse_elastic_spec(
        "on,min=2,max=16,interval=0.5,provision=3,up=6,load=0.8,ram=0.7,"
        "idle=2,cooldown=4,step=3,shape=fast,drain=off"
    )
    assert config.enabled
    assert config.min_nodes == 2
    assert config.max_nodes == 16
    assert config.interval_s == 0.5
    assert config.provision_s == 3.0
    assert config.up_queue_per_node == 6.0
    assert config.up_load == 0.8
    assert config.up_ram == 0.7
    assert config.idle_s == 2.0
    assert config.cooldown_s == 4.0
    assert config.step == 3
    assert config.shape == "fast"
    assert not config.drain


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "maybe",
        "on,,max=4",
        "on,max=nope",
        "on,bogus=1",
        "on,shape=warp9",
        "on,drain=perhaps",
        "on,min=3,max=2",  # config validation surfaces as a spec error
    ],
)
def test_bad_specs_raise(bad):
    with pytest.raises(ElasticSpecError):
        parse_elastic_spec(bad)


def test_shape_catalogue():
    assert set(MACHINE_SHAPES) == {"default", "fast", "slow", "highmem"}
    assert machine_shape("fast").num_cpus == 16
    with pytest.raises(ElasticSpecError):
        machine_shape("warp9")


def test_json_round_trip():
    config = parse_elastic_spec("on,min=2,max=6,shape=highmem")
    assert ElasticConfig(**json.loads(json.dumps(asdict(config)))) == config


def test_describe_mentions_the_bounds_and_shape():
    text = ELASTIC_GRAMMAR.describe(parse_elastic_spec("on,min=2,max=6,shape=fast"))
    assert "\n  min=2 " in text and "\n  max=6 " in text
    assert "\n  shape=fast " in text
    assert text.startswith("elastic: on\n")
    assert ELASTIC_GRAMMAR.describe(ElasticConfig()).startswith("elastic: off (dormant)\n")


def test_install_pattern():
    assert current_elastic_config() is None
    try:
        installed = install_elastic("on,max=6")
        assert current_elastic_config() is installed
        assert installed.max_nodes == 6
    finally:
        uninstall_elastic()
    assert current_elastic_config() is None


def test_context_manager_restores_previous():
    with elastic_enabled("on,max=4") as outer:
        assert current_elastic_config() is outer
        with elastic_enabled(ElasticConfig(enabled=True, max_nodes=2)) as inner:
            assert current_elastic_config() is inner
        assert current_elastic_config() is outer
    assert current_elastic_config() is None


def test_context_manager_validates_eagerly():
    with pytest.raises(ElasticSpecError):
        with elastic_enabled("on,shape=warp9"):
            raise AssertionError("spec typo must fail before the body runs")
