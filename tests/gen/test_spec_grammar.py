"""The ``repro gen`` spec grammar: parsing, defaults, errors."""

import re

import pytest

from repro.cli import GEN_SPEC_HELP
from repro.errors import GenSpecError
from repro.gen import GenConfig, GenRequest, describe_gen, parse_gen_spec


def test_empty_spec_is_all_defaults():
    assert parse_gen_spec("") == GenRequest()


#: ``key=... (default X)`` lines of the help block, as ``key=X`` specs.
STATED_DEFAULTS = [
    f"{key}={value}"
    for key, value in re.findall(
        r"^  (\w+)=.*\(default ([^):]+)\)$", GEN_SPEC_HELP, re.MULTILINE
    )
]


@pytest.mark.parametrize("spec", STATED_DEFAULTS)
def test_help_states_the_defaults_the_request_has(spec):
    """Setting a key to the default its help line states changes nothing."""
    assert parse_gen_spec(spec) == GenRequest()


def test_the_help_states_nine_defaults():
    assert len(STATED_DEFAULTS) == 9


def test_full_spec_round_trips_every_field():
    request = parse_gen_spec(
        "seed=3,count=5,family=raster,scale=2.5,run=off,emit=/tmp/x.json"
    )
    assert request.seed == 3
    assert request.count == 5
    assert request.family == "raster"
    assert request.scale == 2.5
    assert request.run is False
    assert request.emit == "/tmp/x.json"


def test_knobs_land_in_the_config():
    request = parse_gen_spec(
        "seed=2,depth=6,sources=2,fanout=0.1,selectivity=0.9,rows=20"
    )
    assert request.config == GenConfig(
        seed=2, depth=6, max_sources=2, fan_out=0.1, selectivity=0.9, rows=20
    )


def test_whitespace_and_empty_parts_are_tolerated():
    assert parse_gen_spec(" seed = 4 , , count = 2 ").seed == 4


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("seed=x", "integer"),
        ("count=0", ">= 1"),
        ("family=zzz", "unknown family"),
        ("scale=0", "> 0"),
        ("scale=nan", "finite"),
        ("family=raster,scale=inf", "finite"),
        ("family=stream,fanout=-inf", "finite"),
        ("run=maybe", "on or off"),
        ("emit=", "file path"),
        ("nonsense=1", "unknown key"),
        ("flagonly", "key=value"),
        ("depth=0", "depth"),
    ],
)
def test_malformed_specs_raise_gen_spec_error(spec, fragment):
    with pytest.raises(GenSpecError, match=fragment):
        parse_gen_spec(spec)


def test_describe_names_the_source_and_seeds():
    text = describe_gen(parse_gen_spec("family=stream,count=3,seed=2"))
    assert "stream" in text
    assert "2..4" in text
    text = describe_gen(parse_gen_spec("depth=6"))
    assert "random" in text and "depth=6" in text
