"""The shared layer scaffolding: ``repro.layer.Grammar`` and ``Slot``."""

import re
from typing import Any, Callable, NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache, cached
from repro.cache.spec import CACHE_GRAMMAR
from repro.cluster import build_cluster
from repro.config import CacheConfig, ElasticConfig, JobsConfig, MemoryConfig
from repro.elastic import elastic_enabled, parse_elastic_spec
from repro.elastic.spec import ELASTIC_GRAMMAR, MACHINE_SHAPES
from repro.faults import NULL_INJECTOR, FaultInjector, FaultSchedule, faults_injected
from repro.jobs import JobService
from repro.jobs.spec import JOBS_GRAMMAR
from repro.layer import Field, Grammar, Slot, choice, finite, on_off, size
from repro.mem import memory_managed
from repro.mem.spec import MEM_GRAMMAR
from repro.obs import NULL_TRACER, Tracer, tracing
from repro.sched import POLICIES, Scheduler, scheduling
from repro.sim import Environment


class ToySpecError(Exception):
    pass


def _positive(**kwargs):
    if kwargs.get("count", 1) < 1:
        raise ValueError("count must be >= 1")
    return kwargs


TOY = Grammar(
    noun="toy",
    error=ToySpecError,
    flags="switch the toy on / off",
    fields=(
        Field("count", "count", int, "N", "how many (default 1)"),
        Field("ratio", "ratio", finite, "F", "a finite fraction"),
        Field("cap", "cap_bytes", size, "SIZE", "a byte size"),
        Field("drain", "drain", on_off, "on|off", "a boolean"),
        Field("c", "count", int),
        Field(
            "colour",
            "colour",
            choice({"red", "blue"}.__contains__, "no such colour {!r}"),
            "NAME",
            "red or blue",
        ),
    ),
    example="--toy on,count=2",
    width=12,
)


# -- Grammar ------------------------------------------------------------------


def test_parse_maps_keys_to_attributes_and_flags_to_enabled():
    assert TOY.parse(" ON , Count = 3 ,cap=2kib, drain=off ,colour=red") == {
        "enabled": True,
        "count": 3,
        "cap_bytes": 2048,
        "drain": False,
        "colour": "red",
    }
    assert TOY.parse("off,c=2,count=5") == {"enabled": False, "count": 5}


@pytest.mark.parametrize(
    "spec, message",
    [
        ("", "empty toy spec"),
        ("   ", "empty toy spec"),
        ("on,,off", "empty fragment in toy spec 'on,,off'"),
        ("banana", "unknown toy spec flag 'banana' (want 'on', 'off' or key=value)"),
        ("bogus=1", "unknown toy spec key 'bogus'"),
        ("count=lots", "bad value for toy spec key 'count': 'lots'"),
        ("drain=maybe", "bad value for toy spec key 'drain': 'maybe'"),
        ("cap=lots", "bad size 'lots' (want e.g. '2GiB', '512MiB')"),
        ("cap=-1", "size must be positive: '-1'"),
        ("colour=green", "no such colour 'green'"),
    ],
)
def test_the_shared_error_messages(spec, message):
    with pytest.raises(ToySpecError) as excinfo:
        TOY.parse(spec)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "spec", ["ratio=nan", "ratio=inf", "ratio=-inf", "cap=inf", "cap=nan", "cap=1e400"]
)
def test_non_finite_numbers_are_bad_values(spec):
    with pytest.raises(ToySpecError):
        TOY.parse(spec)


def test_a_grammar_without_flags_takes_key_value_pairs_only():
    pairs = Grammar("pair", ToySpecError, TOY.fields)
    assert pairs.parse("count=2") == {"count": 2}
    with pytest.raises(ToySpecError) as excinfo:
        pairs.parse("count=2,on")
    assert str(excinfo.value) == "bad pair spec fragment 'on' (want key=value)"


def test_build_rebrands_the_factory_value_error():
    assert TOY.build("count=2", _positive) == {"count": 2}
    with pytest.raises(ToySpecError, match="count must be >= 1"):
        TOY.build("count=0", _positive)


def test_help_is_rendered_from_the_same_table():
    assert TOY.help() == (
        "spec grammar: comma-separated flags and key=value pairs\n"
        "  on | off    switch the toy on / off\n"
        "  count=N     how many (default 1)\n"
        "  ratio=F     a finite fraction\n"
        "  cap=SIZE    a byte size\n"
        "  drain=on|offa boolean\n"
        "  colour=NAME red or blue\n"
        "example: --toy on,count=2"
    )
    # every visible key the help names is one the parser accepts
    for field in TOY.fields:
        assert (f"  {field.key}=" in TOY.help()) == bool(field.metavar)


#: ``(default X)`` in a help line; the colon form ``(default: memory
#: policy's)`` is prose and does not match.
STATED_DEFAULT = re.compile(r"\(default ([^)]+)\)")

#: Each layer grammar that builds a config dataclass, with that class.
GRAMMARS = (
    (MEM_GRAMMAR, MemoryConfig),
    (CACHE_GRAMMAR, CacheConfig),
    (JOBS_GRAMMAR, JobsConfig),
    (ELASTIC_GRAMMAR, ElasticConfig),
)

STATED_DEFAULTS = [
    pytest.param(field, config, id=f"{grammar.noun}-{field.key}")
    for grammar, config in GRAMMARS
    for field in grammar.fields
    if STATED_DEFAULT.search(field.help)
]


@pytest.mark.parametrize("field, config", STATED_DEFAULTS)
def test_help_states_the_default_the_config_dataclass_has(field, config):
    """The help lines restate the dataclass defaults by hand; this is
    what keeps the two from drifting."""
    (stated,) = STATED_DEFAULT.findall(field.help)
    assert field.convert(stated) == getattr(config(), field.attr)


def test_the_stated_defaults_are_actually_being_checked():
    assert len(STATED_DEFAULTS) >= 30


# -- describe -----------------------------------------------------------------

DESCRIBED = [pytest.param(grammar, config, id=grammar.noun) for grammar, config in GRAMMARS]

#: Values of the ``NAME`` rows the configs check; other names are free text.
NAMES = {"policy": ("fifo", "drf"), "placement": tuple(POLICIES), "shape": tuple(MACHINE_SHAPES)}


def _texts(field):
    """Spellings a user might type for ``field``, most of them valid."""
    if field.convert is on_off:
        return st.sampled_from(["on", "off", "yes", "0", "TRUE"])
    if field.metavar == "SIZE":
        return st.integers(1, 2**40).map(str) | st.sampled_from(
            ["2gib", "512MiB", "1.5gb", "3k", "1234567", "0.5KiB"]
        )
    if field.metavar == "NAME":
        if field.key in NAMES:
            return st.sampled_from(NAMES[field.key])
        return st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
    if field.convert is int:
        return st.integers(0, 64).map(str)
    if field.metavar in ("F", "FRACTION"):
        return st.floats(0.01, 1.0).map(repr) | st.sampled_from(["0.5", "1", ".25"])
    return st.floats(0.0, 1e6).map(repr) | st.sampled_from(["1e3", "7", "0.0001"])


def _pasted_back(grammar, config):
    """The on/off word and the printed ``key=value`` rows, parsed again."""
    header, *rows = grammar.describe(config).splitlines()
    assert header == f"{grammar.noun}: " + ("on" if config.enabled else "off (dormant)")
    assert len(rows) == sum(1 for field in grammar.fields if field.metavar)
    labels = [row.split()[0] for row in rows]
    spec = ",".join([header.split()[1]] + [label for label in labels if "=" in label])
    return grammar.build(spec, type(config))


@pytest.mark.parametrize("grammar, config", DESCRIBED)
def test_the_default_config_reads_back_from_its_description(grammar, config):
    assert _pasted_back(grammar, config()) == config()
    assert _pasted_back(grammar, config(enabled=True)) == config(enabled=True)


@pytest.mark.parametrize("grammar, config", DESCRIBED)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_described_config_reads_back_from_its_rows(grammar, config, data):
    visible = [field for field in grammar.fields if field.metavar]
    flag = data.draw(st.sampled_from(["on", "off"]))
    values = data.draw(
        st.fixed_dictionaries({}, optional={f.key: _texts(f) for f in visible})
    )
    spec = ",".join([flag] + [f"{key}={text}" for key, text in values.items()])
    try:
        described = grammar.build(spec, config)
    except grammar.error:
        assume(False)
    assert _pasted_back(grammar, described) == described


def test_sizes_print_exactly():
    config = MemoryConfig(node_ram_bytes=1234567, spill_write_bytes_per_s=3 * 2**30)
    rows = MEM_GRAMMAR.describe(config).splitlines()
    assert rows[1].split()[0] == "ram=1234567"
    assert rows[4].split()[0] == "write_bw=3GiB"


# -- Slot ---------------------------------------------------------------------


def _even(value):
    if value % 2:
        raise ValueError(f"odd: {value}")
    return value * 10


def test_install_coerces_and_current_falls_back_to_the_default():
    slot = Slot(_even, default="null")
    assert slot.current() == "null"
    assert slot.install(2) == 20
    assert slot.current() == 20
    slot.uninstall()
    assert slot.current() == "null"


def test_install_validates_eagerly_and_leaves_the_slot_untouched():
    slot = Slot(_even)
    slot.install(2)
    with pytest.raises(ValueError):
        slot.install(3)
    assert slot.current() == 20
    with pytest.raises(ValueError):
        with slot.scoped(3):
            pytest.fail("scope entered with a bad value")
    assert slot.current() == 20


def test_nested_scopes_restore_the_previous_value_also_on_exception():
    slot = Slot(_even)
    with slot.scoped(2) as outer:
        assert outer == slot.current() == 20
        with pytest.raises(RuntimeError):
            with slot.scoped(4) as inner:
                assert inner == slot.current() == 40
                raise RuntimeError("boom")
        assert slot.current() == 20
    assert slot.current() is None


# -- the one order ------------------------------------------------------------


class Row(NamedTuple):
    """One slot-backed layer, seen through the constructor that resolves it."""

    scope: Callable  # the layer's ``with`` helper
    installed: Any  # what is handed to ``scope``
    explicit: Any  # what is handed to ``resolve``
    expected: Any  # what ``explicit`` resolves to
    resolve: Callable[[Any], Any]  # explicit argument (or None) -> resolved value
    is_dormant: Callable[[Any], bool]


def _cluster(**layer):
    return build_cluster(Environment(), **layer)


_TRACER, _INJECTOR, _CACHE = Tracer(), FaultInjector(FaultSchedule()), ResultCache(CacheConfig())
_RAM_123 = MemoryConfig(node_ram_bytes=123)

LAYERS = {
    "obs": Row(
        tracing, Tracer(), _TRACER, _TRACER,
        lambda tracer: _cluster(tracer=tracer).tracer,
        lambda tracer: tracer is NULL_TRACER,
    ),
    "faults": Row(
        faults_injected, FaultSchedule(), _INJECTOR, _INJECTOR,
        lambda faults: _cluster(faults=faults).faults,
        lambda faults: faults is NULL_INJECTOR,
    ),
    "sched": Row(
        scheduling, "least_loaded", "packed", "packed",
        lambda policy: Scheduler(_cluster(), policy=policy).policy.name,
        lambda name: name == "round_robin",
    ),
    "mem": Row(
        memory_managed, "on", _RAM_123, _RAM_123,
        lambda memory: _cluster(memory=memory).memory.config,
        lambda config: config == MemoryConfig(),
    ),
    # The installed cache is empty, hence falsy: it must still win.
    "cache": Row(
        cached, "on", _CACHE, _CACHE,
        lambda cache: _cluster(cache=cache).cache,
        lambda cache: not cache.active and len(cache) == 0,
    ),
    "elastic": Row(
        elastic_enabled, "on,min=1,max=8", "on,max=4", parse_elastic_spec("on,max=4"),
        lambda elastic: JobService(cluster=_cluster(), elastic=elastic).elastic,
        lambda config: config == ElasticConfig(),
    ),
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_explicit_beats_installed_beats_dormant(layer):
    row = LAYERS[layer]
    assert row.is_dormant(row.resolve(None))
    assert row.resolve(row.explicit) == row.expected
    with row.scope(row.installed) as installed:
        assert not row.is_dormant(installed)
        assert row.resolve(None) == installed
        assert row.resolve(row.explicit) == row.expected
        with row.scope(row.explicit):
            assert row.resolve(None) == row.expected
        assert row.resolve(None) == installed
    assert row.is_dormant(row.resolve(None))
