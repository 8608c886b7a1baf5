"""``BulkDraws`` replays the legacy ``RandomState`` stream to the bit.

``generate_catalog`` draws its names, categories, prices and stock flags
from ``BulkDraws(seed)`` instead of scalar ``RandomState(seed)`` calls.
Each draw must equal the scalar call it stands for, in any interleaving,
and the catalogs must be the bytes they were before the helper existed.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_catalog, synth
from repro.datasets.synth import BulkDraws

#: sha256 of the catalog's product reprs, one per line, recorded with
#: scalar ``RandomState`` draws before ``BulkDraws`` existed.
CATALOG_SHA256 = {
    6800: "5423298202203abd16143103199db3c6db168d20c96a0e42f5c90f72550d13ca",
    68000: "fa4db8e377be264ce334a8a26418885a09aeea9702fbb8e92a169eaa89279859",
}

#: Range widths at the edges of masked rejection: one value (no word is
#: read), powers of two (no rejection) and one past them (the most).
widths = st.one_of(
    st.sampled_from([1, 2, 3, 2**31, 2**32]),
    st.integers(0, 32).map(lambda k: 2**k),
    st.integers(0, 31).map(lambda k: 2**k + 1),
    st.integers(1, 2**32),
)
lows = st.one_of(st.just(0), st.integers(-(2**40), 2**40))
bounds = st.floats(-1e6, 1e6, allow_nan=False)

draws = st.one_of(
    st.tuples(st.just("randint"), lows, widths),
    st.tuples(st.just("randint1"), widths),
    st.tuples(st.just("uniform"), bounds, bounds),
    st.tuples(st.just("uniform0")),
)


def replay(rng, calls):
    out = []
    for call in calls:
        kind = call[0]
        if kind == "randint":
            _, low, width = call
            out.append(int(rng.randint(low, low + width)))
        elif kind == "randint1":
            out.append(int(rng.randint(call[1])))
        elif kind == "uniform":
            out.append(float(rng.uniform(call[1], call[2])))
        else:
            out.append(float(rng.uniform()))
    return out


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(draws, max_size=60),
    chunk=st.sampled_from([1, 2, 7, 16384]),
)
def test_draws_equal_scalar_random_state_calls(seed, calls, chunk):
    expected = replay(np.random.RandomState(seed), calls)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_CHUNK", chunk)
        got = replay(BulkDraws(seed), calls)
    assert [x.hex() if isinstance(x, float) else x for x in got] == [
        x.hex() if isinstance(x, float) else x for x in expected
    ]


def test_a_one_value_range_reads_no_word(monkeypatch):
    monkeypatch.setattr(synth, "_CHUNK", 1)
    bulk, scalar = BulkDraws(4), np.random.RandomState(4)
    assert [bulk.randint(1) for _ in range(5)] == [scalar.randint(1) for _ in range(5)]
    assert bulk.randint(-3, -2) == scalar.randint(-3, -2) == -3
    assert bulk.randint(10) == scalar.randint(10)


@pytest.mark.parametrize("low, high", [(5, 5), (5, 4), (0, 2**32 + 1)])
def test_ranges_it_cannot_decode_are_refused(low, high):
    with pytest.raises(ValueError):
        BulkDraws(0).randint(low, high)


@pytest.mark.parametrize("size", sorted(CATALOG_SHA256))
def test_catalog_bytes_are_unchanged(size):
    products = generate_catalog(size)
    digest = hashlib.sha256("\n".join(map(repr, products)).encode()).hexdigest()
    assert digest == CATALOG_SHA256[size]
