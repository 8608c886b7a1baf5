"""The seeded random-workflow generator: validity, determinism, knobs.

The acceptance bar — distinct seeds each produce a document that
validates, compiles to both paradigms and collects identical row
multisets, the contract the ``cli-smoke`` CI job's ``repro gen
count=10`` step enforces — runs on the cell matrix's forty seeds
(``tests/test_laws.py``).
"""

import pytest

from repro.errors import GenSpecError
from repro.gen import GenConfig, generate_spec, random_spec
from repro.workflow.spec import WorkflowSpec, dump_spec_doc


def test_same_seed_same_document():
    assert random_spec(7) == random_spec(7)
    assert generate_spec(GenConfig(seed=7)) == generate_spec(GenConfig(seed=7))


def test_different_seeds_differ():
    docs = [random_spec(seed) for seed in range(10)]
    assert len({str(doc) for doc in docs}) > 1


def test_knobs_steer_the_shape():
    # Stage count per spec is drawn in [1, depth], so compare totals
    # over a seed range rather than one draw.
    def total_ops(depth):
        return sum(
            len(generate_spec(GenConfig(seed=s, depth=depth))["operators"])
            for s in range(10)
        )

    assert total_ops(7) > total_ops(1)
    wide = generate_spec(GenConfig(seed=0, max_sources=4, fan_out=0.0))
    sources = [
        op for op in wide["operators"] if op["type"] == "jsonl_source"
    ]
    assert 1 <= len(sources) <= 4


@pytest.mark.parametrize(
    "bad",
    [
        {"depth": 0},
        {"max_sources": 0},
        {"fan_out": 1.5},
        {"fan_out": -0.1},
        {"selectivity": 2.0},
        {"rows": 2},
        {"languages": ()},
    ],
)
def test_bad_knobs_raise_gen_spec_error(bad):
    with pytest.raises(GenSpecError):
        GenConfig(seed=0, **bad)


def test_generated_documents_serialize_strictly():
    for seed in range(5):
        text = dump_spec_doc(WorkflowSpec.from_json(random_spec(seed)).to_json())
        assert "NaN" not in text and "Infinity" not in text
