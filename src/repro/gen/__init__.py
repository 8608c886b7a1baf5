"""Seeded workload generation: random specs + generated task families.

ROADMAP's "scenario diversity" layer.  Everything here produces valid
``repro/workflow-spec@1`` documents (:mod:`repro.workflow.spec`), so a
generated workload is data, not code: it validates and compiles to
*both* paradigms like any hand-written spec.

* :mod:`generator` — the seeded random-DAG generator, parameterized by
  depth / fan-out / selectivity / language mix / data size
  (:class:`GenConfig`); the backbone of the property-based tests.
* :mod:`families` — three curated task families (``stream``,
  ``smallsteps``, ``raster``) exercising paradigm differences the four
  paper tasks don't reach.
* :mod:`operators` — the custom spec types the families reference
  (``micro_batch_source``, ``raster_source``); the operator registry
  imports it the first time a spec names one.
* :mod:`spec` — the ``repro gen`` CLI grammar.

Dormant by default: nothing in the engines imports this package; it
only runs when explicitly invoked (CLI ``gen``, gen-named job bodies,
E11, the property suites).
"""

from repro.gen.families import (
    FAMILIES,
    family_catalogue,
    family_spec,
    run_family,
)
from repro.gen.generator import CATEGORIES, GenConfig, generate_spec, random_spec
from repro.gen.spec import GenRequest, describe_gen, parse_gen_spec

__all__ = [
    "CATEGORIES",
    "FAMILIES",
    "GenConfig",
    "GenRequest",
    "describe_gen",
    "family_catalogue",
    "family_spec",
    "generate_spec",
    "parse_gen_spec",
    "random_spec",
    "run_family",
]
