"""Properties of the spec layer over random generated DAGs.

:mod:`repro.gen` produces seeded, self-contained,
valid-by-construction specs (random depth, fan-out, selectivity,
language mix, worker counts).  For any such spec:

* parsing is a bijection on canonical documents — ``from_json`` then
  ``to_json`` reproduces the document, and re-parsing yields a
  structurally equal spec;
* both compilation targets agree: the Ray-like script plan returns
  the same rows as the pipelined engine;
* neither a deterministic fault schedule nor the multi-tenant job
  service changes the answer: recovery replays and service indirection
  reproduce the direct run's rows exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.gen import GenConfig, generate_spec, random_spec
from repro.paradigm import run_both
from repro.sim import Environment
from repro.workflow import run_workflow
from repro.workflow.spec import WorkflowSpec, build_workflow, dump_spec_doc

SEEDS = st.integers(min_value=0, max_value=10_000)

#: Random-generator knob space: every combination must stay valid.
KNOBS = st.fixed_dictionaries(
    {
        "depth": st.integers(min_value=1, max_value=7),
        "max_sources": st.integers(min_value=1, max_value=4),
        "fan_out": st.floats(min_value=0.0, max_value=1.0),
        "selectivity": st.floats(min_value=0.0, max_value=1.0),
        "rows": st.integers(min_value=3, max_value=40),
    }
)


def engine_rows(workflow):
    result = run_workflow(build_cluster(Environment()), workflow)
    return result.table().multiset()


@given(seed=SEEDS)
@settings(max_examples=25, deadline=None)
def test_round_trip_preserves_structure(seed):
    doc = random_spec(seed)
    spec = WorkflowSpec.from_json(doc)
    assert spec.to_json()["operators"] == doc["operators"]
    again = WorkflowSpec.from_json(spec.to_json())
    assert again == spec
    assert again.to_json() == spec.to_json()


@given(seed=SEEDS, knobs=KNOBS)
@settings(max_examples=25, deadline=None)
def test_every_knob_combination_generates_a_valid_spec(seed, knobs):
    doc = generate_spec(GenConfig(seed=seed, **knobs))
    spec = WorkflowSpec.from_json(doc)  # structural validation runs here
    build_workflow(spec)  # and operator-level validation here
    assert dump_spec_doc(spec.to_json())  # strict JSON text, no NaN/Infinity


@given(seed=SEEDS)
@settings(max_examples=8, deadline=None)
def test_both_paradigms_collect_identical_rows(seed):
    workflow, script = run_both(random_spec(seed))
    assert script.rows == workflow.rows


@given(seed=SEEDS, fault_seed=st.integers(min_value=0, max_value=99))
@settings(max_examples=6, deadline=None)
def test_fault_recovery_preserves_generated_rows(seed, fault_seed):
    from repro.faults import FaultSchedule, faults_injected

    spec = WorkflowSpec.from_json(random_spec(seed))
    baseline = engine_rows(build_workflow(spec))
    schedule = FaultSchedule.from_spec(f"seed={fault_seed},tasks=2,horizon=30")
    with faults_injected(schedule):
        recovered = engine_rows(build_workflow(spec))
    assert recovered == baseline


@given(
    family=st.sampled_from(["stream", "smallsteps", "raster"]),
    paradigm=st.sampled_from(["workflow", "script"]),
)
@settings(max_examples=6, deadline=None)
def test_job_service_reproduces_direct_family_run(family, paradigm):
    from repro.config import JobsConfig
    from repro.gen import run_family
    from repro.jobs import JobService, JobSpec

    direct = run_family(family, paradigm=paradigm)
    job = JobService(JobsConfig(enabled=True)).run_job(
        JobSpec(tenant="props", body=f"gen/{family}/{paradigm}")
    )
    assert job.state == "completed", job.error
    assert job.result.value.rows == direct.rows
    assert job.result.value.elapsed_s == direct.elapsed_s
