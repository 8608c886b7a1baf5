"""The job service must be invisible until it multiplexes.

Two dormancy guarantees:

* **single job == direct run**: one job submitted by one tenant runs
  its task body on a fresh cluster exactly as the seed would — the
  body's measured virtual time equals the SEED_TIMINGS constant, and
  the output rows are identical to a direct run;
* **service accounting is separate**: the service cluster's clock
  advances by the body's elapsed time (the job occupies its
  reservation for exactly that long), with zero admission latency for
  an uncontended submission.
"""

from repro.jobs import JobService, JobSpec
from repro.jobs.bodies import TASK_BODIES
from repro.tasks.base import fresh_cluster
from repro.tasks.kge.common import make_kge_dataset
from repro.tasks.kge.script import run_kge_script
from tests.support.cells import SEED_TIMINGS


def test_single_job_task_timings_bit_identical_to_seed():
    # A body's name is its pinned cell's SEED_TIMINGS key; a task body
    # registered outside the table has no key and fails the pin.
    for body in TASK_BODIES:
        service = JobService()
        job = service.run_job(JobSpec(body=body))
        assert job.state == "completed", job.error
        assert job.result.run.elapsed_s == SEED_TIMINGS[body], body
        # The body's virtual time is the job's occupancy on the
        # service cluster; an uncontended job waits zero.
        assert job.queue_latency_s == 0.0
        assert service.env.now == SEED_TIMINGS[body]


def test_single_job_outputs_identical_to_direct_run():
    direct = run_kge_script(
        fresh_cluster(), make_kge_dataset(300, universe_size=1000)
    )
    job = JobService().run_job(JobSpec(body="kge/script"))
    assert job.result.run.output.rows == direct.output.rows
    assert job.result.run.elapsed_s == direct.elapsed_s
