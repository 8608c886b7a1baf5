"""Fair-share ledger: hierarchical accounts, quotas, DRF ordering."""

import pytest

from repro.config import GIB
from repro.jobs import FairShare, Job, JobQueue, JobSpec, tenant_levels


def make_job(tenant="tenant-0", cpus=1, ram=1 * GIB, job_id="job-000000"):
    return Job(job_id, JobSpec(tenant=tenant, cpus=cpus, ram_bytes=ram), 0.0)


def test_tenant_levels_expand_hierarchy():
    assert tenant_levels("alice") == ["alice"]
    assert tenant_levels("team-a/alice") == ["team-a", "team-a/alice"]
    assert tenant_levels("org/team/user") == ["org", "org/team", "org/team/user"]


def test_tenant_levels_returns_a_fresh_list_each_call():
    # The level tuples are memoised; a caller's edit must not leak.
    tenant_levels("team-a/alice").append("oops")
    assert tenant_levels("team-a/alice") == ["team-a", "team-a/alice"]


def test_policy_must_be_fifo_or_drf():
    with pytest.raises(ValueError, match="sjf"):
        FairShare(policy="sjf")


def test_charge_hits_every_hierarchy_level_and_release_refunds():
    fs = FairShare(total_cpus=32, total_ram_bytes=256 * GIB)
    job = make_job(tenant="team-a/alice", cpus=4, ram=8 * GIB)
    fs.charge(job)
    for level in ("team-a", "team-a/alice"):
        account = fs.account(level)
        assert (account.running, account.cpus, account.ram_bytes) == (
            1, 4, 8 * GIB,
        )
    fs.release(job)
    for level in ("team-a", "team-a/alice"):
        account = fs.account(level)
        assert (account.running, account.cpus, account.ram_bytes) == (0, 0, 0)


# -- quotas -------------------------------------------------------------------


def test_running_quota_blocks_at_ceiling():
    fs = FairShare(quota_running=1)
    fs.charge(make_job())
    reason = fs.quota_blocked(make_job(job_id="job-000001"))
    assert reason is not None and "running quota" in reason
    assert fs.quota_blocked(make_job(tenant="other")) is None


def test_cpu_quota_counts_the_new_demand():
    fs = FairShare(quota_cpus=4)
    fs.charge(make_job(cpus=3))
    assert fs.quota_blocked(make_job(cpus=2)) is not None  # 3+2 > 4
    assert fs.quota_blocked(make_job(cpus=1)) is None      # 3+1 == 4


def test_ram_quota_counts_the_new_demand():
    fs = FairShare(quota_ram_bytes=4 * GIB)
    fs.charge(make_job(ram=3 * GIB))
    assert fs.quota_blocked(make_job(ram=2 * GIB)) is not None
    assert fs.quota_blocked(make_job(ram=1 * GIB)) is None


def test_group_quota_caps_the_sum_of_its_users():
    fs = FairShare(quota_cpus=4)
    fs.charge(make_job(tenant="team/alice", cpus=3))
    # bob alone is fine, but the shared "team" level is at 3 of 4.
    reason = fs.quota_blocked(make_job(tenant="team/bob", cpus=2))
    assert reason is not None and reason.startswith("team:")


# -- ordering -----------------------------------------------------------------


def test_fifo_keeps_submission_order():
    fs = FairShare(policy="fifo", total_cpus=8, total_ram_bytes=8 * GIB)
    fs.charge(make_job(tenant="hog", cpus=6))
    pending = [
        make_job(tenant="hog", job_id="job-000001"),
        make_job(tenant="idle", job_id="job-000002"),
    ]
    assert fs.ordering(pending) == pending


def test_drf_serves_the_lowest_dominant_share_first():
    fs = FairShare(policy="drf", total_cpus=8, total_ram_bytes=8 * GIB)
    fs.charge(make_job(tenant="hog", cpus=6, ram=1 * GIB))
    pending = [
        make_job(tenant="hog", job_id="job-000001"),
        make_job(tenant="idle", job_id="job-000002"),
    ]
    ordered = fs.ordering(pending)
    assert [job.spec.tenant for job in ordered] == ["idle", "hog"]


def test_drf_dominant_share_is_max_of_cpu_and_ram():
    fs = FairShare(total_cpus=8, total_ram_bytes=8 * GIB)
    # cpu-heavy: 4/8 cpus but 1/8 ram -> dominant 0.5
    fs.charge(make_job(tenant="cpu-heavy", cpus=4, ram=1 * GIB))
    # ram-heavy: 1/8 cpus but 6/8 ram -> dominant 0.75
    fs.charge(make_job(tenant="ram-heavy", cpus=1, ram=6 * GIB))
    assert fs.dominant_share("cpu-heavy") == 0.5
    assert fs.dominant_share("ram-heavy") == 0.75
    assert fs.dominant_share("never-seen") == 0.0


def test_drf_ties_break_by_submission_order():
    fs = FairShare(policy="drf", total_cpus=8, total_ram_bytes=8 * GIB)
    pending = [
        make_job(tenant="b", job_id="job-000000"),
        make_job(tenant="a", job_id="job-000001"),
    ]
    # Equal (zero) shares: the stable sort must keep submission order.
    assert fs.ordering(pending) == pending


def test_merge_ties_break_on_the_submission_sequence_not_the_id_string():
    # "job-1000000" sorts before "job-999999" as a string; the merge
    # must compare the integer sequence the queue assigned.
    queue = JobQueue()
    queue._next_id = 999_999
    jobs = [queue.submit(JobSpec(tenant=t), now=0.0) for t in ("b", "a", "b")]
    assert [job.job_id for job in jobs] == [
        "job-999999", "job-1000000", "job-1000001",
    ]
    for policy in ("fifo", "drf"):
        fs = FairShare(policy=policy, total_cpus=8, total_ram_bytes=8 * GIB)
        assert list(fs.merge(queue.streams)) == jobs


def test_merge_is_lazy_and_evaluates_one_key_per_tenant():
    queue = JobQueue()
    for index in range(300):
        queue.submit(JobSpec(tenant=f"t{index % 3}"), now=0.0)
    fs = FairShare(policy="drf", total_cpus=8, total_ram_bytes=8 * GIB)
    calls = []
    fs.share_key = lambda tenant: calls.append(tenant) or (0.0,)
    order = fs.merge(queue.streams)
    assert next(order).job_id == "job-000000"
    assert sorted(calls) == ["t0", "t1", "t2"]


def test_hierarchical_key_compares_groups_before_users():
    fs = FairShare(policy="drf", total_cpus=8, total_ram_bytes=8 * GIB)
    fs.charge(make_job(tenant="big/alice", cpus=4))
    pending = [
        make_job(tenant="big/bob", job_id="job-000001"),     # group at 0.5
        make_job(tenant="small/carol", job_id="job-000002"),  # group at 0
    ]
    ordered = fs.ordering(pending)
    assert [job.spec.tenant for job in ordered] == [
        "small/carol", "big/bob",
    ]


def test_shares_lists_every_account():
    fs = FairShare(total_cpus=8, total_ram_bytes=8 * GIB)
    fs.charge(make_job(tenant="team/alice", cpus=2))
    assert fs.shares() == {"team": 0.25, "team/alice": 0.25}
