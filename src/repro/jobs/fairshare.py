"""Per-tenant quotas and weighted hierarchical fair-share ordering.

Admission answers two questions per pending job:

* *May this tenant run more right now?* — the quota check
  (:meth:`FairShare.quota_blocked`): hard per-tenant ceilings on
  concurrently running jobs, vCPUs and RAM.
* *Who goes first?* — the ordering (:meth:`FairShare.merge`):
  ``fifo`` is submission order; ``drf`` orders pending jobs by their
  tenant's *dominant share* — the larger of the tenant's vCPU and RAM
  fraction of the whole cluster — so the tenant consuming the least
  of its bottleneck resource is served first (Ghodsi et al.'s
  dominant resource fairness, applied to admission ordering).

Tenant names are hierarchical: ``team-a/alice`` charges usage to both
``team-a`` and ``team-a/alice``, and the DRF sort key compares shares
level by level — groups compete first, then users within a group.
Ties break by submission order, so the ordering is deterministic.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.jobs.model import SUBMISSION_SEQ, Job

__all__ = ["TenantAccount", "FairShare", "tenant_levels"]


def tenant_levels(tenant: str) -> List[str]:
    """Hierarchy prefixes of a tenant name, outermost first.

    >>> tenant_levels("team-a/alice")
    ['team-a', 'team-a/alice']
    """
    parts = tenant.split("/")
    return ["/".join(parts[: i + 1]) for i in range(len(parts))]


#: Memoised :func:`tenant_levels`: each tenant's tuple is built once.
_levels = lru_cache(maxsize=4096)(lambda tenant: tuple(tenant_levels(tenant)))


class TenantAccount:
    """Running-resource usage charged to one hierarchy level."""

    __slots__ = ("name", "running", "cpus", "ram_bytes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.running = 0
        self.cpus = 0
        self.ram_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TenantAccount {self.name}: {self.running} running, "
            f"{self.cpus} vCPUs, {self.ram_bytes} B>"
        )


class FairShare:
    """Quota enforcement + admission ordering over tenant accounts."""

    def __init__(
        self,
        policy: str = "drf",
        total_cpus: int = 0,
        total_ram_bytes: int = 0,
        quota_running: Optional[int] = None,
        quota_cpus: Optional[int] = None,
        quota_ram_bytes: Optional[int] = None,
    ) -> None:
        if policy not in ("fifo", "drf"):
            raise ValueError(f"policy must be 'fifo' or 'drf', got {policy!r}")
        self.policy = policy
        self.total_cpus = total_cpus
        self.total_ram_bytes = total_ram_bytes
        self.quota_running = quota_running
        self.quota_cpus = quota_cpus
        self.quota_ram_bytes = quota_ram_bytes
        self._accounts: Dict[str, TenantAccount] = {}

    # -- accounts ----------------------------------------------------------

    def account(self, level: str) -> TenantAccount:
        existing = self._accounts.get(level)
        if existing is None:
            existing = self._accounts[level] = TenantAccount(level)
        return existing

    def charge(self, job: Job) -> None:
        """A job started running: charge every hierarchy level."""
        for level in _levels(job.spec.tenant):
            account = self.account(level)
            account.running += 1
            account.cpus += job.spec.cpus
            account.ram_bytes += job.spec.ram_bytes

    def release(self, job: Job) -> None:
        """A running job reached a terminal state: refund the charge."""
        for level in _levels(job.spec.tenant):
            account = self.account(level)
            account.running -= 1
            account.cpus -= job.spec.cpus
            account.ram_bytes -= job.spec.ram_bytes

    # -- quotas ------------------------------------------------------------

    def quota_blocked(self, job: Job) -> Optional[str]:
        """Why the job may not start now, or ``None`` if quotas allow it.

        Quotas apply at every hierarchy level — a group ceiling caps
        the sum of its users.
        """
        for level in _levels(job.spec.tenant):
            account = self._accounts.get(level)
            running = account.running if account else 0
            cpus = account.cpus if account else 0
            ram = account.ram_bytes if account else 0
            if self.quota_running is not None and running >= self.quota_running:
                return f"{level}: running quota ({self.quota_running}) reached"
            if self.quota_cpus is not None and cpus + job.spec.cpus > self.quota_cpus:
                return f"{level}: vCPU quota ({self.quota_cpus}) would be exceeded"
            if (
                self.quota_ram_bytes is not None
                and ram + job.spec.ram_bytes > self.quota_ram_bytes
            ):
                return (
                    f"{level}: RAM quota ({self.quota_ram_bytes} B) would be exceeded"
                )
        return None

    # -- ordering ----------------------------------------------------------

    def dominant_share(self, level: str) -> float:
        """The level's dominant share: max of vCPU and RAM fraction."""
        account = self._accounts.get(level)
        if account is None:
            return 0.0
        cpu_share = (
            account.cpus / self.total_cpus if self.total_cpus > 0 else 0.0
        )
        ram_share = (
            account.ram_bytes / self.total_ram_bytes
            if self.total_ram_bytes > 0
            else 0.0
        )
        return max(cpu_share, ram_share)

    def share_key(self, tenant: str) -> Tuple[float, ...]:
        """Hierarchical DRF sort key: dominant share per level."""
        return tuple(self.dominant_share(level) for level in _levels(tenant))

    def merge(
        self, streams: Mapping[str, Iterable[Job]], seq=SUBMISSION_SEQ
    ) -> Iterator[Job]:
        """Lazy admission order over per-tenant submission-ordered streams.

        A tenant's waiting jobs share one key, so ``drf`` is the streams
        merged on ``(share_key(tenant), seq)`` (``fifo``: ``seq`` alone) —
        no sort.  Valid until the next charge, release or transition.
        """
        if self.policy == "fifo":
            return heapq.merge(*streams.values(), key=seq)
        shares = {tenant: self.share_key(tenant) for tenant in streams}
        return heapq.merge(
            *streams.values(), key=lambda job: (shares[job.spec.tenant], seq(job))
        )

    def ordering(self, pending: List[Job]) -> List[Job]:
        """:meth:`merge` over a flat list that is in submission order."""
        position = {job: index for index, job in enumerate(pending)}
        streams: Dict[str, List[Job]] = {}
        for job in pending:
            streams.setdefault(job.spec.tenant, []).append(job)
        return list(self.merge(streams, seq=position.__getitem__))

    # -- telemetry ---------------------------------------------------------

    def shares(self) -> Dict[str, float]:
        """Current dominant share per account (leaf and group levels)."""
        return {
            name: self.dominant_share(name) for name in sorted(self._accounts)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FairShare policy={self.policy!r} {len(self._accounts)} accounts>"
