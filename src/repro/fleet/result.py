"""Fleet results: shard summaries, merged percentiles, stable digests.

A fleet run reduces to one :class:`ShardResult` per shard — mergeable
log-scale service-time histograms split by rearrangement on/off days,
plus per-device request totals — and :class:`FleetResult` folds those
into fleet-wide answers: p50/p95/p99 service time, the on-vs-off
improvement, per-shard load skew.

The digest deliberately excludes execution details (worker count, retry
policy, chaos): it is a function of :class:`~repro.fleet.spec.FleetSpec`
alone, which is what lets the bench gate pin one committed digest and
the regression tests assert ``workers=1`` equals ``workers=8`` — and a
chaos run equals a fault-free one — bit for bit.

The one exception is degradation: when shards fail permanently (their
retries exhausted under ``on_error="skip"``/``"degrade"``), the result
is *partial* — it carries a failed-shard manifest
(:class:`ShardFailure`: shard id, devices, seed, attempts, last error),
its percentiles cover completed shards only, and both the payload and
the rendered report say so loudly.  A degraded digest therefore differs
from the complete one by construction: partial answers must never be
mistaken for whole ones.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..stats.report import coverage_note
from ..stats.streaming import LogHistogram, merge_histograms
from .spec import FleetSpec

__all__ = [
    "FleetResult",
    "ShardFailure",
    "ShardResult",
    "render_fleet",
    "spec_payload",
]


def spec_payload(spec: FleetSpec) -> dict:
    """Canonical JSON-able identity of a fleet spec.

    Everything that affects results and nothing that does not — shared
    by :meth:`FleetResult.payload` and the checkpoint journal header
    (:func:`repro.fleet.checkpoint.spec_digest`), so a journal binds to
    exactly the spec identity the digest pins.

    The rearrangement ``policy`` enters the payload only when set: the
    default (``None`` → nightly) is omitted so every digest minted
    before the policy knob existed stays bit-identical.  Every fleet
    device runs organ-pipe placement under a SCAN queue; those two keys
    stay as literals for the same reason.
    """
    payload = {
        "devices": spec.devices,
        "disk": spec.disk,
        "days": list(spec.resolved_schedule()),
        "hours": spec.hours,
        "devices_per_shard": spec.devices_per_shard,
        "num_blocks": spec.num_blocks,
        "counter": spec.counter,
        "placement_policy": "organ-pipe",
        "queue_policy": "scan",
        "seed": spec.seed,
        "tenancy": {
            "tenants": spec.tenancy.tenants,
            "tenant_skew": spec.tenancy.tenant_skew,
            "hot_set_overlap": spec.tenancy.hot_set_overlap,
            "sessions_per_tenant_hour": (
                spec.tenancy.sessions_per_tenant_hour
            ),
            "opens_per_tenant_hour": spec.tenancy.opens_per_tenant_hour,
            "files_per_tenant": spec.tenancy.files_per_tenant,
            "user_locality": spec.tenancy.user_locality,
            "profile": spec.tenancy.profile,
        },
    }
    if spec.policy is not None:
        from ..policy import resolve_policy

        payload["policy"] = resolve_policy(spec.policy).payload()
    return payload


@dataclass(frozen=True)
class ShardFailure:
    """One shard that exhausted its retries (the failed-shard manifest).

    Everything an operator needs to re-run the shard serially: which
    shard, which devices, which seed, how many attempts were burned, and
    what the last attempt died of (``kind`` is ``"exception"`` /
    ``"timeout"`` / ``"worker-death"``).
    """

    index: int
    devices: tuple[str, ...]
    seed: int
    attempts: int
    kind: str
    error: str

    def payload(self) -> dict:
        return {
            "index": self.index,
            "devices": list(self.devices),
            "seed": self.seed,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
        }


@dataclass
class ShardResult:
    """One shard's aggregated outcome (the only thing workers ship back)."""

    index: int
    seed: int
    device_requests: dict[str, int]
    service_on: LogHistogram
    service_off: LogHistogram
    rearranged_blocks: int
    """Blocks sitting in the shard's reserved areas after the last day."""
    days: int
    events: int = 0
    """Simulation events dispatched across the shard's whole schedule."""

    @property
    def requests(self) -> int:
        return sum(self.device_requests.values())

    @property
    def devices(self) -> int:
        return len(self.device_requests)

    @property
    def skew(self) -> float:
        """Load imbalance inside the shard: max/mean device requests."""
        if not self.device_requests:
            return 0.0
        values = list(self.device_requests.values())
        mean = sum(values) / len(values)
        return max(values) / mean if mean > 0 else 0.0

    def payload(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "device_requests": {
                name: self.device_requests[name]
                for name in sorted(self.device_requests)
            },
            "service_on": self.service_on.payload(),
            "service_off": self.service_off.payload(),
            "rearranged_blocks": self.rearranged_blocks,
            "days": self.days,
            "events": self.events,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardResult":
        """Rebuild a shard result from its :meth:`payload` form.

        Exact inverse: JSON floats round-trip with ``repr`` semantics
        and the histograms rebuild bin-for-bin, so a shard loaded from a
        checkpoint journal contributes the identical bytes to the fleet
        digest as the freshly computed original.
        """
        return cls(
            index=int(payload["index"]),
            seed=int(payload["seed"]),
            device_requests={
                name: int(count)
                for name, count in payload["device_requests"].items()
            },
            service_on=LogHistogram.from_payload(payload["service_on"]),
            service_off=LogHistogram.from_payload(payload["service_off"]),
            rearranged_blocks=int(payload["rearranged_blocks"]),
            days=int(payload["days"]),
            events=int(payload["events"]),
        )


@dataclass
class FleetResult:
    """A whole fleet day (or days), aggregated from shard results."""

    spec: FleetSpec
    shards: list[ShardResult]
    workers: int | None = None
    """How many worker processes executed the run — recorded for bench
    metadata, excluded from :meth:`payload` and :meth:`digest`."""
    failures: list[ShardFailure] = field(default_factory=list)
    """Shards that exhausted their retries and were dropped (empty for a
    complete run).  Non-empty failures mark the result :attr:`degraded`
    and *do* enter the payload/digest: a partial answer must not hash
    like a whole one."""
    retried_tasks: int = 0
    """Shard attempts that failed but were retried (execution detail,
    excluded from the digest — a retried success is bit-identical)."""
    _service_on: LogHistogram | None = field(
        default=None, repr=False, compare=False
    )
    _service_off: LogHistogram | None = field(
        default=None, repr=False, compare=False
    )

    # -- merged distributions -------------------------------------------

    @property
    def service_on(self) -> LogHistogram:
        """Fleet-wide service times on rearranged days (completed shards)."""
        if self._service_on is None:
            self._service_on = (
                merge_histograms(shard.service_on for shard in self.shards)
                if self.shards
                else LogHistogram()
            )
        return self._service_on

    @property
    def service_off(self) -> LogHistogram:
        """Fleet-wide service times on unrearranged (training) days."""
        if self._service_off is None:
            self._service_off = (
                merge_histograms(shard.service_off for shard in self.shards)
                if self.shards
                else LogHistogram()
            )
        return self._service_off

    def service_percentile_ms(self, q: float, rearranged: bool = True) -> float:
        hist = self.service_on if rearranged else self.service_off
        return hist.percentile(q)

    @property
    def p50_ms(self) -> float:
        return self.service_percentile_ms(0.50)

    @property
    def p95_ms(self) -> float:
        return self.service_percentile_ms(0.95)

    @property
    def p99_ms(self) -> float:
        return self.service_percentile_ms(0.99)

    @property
    def onoff_service_delta(self) -> float:
        """Fractional mean-service-time reduction, rearranged vs not."""
        off = self.service_off.mean_ms
        if off == 0:
            return 0.0
        return 1.0 - self.service_on.mean_ms / off

    # -- fleet totals ----------------------------------------------------

    @property
    def devices(self) -> int:
        return sum(shard.devices for shard in self.shards)

    @property
    def total_requests(self) -> int:
        return sum(shard.requests for shard in self.shards)

    @property
    def events(self) -> int:
        return sum(shard.events for shard in self.shards)

    @property
    def rearranged_blocks(self) -> int:
        return sum(shard.rearranged_blocks for shard in self.shards)

    def shard_skews(self) -> dict[int, float]:
        return {shard.index: shard.skew for shard in self.shards}

    # -- degradation -----------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when the run lost shards: percentiles are partial."""
        return bool(self.failures)

    @property
    def failed_shards(self) -> int:
        return len(self.failures)

    @property
    def total_shards(self) -> int:
        return len(self.shards) + len(self.failures)

    # -- stable identity -------------------------------------------------

    def payload(self) -> dict:
        """Canonical JSON-able form; a pure function of the spec.

        For a complete run the payload (and so the digest) depends on
        the spec alone — worker count, retries, chaos all excluded.  A
        degraded run adds a ``"failures"`` manifest and a ``"degraded"``
        marker, so partial results are distinguishable by digest.
        """
        payload = {
            "spec": spec_payload(self.spec),
            "shards": [shard.payload() for shard in self.shards],
            "summary": {
                "devices": self.devices,
                "total_requests": self.total_requests,
                "rearranged_blocks": self.rearranged_blocks,
                "p50_ms": self.p50_ms,
                "p95_ms": self.p95_ms,
                "p99_ms": self.p99_ms,
            },
        }
        if self.failures:
            payload["degraded"] = True
            payload["failures"] = [
                failure.payload()
                for failure in sorted(self.failures, key=lambda f: f.index)
            ]
        return payload

    def digest(self) -> str:
        """``sha256:<hex>`` over the canonical payload JSON."""
        from ..bench.digest import canonical_json

        encoded = canonical_json(self.payload()).encode("utf-8")
        return "sha256:" + hashlib.sha256(encoded).hexdigest()


def render_fleet(result: FleetResult) -> str:
    """Human-readable fleet summary (the ``repro fleet`` output).

    A degraded run is annotated twice: a leading ``DEGRADED`` banner
    naming the lost shards, and a coverage note on the percentile lines
    — partial percentiles must never read like fleet-wide ones.
    """
    spec = result.spec
    degraded_note = ""
    if result.degraded:
        degraded_note = " " + coverage_note(
            len(result.shards), result.total_shards, what="shard"
        )
    lines = [
        f"fleet: {spec.devices} x {spec.disk} devices, "
        f"{result.total_requests} requests over "
        f"{len(spec.resolved_schedule())} days "
        f"({spec.tenancy.tenants} tenants, "
        f"overlap {spec.tenancy.hot_set_overlap:.2f})",
        f"  shards: {len(result.shards)} x {spec.devices_per_shard} devices"
        + (f", {result.workers} worker(s)" if result.workers else "")
        + (
            f", {result.retried_tasks} retried attempt(s)"
            if result.retried_tasks
            else ""
        ),
    ]
    if result.degraded:
        failed = ", ".join(
            f"shard {failure.index} ({failure.kind}: {failure.error}, "
            f"{failure.attempts} attempts)"
            for failure in sorted(result.failures, key=lambda f: f.index)
        )
        lines.append(
            f"  DEGRADED: {result.failed_shards}/{result.total_shards} "
            f"shard(s) failed permanently — {failed}"
        )
    lines += [
        "  service time (rearranged days): "
        f"p50 {result.p50_ms:.1f} ms, p95 {result.p95_ms:.1f} ms, "
        f"p99 {result.p99_ms:.1f} ms" + degraded_note,
        "  service time (off days):        "
        f"p50 {result.service_percentile_ms(0.50, rearranged=False):.1f} ms, "
        f"p95 {result.service_percentile_ms(0.95, rearranged=False):.1f} ms, "
        f"p99 {result.service_percentile_ms(0.99, rearranged=False):.1f} ms"
        + degraded_note,
        f"  mean service delta (on vs off): "
        f"{100.0 * result.onoff_service_delta:+.1f}%",
        f"  rearranged blocks resident: {result.rearranged_blocks}",
    ]
    skews = sorted(result.shard_skews().values())
    if skews:
        lines.append(
            "  per-shard load skew (max/mean): "
            f"min {skews[0]:.2f}, median {skews[len(skews) // 2]:.2f}, "
            f"max {skews[-1]:.2f}"
        )
    lines.append(f"  digest: {result.digest()}")
    return "\n".join(lines)
