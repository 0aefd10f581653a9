"""The fleet spec's identity bytes are pinned.

Fleet digests and checkpoint-journal headers both hash
``canonical_json(spec_payload(spec))``.  Changing which fields a
``FleetSpec`` carries must not change those bytes for any spec that can
still be written, or every committed fleet digest and every journal on
disk would silently stop matching.
"""

import hashlib

import pytest

from repro.bench.digest import canonical_json
from repro.fleet import FleetSpec
from repro.fleet.result import spec_payload
from repro.workload.tenancy import TenancySpec

PINNED = {
    "default": (
        FleetSpec(),
        "4c4bb5cb8dbeb4800961fa22c0d95ed4fa1c3d8b3b3d8c36508e929d28d50813",
    ),
    # The quick ``fleet_day`` bench scenario's spec.
    "fleet_day_quick": (
        FleetSpec(
            devices=64,
            disk="fujitsu",
            days=2,
            hours=0.05,
            devices_per_shard=8,
            tenancy=TenancySpec(tenants=256),
            seed=1993,
        ),
        "88da926bd2398205528489bbf2dda5fc89db520635b3b77233783724248569a0",
    ),
    "online": (
        FleetSpec(policy="online"),
        "db1f5be17fae9d73caf57621ea48a94ba626e7a35f1b2d8a1cb1e76a6fa68611",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_spec_payload_bytes_are_pinned(name):
    spec, expected = PINNED[name]
    encoded = canonical_json(spec_payload(spec)).encode("utf-8")
    assert hashlib.sha256(encoded).hexdigest() == expected

