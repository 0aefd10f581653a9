"""Worker-level chaos injection (repro.faults.chaos) and the chaos
stress test the CI ``chaos`` job runs on pinned seeds.

The stress test is the resilience layer's acceptance check in test
form: a fleet run with injected transient faults (exceptions, hard
worker exits) absorbed by retries must complete with a digest
bit-identical to the fault-free run.  The chaos seed sweeps via
``CHAOS_STRESS_SEED=<n>``; the run's checkpoint journal is written
under ``CHAOS_ARTIFACT_DIR`` when set, so a CI failure uploads the
journal that reproduces it.
"""

import os

import pytest

from repro.faults import ChaosError, ChaosPlan, ChaosSpecError, parse_chaos_spec
from repro.fleet import FleetSpec, run_fleet
from repro.parallel import RetryPolicy
from repro.workload.tenancy import TenancySpec

STRESS_SEEDS = [29]
if os.environ.get("CHAOS_STRESS_SEED"):
    STRESS_SEEDS.append(int(os.environ["CHAOS_STRESS_SEED"]))


class TestChaosPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="exception_rate"):
            ChaosPlan(exception_rate=1.5)
        with pytest.raises(ValueError, match="hang_rate"):
            ChaosPlan(hang_rate=-0.1)

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match="must not exceed 1"):
            ChaosPlan(exception_rate=0.5, hang_rate=0.4, exit_rate=0.2)

    def test_other_fields(self):
        with pytest.raises(ValueError, match="hang_s"):
            ChaosPlan(hang_s=0.0)
        with pytest.raises(ValueError, match="attempts"):
            ChaosPlan(attempts=-1)
        with pytest.raises(ValueError, match="tasks indices"):
            ChaosPlan(tasks=(0, -3))

    def test_is_empty(self):
        assert ChaosPlan().is_empty
        assert ChaosPlan(exception_rate=0.5, attempts=0).is_empty
        assert not ChaosPlan(exception_rate=0.5).is_empty


class TestChaosPlanDeterminism:
    def test_fault_for_is_pure(self):
        plan = ChaosPlan(seed=7, exception_rate=0.3, exit_rate=0.3)
        draws = [(i, plan.fault_for(i, 1)) for i in range(50)]
        assert draws == [(i, plan.fault_for(i, 1)) for i in range(50)]

    def test_seed_changes_schedule(self):
        kwargs = dict(exception_rate=0.3, hang_rate=0.3, exit_rate=0.3)
        a = ChaosPlan(seed=1, **kwargs).schedule(100)
        b = ChaosPlan(seed=2, **kwargs).schedule(100)
        assert a != b

    def test_attempt_gating(self):
        plan = ChaosPlan(seed=7, exception_rate=1.0, attempts=2)
        assert plan.fault_for(0, 1) == "exception"
        assert plan.fault_for(0, 2) == "exception"
        assert plan.fault_for(0, 3) is None

    def test_task_targeting(self):
        plan = ChaosPlan(seed=7, exception_rate=1.0, tasks=(3,))
        assert plan.fault_for(3, 1) == "exception"
        assert plan.fault_for(2, 1) is None

    def test_rate_ordering_partitions_the_draw(self):
        """Rates partition [0, 1): with all three at 1/3, every kind
        appears over enough indices, and rate-1 plans are certain."""
        plan = ChaosPlan(
            seed=0, exception_rate=1 / 3, hang_rate=1 / 3, exit_rate=1 / 3
        )
        kinds = {plan.fault_for(i, 1) for i in range(200)}
        assert kinds == {"exception", "hang", "exit"}

    def test_apply_raises_chaos_error(self):
        plan = ChaosPlan(seed=7, exception_rate=1.0)
        with pytest.raises(ChaosError, match="task 5, attempt 1"):
            plan.apply(5, 1)
        plan.apply(5, 2)  # past the attempts window: no-op


class TestParseChaosSpec:
    def test_full_grammar(self):
        plan = parse_chaos_spec(
            "seed=7,exception=0.25,hang=0.1,exit=0.05,"
            "hang-s=30,exit-code=9,attempts=2,tasks=1+4+6"
        )
        assert plan == ChaosPlan(
            seed=7,
            exception_rate=0.25,
            hang_rate=0.1,
            exit_rate=0.05,
            hang_s=30.0,
            exit_code=9,
            attempts=2,
            tasks=(1, 4, 6),
        )

    def test_empty_spec_is_empty_plan(self):
        assert parse_chaos_spec("").is_empty

    def test_unknown_key(self):
        with pytest.raises(ChaosSpecError, match="unknown chaos spec key"):
            parse_chaos_spec("explode=0.5")

    def test_bad_value(self):
        with pytest.raises(ChaosSpecError, match="bad value"):
            parse_chaos_spec("exception=lots")

    def test_missing_value(self):
        with pytest.raises(ChaosSpecError, match="key=value"):
            parse_chaos_spec("exception")

    def test_plan_validation_surfaces_as_spec_error(self):
        with pytest.raises(ChaosSpecError, match="must not exceed 1"):
            parse_chaos_spec("exception=0.9,exit=0.9")


class _StackedChaos:
    """Compose chaos plans: fan_out only needs ``apply(index, attempt)``."""

    def __init__(self, *plans: ChaosPlan) -> None:
        self.plans = plans

    def apply(self, index: int, attempt: int) -> None:
        for plan in self.plans:
            plan.apply(index, attempt)


def _stress_spec() -> FleetSpec:
    return FleetSpec(
        devices=12,
        disk="toshiba",
        days=2,
        hours=0.02,
        devices_per_shard=2,
        tenancy=TenancySpec(tenants=48),
        seed=1993,
    )


@pytest.mark.parametrize("chaos_seed", STRESS_SEEDS)
def test_chaos_stress_digest_matches_clean_run(chaos_seed, tmp_path):
    """CI chaos job: transient chaos + retries => bit-identical digest.

    Faults hit only first attempts while the retry policy allows three,
    so the run must complete; the checkpoint journal it writes doubles
    as the failure artifact CI uploads.
    """
    artifact_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
    journal_dir = artifact_dir if artifact_dir else tmp_path
    os.makedirs(journal_dir, exist_ok=True)
    journal = os.path.join(
        str(journal_dir), f"chaos-stress-{chaos_seed}.ckpt.jsonl"
    )
    spec = _stress_spec()
    clean = run_fleet(spec, workers=1)
    # All three fault kinds: seeded exceptions and hard exits across the
    # fleet, plus one guaranteed 60s hang (shard 1, first attempt) that
    # only the per-task timeout's straggler kill can recover.
    chaos = _StackedChaos(
        # Hang first: shard 1's first attempt always stalls, so every
        # seed provably exercises the straggler-kill path.
        ChaosPlan(seed=chaos_seed, hang_rate=1.0, hang_s=60.0, tasks=(1,)),
        ChaosPlan(
            seed=chaos_seed, exception_rate=0.3, exit_rate=0.15, attempts=1
        ),
    )
    retried = []
    chaotic = run_fleet(
        spec,
        workers=2,
        chaos=chaos,
        retry=RetryPolicy(
            max_attempts=3, timeout_s=3.0, backoff_s=0.0, seed=spec.seed
        ),
        checkpoint=journal,
        on_retry=retried.append,
    )
    assert chaotic.digest() == clean.digest()
    assert not chaotic.degraded
    assert chaotic.retried_tasks == len(retried)
    # The guaranteed hang was recovered by the straggler kill.
    assert any(f.kind == "timeout" for f in retried if f.index == 1)
    # The journal recorded every shard; a resume would be a no-op.
    resumed = run_fleet(spec, workers=1, checkpoint=journal, resume=True)
    assert resumed.digest() == clean.digest()
