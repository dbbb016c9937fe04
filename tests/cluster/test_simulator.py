"""Discrete-time engine: termination, accounting, determinism, validation."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.simulator import Assignment, Simulation
from repro.core.config import ClusterSpec, SimulationConfig
from repro.core.managers import create_manager
from repro.workloads.phases import Hold, PhaseProgram, Ramp
from repro.workloads.spec import WorkloadSpec


def tiny_workload(name="tiny", duration=20.0, level=140.0):
    return WorkloadSpec(
        name=name,
        suite="spark",
        power_class="mid",
        program=PhaseProgram([Ramp(2, 20, level), Hold(duration, level),
                              Ramp(2, level, 20)]),
        active_units=None,
        paper_duration_s=duration,
        paper_above_110_pct=50.0,
        data_size="test",
    )


SPEC = ClusterSpec(n_nodes=2, sockets_per_node=2)


def make_sim(manager="constant", target_runs=1, spec=SPEC, workloads=None,
             **kwargs):
    if workloads is None:
        workloads = [
            (tiny_workload("a"), spec.half_unit_ids(0)),
            (tiny_workload("b"), spec.half_unit_ids(1)),
        ]
    return Simulation(
        cluster_spec=spec,
        manager=create_manager(manager),
        assignments=[Assignment(spec=w, unit_ids=u) for w, u in workloads],
        target_runs=target_runs,
        sim_config=kwargs.pop(
            "sim_config", SimulationConfig(max_steps=5000, inter_run_gap_s=2.0)
        ),
        seed=kwargs.pop("seed", 1),
        **kwargs,
    )


class TestTermination:
    def test_runs_until_target(self):
        result = make_sim(target_runs=2).run()
        for e in result.executions:
            assert e.runs_completed >= 2
        assert not result.truncated

    def test_truncation_flagged(self):
        sim = make_sim(
            sim_config=SimulationConfig(max_steps=5, inter_run_gap_s=2.0)
        )
        result = sim.run()
        assert result.truncated
        assert len(result.events.of_kind("simulation_truncated")) == 1

    def test_durations_recorded(self):
        result = make_sim().run()
        assert set(result.durations) == {"a", "b"}
        assert all(d > 0 for d in result.durations.values())

    def test_execution_lookup(self):
        result = make_sim().run()
        assert result.execution("a").spec.name == "a"
        with pytest.raises(KeyError, match="nope"):
            result.execution("nope")


class TestAccounting:
    def test_budget_never_exceeded(self):
        for manager in ("constant", "slurm", "dps"):
            result = make_sim(manager=manager).run()
            assert result.max_caps_sum_w <= result.budget_w * (1 + 1e-6)
            assert len(result.events.of_kind("budget_violation")) == 0

    def test_run_events_emitted(self):
        result = make_sim(target_runs=2).run()
        completed = result.events.of_kind("run_completed")
        assert len(completed) >= 4  # 2 workloads x 2 runs.

    def test_telemetry_recorded_when_requested(self):
        result = make_sim(record_telemetry=True).run()
        tl = result.telemetry
        assert tl is not None
        assert len(tl) == result.steps
        assert tl.power_w.shape == (result.steps, 4)

    def test_no_telemetry_by_default(self):
        assert make_sim().run().telemetry is None

    def test_dps_priority_recorded(self):
        result = make_sim(manager="dps", record_telemetry=True).run()
        assert result.telemetry is not None
        assert result.telemetry.priority.dtype == bool


class TestDeterminism:
    def test_same_seed_identical(self):
        r1 = make_sim(manager="dps", seed=9).run()
        r2 = make_sim(manager="dps", seed=9).run()
        assert r1.durations == r2.durations
        assert r1.steps == r2.steps

    def test_different_seed_differs(self):
        r1 = make_sim(manager="dps", seed=9).run()
        r2 = make_sim(manager="dps", seed=10).run()
        assert r1.durations != r2.durations


class TestCapping:
    def test_capped_run_slower_than_uncapped(self):
        constrained = make_sim().run()
        free_spec = ClusterSpec(
            n_nodes=2, sockets_per_node=2, budget_fraction=1.0
        )
        free = make_sim(spec=free_spec).run()
        assert (
            constrained.durations["a"] > free.durations["a"] * 1.02
        )

    def test_oracle_receives_demand(self):
        result = make_sim(manager="oracle").run()
        assert not result.truncated


class TestValidation:
    def test_rejects_overlapping_assignments(self):
        ids = SPEC.half_unit_ids(0)
        with pytest.raises(ValueError, match="overlaps"):
            make_sim(
                workloads=[
                    (tiny_workload("a"), ids),
                    (tiny_workload("b"), ids),
                ]
            )

    def test_rejects_one_workload_name_twice(self):
        # durations and execution() are keyed by name: the two halves
        # used to merge into the first one's record.
        with pytest.raises(ValueError, match="^tiny: workload assigned twice"):
            make_sim(
                workloads=[
                    (tiny_workload(), SPEC.half_unit_ids(0)),
                    (tiny_workload(), SPEC.half_unit_ids(1)),
                ]
            )

    def test_one_workload_twice_under_distinct_names(self):
        spec = tiny_workload()
        result = make_sim(
            target_runs=2,
            workloads=[
                (dataclasses.replace(spec, name="tiny-a"), SPEC.half_unit_ids(0)),
                (dataclasses.replace(spec, name="tiny-b"), SPEC.half_unit_ids(1)),
            ],
        ).run()
        assert set(result.durations) == {"tiny-a", "tiny-b"}
        completed = result.events.of_kind("run_completed")
        for name in ("tiny-a", "tiny-b"):
            runs = result.execution(name).runs_completed
            assert runs >= 2
            assert sum(e.workload == name for e in completed) == runs

    def test_rejects_out_of_range_units(self):
        with pytest.raises(ValueError, match="out of range"):
            make_sim(
                workloads=[(tiny_workload("a"), np.array([0, 99]))]
            )

    def test_rejects_empty_assignment(self):
        with pytest.raises(ValueError, match="non-empty|empty"):
            make_sim(workloads=[(tiny_workload("a"), np.array([], dtype=int))])

    def test_rejects_zero_target_runs(self):
        with pytest.raises(ValueError, match="target_runs"):
            make_sim(target_runs=0)

    def test_rejects_no_assignments(self):
        with pytest.raises(ValueError, match="at least one"):
            Simulation(
                cluster_spec=SPEC,
                manager=create_manager("constant"),
                assignments=[],
            )


class TestActuationDelay:
    def test_delayed_actuation_completes_and_respects_budget(self):
        result = make_sim(manager="dps", actuation_delay_steps=1).run()
        assert not result.truncated
        assert result.max_caps_sum_w <= result.budget_w * (1 + 1e-6)

    def test_delay_changes_trajectory(self):
        immediate = make_sim(manager="slurm", seed=4).run()
        delayed = make_sim(
            manager="slurm", seed=4, actuation_delay_steps=2
        ).run()
        # Same seed, different actuation pipeline: the runs must differ.
        assert (
            immediate.durations != delayed.durations
            or immediate.steps != delayed.steps
        )


class TestIdleUnits:
    def test_unassigned_units_stay_idle(self):
        sim = make_sim(
            workloads=[(tiny_workload("a"), SPEC.half_unit_ids(0))],
            record_telemetry=True,
        )
        result = sim.run()
        tl = result.telemetry
        assert tl is not None
        # Units 2-3 were never assigned: their power stays near idle.
        assert float(tl.power_w[:, 2:].mean()) < 20.0


class TestCheckpointing:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        plain = make_sim(manager="dps", seed=7).run()
        ckpt = make_sim(
            manager="dps", seed=7,
            checkpoint_dir=tmp_path, checkpoint_every=5,
        ).run()
        # Checkpointing is pure bookkeeping: same seed, same trajectory.
        assert ckpt.durations == plain.durations
        assert ckpt.steps == plain.steps
        assert ckpt.checkpoints_written > 0
        assert ckpt.resumed_at_cycle is None
        assert ckpt.journal_replayed == 0

    def test_resume_restores_controller_state(self, tmp_path):
        first = make_sim(
            manager="dps", seed=7,
            checkpoint_dir=tmp_path, checkpoint_every=5,
        ).run()
        resumed = make_sim(
            manager="dps", seed=7,
            checkpoint_dir=tmp_path, checkpoint_every=5, resume=True,
        ).run()
        assert resumed.resumed_at_cycle is not None
        assert resumed.resumed_at_cycle > 0
        assert not resumed.truncated
        assert resumed.max_caps_sum_w <= resumed.budget_w * (1 + 1e-6)
        assert first.checkpoints_written > 0

    def test_controller_events_are_stamped_in_simulated_seconds(self, tmp_path):
        # The controller stamps its events with its cycle count; a run's
        # telemetry channel must carry them at the simulated time.
        quarter = SimulationConfig(
            dt_s=0.25, max_steps=5000, inter_run_gap_s=2.0
        )
        result = make_sim(
            manager="dps", seed=7, target_runs=3, sim_config=quarter,
            record_telemetry=True, checkpoint_dir=tmp_path,
            checkpoint_every=40,
        ).run()
        events = list(result.telemetry.events)
        written = result.telemetry.events.of_kind("checkpoint_written")
        assert len(written) == result.checkpoints_written >= 3
        assert [e.time_s for e in written] == [
            10.0 * (k + 1) for k in range(len(written))
        ]
        times = [e.time_s for e in events]
        assert times == sorted(times)
        assert max(times) <= result.sim_time_s

        resumed = make_sim(
            manager="dps", seed=7, target_runs=3, sim_config=quarter,
            record_telemetry=True, checkpoint_dir=tmp_path,
            checkpoint_every=40, resume=True,
        ).run()
        restored = resumed.telemetry.events.of_kind("restore_performed")
        assert [e.time_s for e in restored] == [0.0]
        times = [e.time_s for e in resumed.telemetry.events]
        assert times == sorted(times)
        assert max(times) <= resumed.sim_time_s

    def test_rejects_resume_without_checkpoint_dir(self):
        with pytest.raises(ValueError, match="resume"):
            make_sim(resume=True)

    def test_rejects_checkpoint_every_below_one(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_sim(checkpoint_dir=tmp_path, checkpoint_every=0)


class TestVerifiedActuation:
    def test_verified_run_is_clean_on_healthy_hardware(self):
        result = make_sim(manager="dps", verify_actuation=True).run()
        assert not result.truncated
        assert result.actuation_retries == 0
        assert result.actuation_verify_failures == 0


class TestOneEventLog:
    def test_the_run_has_one_log_stamped_in_simulated_seconds(self, tmp_path):
        from repro.safety import SafetyConfig

        result = make_sim(
            manager="dps",
            record_telemetry=True,
            safety=SafetyConfig(guard=True),
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
            verify_actuation=True,
        ).run()
        assert result.events is result.telemetry.events is result.safety_events
        times = [e.time_s for e in result.events]
        assert times == sorted(times)
        kinds = {e.kind for e in result.events}
        assert {"run_started", "run_completed", "checkpoint_written"} <= kinds
        # The controller's checkpoints sit at the plant's seconds.
        written = result.events.of_kind("checkpoint_written")
        assert [e.time_s for e in written] == [
            5.0 * k for k in range(1, len(written) + 1)
        ]
        assert result.checkpoints_written == len(written)

    def test_no_safety_no_safety_events(self):
        result = make_sim(record_telemetry=True).run()
        assert result.safety_events is None
        assert result.events is result.telemetry.events
