"""Table generators and the §6.5 overhead analysis."""

import pytest

from repro.experiments.harness import ExperimentConfig
from repro.experiments.tables import (
    measure_decision_time,
    overhead_analysis,
    table3,
    table4,
)


class TestTable3:
    def test_static_contents(self):
        rows = table3()
        assert rows == [("low", 1, 8), ("mid", 48, 8), ("high", 48, 8)]


class TestWorkloadTables:
    def test_table4_rows(self, fast_config):
        rows = table4(fast_config)
        assert len(rows) == 8
        for row in rows:
            assert row.measured_duration_s > 0
            # NPB apps stretch under the constant cap: the full-scale
            # measured duration must exceed the uncapped program length.
            assert row.measured_above_110_pct > 90.0


class TestOverheadAnalysis:
    def test_rows_and_projection(self, fast_config):
        rows = overhead_analysis(
            measured_nodes=2,
            projected_nodes=(10, 100),
            cycles=5,
            config=fast_config,
        )
        assert len(rows) == 3
        measured = rows[0]
        assert not measured.projected
        assert measured.n_nodes == 2
        # 3 bytes per unit per direction (paper §6.5).
        assert measured.bytes_per_cycle == measured.n_units * 6
        assert measured.compute_s > 0
        assert measured.turnaround_s == pytest.approx(
            measured.network_s + measured.compute_s
        )
        for projected in rows[1:]:
            assert projected.projected
            assert projected.bytes_per_cycle == projected.n_units * 6

    def test_projection_scales_linearly(self, fast_config):
        rows = overhead_analysis(
            measured_nodes=2,
            projected_nodes=(10, 100),
            cycles=3,
            config=fast_config,
        )
        r10, r100 = rows[1], rows[2]
        # Both terms are the measured per-unit costs times the unit count.
        assert r100.compute_s == pytest.approx(10 * r10.compute_s)
        assert r100.network_s == pytest.approx(10 * r10.network_s)

    @pytest.mark.parametrize(
        "kwargs, reason",
        [
            ({"cycles": 0}, "cycles"),
            ({"projected_nodes": (10, 0)}, "projected node counts"),
        ],
    )
    def test_bad_input_rejected(self, fast_config, kwargs, reason):
        with pytest.raises(ValueError, match=reason):
            overhead_analysis(measured_nodes=2, config=fast_config, **kwargs)

    def test_decision_loop_subsecond_at_paper_scale(self, fast_config):
        """§6.5: the 1 s decision loop dominates the controller cost."""
        rows = overhead_analysis(
            measured_nodes=10, projected_nodes=(), cycles=10,
            config=fast_config,
        )
        assert rows[0].turnaround_s < 0.1


class TestDecisionTime:
    @pytest.mark.parametrize("manager", ["constant", "slurm", "dps"])
    def test_measures_positive_time(self, manager):
        t = measure_decision_time(manager, n_units=8, steps=20)
        assert 0 < t < 0.05

    def test_dps_cost_same_order_as_slurm(self):
        """§6.5 claim: DPS has 'negligibly more operating overhead' than
        the stateless system — same order of magnitude per decision."""
        slurm = measure_decision_time("slurm", n_units=20, steps=60)
        dps = measure_decision_time("dps", n_units=20, steps=60)
        assert dps < slurm * 60  # Generous bound; typical ratio is ~5-15x
        assert dps < 0.01  # And absolutely tiny vs the 1 s loop.
