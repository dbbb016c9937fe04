"""Campaign runner: execution, summaries, serialization."""

import json

import pytest

from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    ExperimentRecord,
)


def small_campaign(fast_config, **kwargs):
    defaults = dict(
        config=fast_config,
        groups=("low_utility",),
        managers=("constant", "slurm"),
        limit_pairs=2,
    )
    defaults.update(kwargs)
    return Campaign(**defaults)


class TestValidation:
    def test_rejects_unknown_group(self, fast_config):
        with pytest.raises(ValueError, match="unknown group"):
            Campaign(fast_config, groups=("bogus",))

    def test_rejects_bad_limit(self, fast_config):
        with pytest.raises(ValueError, match="limit_pairs"):
            Campaign(fast_config, limit_pairs=0)


class TestRun:
    def test_record_count(self, fast_config):
        result = small_campaign(fast_config).run()
        assert len(result.records) == 2 * 2  # 2 pairs x 2 managers.

    def test_progress_callback(self, fast_config):
        seen = []
        small_campaign(fast_config).run(
            progress=lambda g, p, m: seen.append((g, p, m))
        )
        assert len(seen) == 4
        assert seen[0][0] == "low_utility"

    def test_group_default_managers(self, fast_config):
        campaign = small_campaign(fast_config, managers=None, limit_pairs=1)
        result = campaign.run()
        assert {r.manager for r in result.records} == {
            "slurm", "dps", "oracle",
        }

    def test_filters(self, fast_config):
        result = small_campaign(fast_config).run()
        assert len(result.for_group("low_utility")) == 4
        assert len(result.for_manager("slurm")) == 2
        assert result.for_group("spark_npb") == []


class TestSummaries:
    def test_summary_keys_and_values(self, fast_config):
        result = small_campaign(fast_config).run()
        summary = result.summary()
        assert ("low_utility", "constant") in summary
        stats = summary[("low_utility", "constant")]
        assert stats.n == 2
        assert stats.hmean == pytest.approx(1.0, abs=1e-6)

    def test_mean_fairness_in_range(self, fast_config):
        result = small_campaign(fast_config).run()
        for value in result.mean_fairness().values():
            assert 0 <= value <= 1

    def test_summaries_independent_of_record_order(self, fast_config):
        """The single-pass groupby must not depend on record adjacency."""
        result = small_campaign(fast_config).run()
        shuffled = CampaignResult(
            records=list(reversed(result.records)),
            seed=result.seed,
            time_scale=result.time_scale,
        )
        interleaved = CampaignResult(
            records=result.records[1::2] + result.records[0::2],
            seed=result.seed,
            time_scale=result.time_scale,
        )
        for variant in (shuffled, interleaved):
            assert variant.summary() == result.summary()
            assert variant.mean_fairness() == result.mean_fairness()
            assert list(variant.summary()) == sorted(variant.summary())


class TestSerialization:
    def test_json_round_trip(self, fast_config):
        result = small_campaign(fast_config).run()
        restored = CampaignResult.from_json(result.to_json())
        assert restored.seed == result.seed
        assert restored.time_scale == result.time_scale
        assert restored.records == result.records

    def test_v2_round_trips_engine_telemetry(self, fast_config):
        result = small_campaign(fast_config).run()
        restored = CampaignResult.from_json(result.to_json())
        assert restored.engine == result.engine
        assert restored.engine.n_jobs > 0

    def test_accepts_v1_documents(self, fast_config):
        """Pre-engine campaign files (no telemetry block) still load."""
        result = small_campaign(fast_config).run()
        doc = json.loads(result.to_json())
        doc["format"] = "repro-campaign-v1"
        del doc["engine"]
        restored = CampaignResult.from_json(json.dumps(doc))
        assert restored.records == result.records
        assert restored.engine is None

    def test_loads_v2_documents_naming_an_execution_backend(self):
        """Campaign files written while telemetry carried a ``backend``
        label still load, records and counters intact."""
        record = dict(
            group="low_utility", workload_a="a", workload_b="b",
            manager="dps", speedup_a=1.25, speedup_b=0.1 + 0.2,
            hmean_speedup=0.5, satisfaction_a=0.9, satisfaction_b=1.0,
            fairness=0.75,
        )
        engine = {
            "workers": 3, "n_jobs": 5, "cache_hits": 1, "cache_misses": 4,
            "cache_invalid": 0, "total_wall_s": 2.5,
            "job_timings": [
                {"key": "reference:a", "wall_s": 0.5, "cached": False}
            ],
            "backend": "distributed",
        }
        doc = {
            "format": "repro-campaign-v2", "seed": 7, "time_scale": 0.25,
            "records": [record], "engine": engine,
        }
        restored = CampaignResult.from_json(json.dumps(doc))
        assert restored.records == [ExperimentRecord(**record)]
        eng = restored.engine
        assert (eng.workers, eng.n_jobs, eng.cache_hits, eng.cache_misses,
                eng.cache_invalid, eng.total_wall_s) == (3, 5, 1, 4, 0, 2.5)
        assert [t.key for t in eng.job_timings] == ["reference:a"]
        assert "backend" not in eng.to_doc()

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="unsupported"):
            CampaignResult.from_json('{"format": "x"}')

    def test_record_is_frozen(self):
        rec = ExperimentRecord(
            group="g", workload_a="a", workload_b="b", manager="m",
            speedup_a=1.0, speedup_b=1.0, hmean_speedup=1.0,
            satisfaction_a=1.0, satisfaction_b=1.0, fairness=1.0,
        )
        with pytest.raises(AttributeError):
            rec.fairness = 0.5  # type: ignore[misc]
