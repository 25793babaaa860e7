"""Tests for cross-cluster transfer (§7.2.6)."""

import pytest

from repro.core.transfer import calibration_ratios, transfer_profile
from repro.hadoop import HadoopEngine, JobConfiguration, ec2_cluster
from repro.hadoop.cluster import CostRates
from repro.starfish import StarfishProfiler, WhatIfEngine


@pytest.fixture(scope="module")
def slow_cluster():
    rates = CostRates(
        read_hdfs_ns_per_byte=32.0, write_hdfs_ns_per_byte=50.0,
        read_local_ns_per_byte=18.0, write_local_ns_per_byte=24.0,
        network_ns_per_byte=44.0, cpu_ns_per_record=700.0,
        compress_ns_per_byte=60.0, decompress_ns_per_byte=20.0,
    )
    return ec2_cluster(base_rates=rates, seed=21)


class TestCalibration:
    def test_identity_ratios(self, cluster):
        ratios = calibration_ratios(cluster, cluster)
        assert ratios.disk == pytest.approx(1.0)
        assert ratios.network == pytest.approx(1.0)
        assert ratios.cpu == pytest.approx(1.0)

    def test_slow_to_fast_ratios_below_one(self, slow_cluster, cluster):
        ratios = calibration_ratios(slow_cluster, cluster)
        assert ratios.disk < 1.0
        assert ratios.cpu < 1.0
        assert ratios.network < 1.0

    def test_unknown_names_pass_through(self, slow_cluster, cluster):
        ratios = calibration_ratios(slow_cluster, cluster)
        assert ratios.for_name("RECORDS_PER_GROUP") == 1.0


class TestTransferProfile:
    @pytest.fixture()
    def source_profile(self, slow_cluster, wordcount, small_text):
        profiler = StarfishProfiler(HadoopEngine(slow_cluster))
        profile, __ = profiler.profile_job(wordcount, small_text)
        return profile

    def test_data_flow_untouched(self, source_profile, slow_cluster, cluster):
        adjusted = transfer_profile(source_profile, slow_cluster, cluster)
        assert dict(adjusted.map_profile.data_flow) == dict(
            source_profile.map_profile.data_flow
        )

    def test_cost_factors_scaled_down(self, source_profile, slow_cluster, cluster):
        adjusted = transfer_profile(source_profile, slow_cluster, cluster)
        for name, value in source_profile.map_profile.cost_factors.items():
            assert adjusted.map_profile.cost_factors[name] < value

    def test_source_tagged(self, source_profile, slow_cluster, cluster):
        adjusted = transfer_profile(source_profile, slow_cluster, cluster)
        assert adjusted.source.startswith("transferred(")

    def test_prediction_error_shrinks(
        self, source_profile, slow_cluster, cluster, engine, wordcount, small_text
    ):
        whatif = WhatIfEngine(cluster)
        actual = engine.run_job(wordcount, small_text, JobConfiguration()).runtime_seconds
        raw = whatif.predict(source_profile, JobConfiguration()).runtime_seconds
        adjusted_profile = transfer_profile(source_profile, slow_cluster, cluster)
        adjusted = whatif.predict(adjusted_profile, JobConfiguration()).runtime_seconds
        assert abs(adjusted - actual) < abs(raw - actual)
