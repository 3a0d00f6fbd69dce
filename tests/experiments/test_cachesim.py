"""Functional simulation path (streams, RDD profiling, capacity sweep)."""

import pytest

from repro.experiments.cachesim import capacity_sweep, interleaved_accesses, profile_reuse
from repro.gpu.config import GPUConfig, L1DConfig
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def func_config():
    return GPUConfig(num_sms=2, num_partitions=2)


@pytest.fixture(scope="module")
def small_workload():
    return make_workload("SS", scale=0.25)


class TestInterleavedStreams:
    def test_emits_every_request(self, func_config, small_workload):
        stream = list(interleaved_accesses(small_workload, func_config))
        expected = small_workload.static_stats()["mem_requests"]
        assert len(stream) == expected

    def test_sm_ids_in_range(self, func_config, small_workload):
        for sm, *_ in interleaved_accesses(small_workload, func_config):
            assert 0 <= sm < func_config.num_sms

    def test_ctas_distributed_round_robin(self, func_config, small_workload):
        sms = {sm for sm, *_ in interleaved_accesses(small_workload, func_config)}
        assert sms == {0, 1}

    def test_deterministic(self, func_config):
        a = list(interleaved_accesses(make_workload("MM", 0.5), func_config))
        b = list(interleaved_accesses(make_workload("MM", 0.5), func_config))
        assert a == b


class TestProfileReuse:
    def test_produces_rdd(self, func_config, small_workload):
        profiler = profile_reuse(small_workload, func_config)
        assert profiler.reuses > 0
        assert sum(profiler.overall_fractions()) == pytest.approx(1.0)

    def test_per_pc_histograms_present(self, func_config, small_workload):
        profiler = profile_reuse(small_workload, func_config)
        assert len(profiler.per_pc) >= 1


class TestCapacitySweep:
    def test_bigger_cache_never_worse(self, func_config, small_workload):
        sweep = capacity_sweep(small_workload, (16, 32, 64), func_config)
        assert (
            sweep[16]["reuse_miss_rate"]
            >= sweep[32]["reuse_miss_rate"]
            >= sweep[64]["reuse_miss_rate"]
        )

    def test_capacities_see_identical_streams(self, func_config, small_workload):
        sweep = capacity_sweep(small_workload, (16, 32), func_config)
        assert sweep[16]["accesses"] == sweep[32]["accesses"]
        assert sweep[16]["compulsory"] == sweep[32]["compulsory"]

    def test_compulsory_excluded(self, func_config, small_workload):
        sweep = capacity_sweep(small_workload, (16,), func_config)
        stats = sweep[16]
        assert stats["reuse_accesses"] == stats["accesses"] - stats["compulsory"]
