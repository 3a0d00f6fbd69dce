"""Memory partition: routing, L2 timing, DRAM path, response port."""

from repro.cache.l1d import FetchRequest
from repro.cache.tagarray import CacheGeometry
from repro.memory.dram import DramChannel
from repro.memory.partition import MemoryPartition, partition_for


class Harness:
    """Manual event executor for partition callbacks."""

    def __init__(self, l2_latency=10, l2_service=2, resp_interval=4):
        self.now = 0
        self.events = []
        self.responses = []
        self.partition = MemoryPartition(
            0,
            CacheGeometry(num_sets=4, assoc=2, index_fn="linear"),
            DramChannel(service_interval=4, access_latency=50),
            self.schedule,
            self.responses.append,
            l2_latency,
            l2_service_interval=l2_service,
            response_interval=resp_interval,
        )

    def schedule(self, delay, fn, arg):
        self.events.append([self.now + delay, fn, arg])

    def run_until_quiet(self):
        while self.events:
            self.events.sort(key=lambda e: e[0])
            time, fn, arg = self.events.pop(0)
            self.now = time
            fn(arg)


def fetch(block, is_write=False, sm=0):
    return FetchRequest(block_addr=block, insn_id=0, sm_id=sm, is_bypass=False,
                        is_write=is_write)


class TestPartitionFor:
    def test_line_interleaving(self):
        assert partition_for(0, 12) == 0
        assert partition_for(13, 12) == 1
        assert partition_for(25, 12) == 1


class TestReadPath:
    def test_cold_read_goes_to_dram_and_responds(self):
        h = Harness()
        f = fetch(0x10)
        h.partition.receive(f, 0)
        h.run_until_quiet()
        assert h.responses == [f]
        # L2 latency (10) + DRAM latency (50) at minimum
        assert h.now >= 60

    def test_warm_read_is_l2_hit(self):
        h = Harness()
        h.partition.receive(fetch(0x10), 0)
        h.run_until_quiet()
        t_cold = h.now
        h.partition.receive(fetch(0x10), h.now)
        h.run_until_quiet()
        assert h.partition.l2.stats.hits == 1
        assert h.now - t_cold < 60  # far cheaper than the DRAM trip

    def test_concurrent_same_block_merges(self):
        h = Harness()
        a, b = fetch(0x10), fetch(0x10, sm=1)
        h.partition.receive(a, 0)
        h.partition.receive(b, 0)
        h.run_until_quiet()
        assert a in h.responses and b in h.responses
        assert h.partition.dram.stats.reads == 1

    def test_response_port_serialises(self):
        h = Harness(resp_interval=4)
        # two merged fetches return together; responses must be 4 apart
        h.partition.receive(fetch(0x10), 0)
        h.partition.receive(fetch(0x10, sm=1), 0)
        times = []
        original = h.responses.append

        def record(f):
            times.append(h.now)
            original(f)

        h.partition.respond = record
        h.run_until_quiet()
        assert len(times) == 2
        assert abs(times[1] - times[0]) >= 4


class TestWritePath:
    def test_write_hits_dram_without_response(self):
        h = Harness()
        h.partition.receive(fetch(0x10, is_write=True), 0)
        h.run_until_quiet()
        assert h.responses == []
        assert h.partition.dram.stats.writes == 1

    def test_l2_service_interval_queues_accesses(self):
        h = Harness(l2_service=5)
        h.partition.receive(fetch(0x10), 0)
        h.partition.receive(fetch(0x20), 0)
        assert h.partition.l2_queue_delay == 5
