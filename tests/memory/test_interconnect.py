"""Crossbar: latency, injection serialisation, traffic accounting."""

from repro.memory.interconnect import CONTROL_BYTES, LINE_BYTES, Interconnect


class FakeClock:
    def __init__(self):
        self.now = 0
        self.events = []

    def schedule(self, delay, fn, arg):
        self.events.append((self.now + delay, fn))


def drop(arg):
    """A delivery callback; the fake clock never fires it."""


def make_icnt(latency=10):
    clk = FakeClock()
    icnt = Interconnect(clk.schedule, latency, clock=lambda: clk.now)
    return icnt, clk


class TestTrafficAccounting:
    def test_read_request_is_header_only(self):
        icnt, clk = make_icnt()
        icnt.send_request(0, is_write=False, deliver=drop, arg=None)
        assert icnt.stats.bytes_to_mem == CONTROL_BYTES

    def test_write_request_carries_data(self):
        icnt, clk = make_icnt()
        icnt.send_request(0, is_write=True, deliver=drop, arg=None)
        assert icnt.stats.bytes_to_mem == CONTROL_BYTES + LINE_BYTES

    def test_response_carries_data(self):
        icnt, clk = make_icnt()
        icnt.send_response(drop, None)
        assert icnt.stats.bytes_from_mem == CONTROL_BYTES + LINE_BYTES

    def test_total_bytes(self):
        icnt, clk = make_icnt()
        icnt.send_request(0, False, drop, None)
        icnt.send_response(drop, None)
        assert icnt.stats.total_bytes == 2 * CONTROL_BYTES + LINE_BYTES

    def test_packet_counts(self):
        icnt, clk = make_icnt()
        for _ in range(3):
            icnt.send_request(0, False, drop, None)
        icnt.send_response(drop, None)
        assert icnt.stats.request_packets == 3
        assert icnt.stats.response_packets == 1


class TestInjectionSerialisation:
    def test_same_source_serialises(self):
        icnt, clk = make_icnt(latency=10)
        icnt.send_request(0, False, drop, None)
        icnt.send_request(0, False, drop, None)
        icnt.send_request(0, False, drop, None)
        times = sorted(t for t, _ in clk.events)
        assert times == [10, 11, 12]  # one packet per cycle per port

    def test_different_sources_independent(self):
        icnt, clk = make_icnt(latency=10)
        icnt.send_request(0, False, drop, None)
        icnt.send_request(1, False, drop, None)
        times = sorted(t for t, _ in clk.events)
        assert times == [10, 10]

    def test_port_frees_over_time(self):
        icnt, clk = make_icnt(latency=10)
        icnt.send_request(0, False, drop, None)
        clk.now = 5
        icnt.send_request(0, False, drop, None)
        times = sorted(t for t, _ in clk.events)
        assert times == [10, 15]
