"""Tests for the Ethernet substrate."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.units import gbps
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.georep import WanLink
from repro.hw.net import (
    Frame, Link, LinkStats, Network, NetworkPort, QSFP28_100G,
)
from repro.hw.net.link import DEFAULT_PROPAGATION
from repro.hw.net.switch import SWITCH_FORWARD_LATENCY
from repro.sim import Resource, Simulator, Store


class TestFrame:
    def test_wire_size_includes_overhead(self):
        frame = Frame("a", "b", payload=None, payload_size=1500)
        assert frame.wire_size == 1538

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Frame("a", "b", None, payload_size=-1)

    def test_frame_ids_unique(self):
        a = Frame("a", "b", None, 10)
        b = Frame("a", "b", None, 10)
        assert a.frame_id != b.frame_id


class TestLink:
    def test_serialization_delay_100g(self):
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=0)
        frame = Frame("a", "b", None, payload_size=1500 - 38)
        assert link.serialization_delay(frame) == pytest.approx(1500 / gbps(100))

    def test_transmit_delivers(self):
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=1e-6)

        def scenario():
            yield from link.transmit(Frame("a", "b", "hello", 100))
            got = yield link.receive()
            return got.payload, sim.now

        payload, now = sim.run_process(scenario())
        assert payload == "hello"
        assert now == pytest.approx(138 / gbps(100) + 1e-6)

    def test_back_to_back_serializes(self):
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=0)
        arrivals = []

        def sender():
            for i in range(3):
                sim.process(link.transmit(Frame("a", "b", i, 1462)))
            if False:
                yield

        def receiver():
            for _ in range(3):
                yield link.receive()
                arrivals.append(sim.now)

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        gap = 1500 / gbps(100)
        assert arrivals[1] - arrivals[0] == pytest.approx(gap)
        assert arrivals[2] - arrivals[1] == pytest.approx(gap)

    def test_loss_function_drops(self):
        sim = Simulator()
        link = Link(sim, loss_fn=lambda f: True)

        def scenario():
            yield from link.transmit(Frame("a", "b", None, 100))

        sim.run_process(scenario())
        assert link.stats().frames_dropped == 1
        assert len(link.rx_queue) == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Link(Simulator(), bandwidth=0)
        with pytest.raises(ValueError):
            Link(Simulator(), propagation=-1)

    def test_stats_expose_drops(self):
        sim = Simulator()
        drops = [True, False]
        link = Link(sim, loss_fn=lambda f: drops.pop(0))

        def scenario():
            yield from link.transmit(Frame("a", "b", None, 100))
            yield from link.transmit(Frame("a", "b", None, 100))

        sim.run_process(scenario())
        stats = link.stats()
        assert stats.frames_sent == 2
        assert stats.frames_dropped == 1
        assert stats.frames_corrupted == 0
        assert stats.frames_delivered == 1
        assert stats.bytes_sent == 2 * 138


class TestNetwork:
    def test_two_endpoints_roundtrip(self):
        sim = Simulator()
        net = Network(sim)
        client = net.endpoint("client")
        server = net.endpoint("server")

        def server_loop():
            request = yield server.receive()
            yield from server.send(
                Frame("server", request.src, f"re:{request.payload}", 64)
            )

        def client_req():
            yield from client.send(Frame("client", "server", "ping", 64))
            reply = yield client.receive()
            return reply.payload, sim.now

        sim.process(server_loop())
        proc = sim.process(client_req())
        sim.run()
        payload, rtt = proc.value
        assert payload == "re:ping"
        assert rtt == pytest.approx(net.min_rtt(64, 64), rel=0.01)

    def test_unknown_destination_dropped_by_switch(self):
        sim = Simulator()
        net = Network(sim)
        a = net.endpoint("a")

        def scenario():
            yield from a.send(Frame("a", "nowhere", None, 64))

        sim.run_process(scenario())
        assert net.switch.frames_forwarded == 0

    def test_port_without_route(self):
        sim = Simulator()
        port = NetworkPort(sim, "lonely")
        with pytest.raises(ConfigurationError):
            sim.run_process(port.send(Frame("lonely", "x", None, 10)))

    def test_min_rtt_scales_with_propagation(self):
        sim = Simulator()
        near = Network(sim, propagation=1e-6)
        far = Network(sim, propagation=100e-6)
        assert far.min_rtt(64, 64) > near.min_rtt(64, 64)

    def test_port_stats_aggregate_tx_and_rx(self):
        sim = Simulator()
        net = Network(sim)
        a = net.endpoint("a")
        b = net.endpoint("b")

        def sender():
            yield from a.send(Frame("a", "b", "one", 64))
            yield from a.send(Frame("a", "b", "two", 64))

        def receiver():
            yield b.receive()
            yield b.receive()

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert a.stats().tx.frames_sent == 2
        assert a.stats().frames_dropped == 0
        assert b.stats().frames_received == 2


# -- the departure-time FIFO model against the process-per-hop model ---------


class _RefLink:
    """Reference: transmitter as a unit Resource, one process per delivery."""

    def __init__(self, sim, bandwidth, propagation):
        self.sim = sim
        self.bandwidth = bandwidth
        self.propagation = propagation
        self.rx_queue = Store(sim)
        self._tx = Resource(sim, capacity=1)
        self._stats = LinkStats()

    def transmit(self, frame):
        yield self._tx.request()
        try:
            yield self.sim.timeout(frame.wire_size / self.bandwidth)
        finally:
            self._tx.release()
        self._stats.frames_sent += 1
        self._stats.bytes_sent += frame.wire_size
        self.sim.process(self._deliver(frame))

    def _deliver(self, frame):
        yield self.sim.timeout(self.propagation)
        yield self.rx_queue.put(frame)

    def receive(self):
        return self.rx_queue.get()

    def stats(self):
        return self._stats


class _RefNetwork:
    """Reference star: one forwarding loop process per switch ingress."""

    def __init__(self, sim, bandwidth, propagation, forward_latency):
        self.sim = sim
        self.bandwidth = bandwidth
        self.propagation = propagation
        self.forward_latency = forward_latency
        self.frames_forwarded = 0
        self.uplinks = {}
        self.downlinks = {}

    def endpoint(self, address):
        up = _RefLink(self.sim, self.bandwidth, self.propagation)
        self.uplinks[address] = up
        self.downlinks[address] = _RefLink(
            self.sim, self.bandwidth, self.propagation
        )
        self.sim.process(self._forward_loop(up))

    def _forward_loop(self, ingress):
        while True:
            frame = yield ingress.receive()
            yield self.sim.timeout(self.forward_latency)
            egress = self.downlinks.get(frame.dst)
            if egress is None:
                continue
            self.frames_forwarded += 1
            self.sim.process(egress.transmit(frame))

    def send(self, frame):
        yield from self.uplinks[frame.src].transmit(frame)

    def receive(self, address):
        return self.downlinks[address].receive()


ADDRESSES = ("h0", "h1", "h2")

#: One sender's program: (think time, payload size, destination index).
_programs = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 1e-7, 5e-7, 1e-6, 3e-6]),
            # Few sizes, so different paths tie at the same instants.
            st.sampled_from([0, 12, 100, 1462, 6212, 9000]),
            st.integers(min_value=0, max_value=3),  # 3 = unknown address
        ),
        max_size=8,
    ),
    min_size=1,
    max_size=len(ADDRESSES),
)


def _run_star(programs, make_network, send, receive, one_way_delay=None):
    """Drive every sender's program; return the (time, where, payload) log.

    ``where`` is the receiving address, or "sent" when a sender resumes.
    """
    sim = Simulator()
    network = make_network(sim)
    for address in ADDRESSES:
        network.endpoint(address)
    sent_at = {}
    log = []

    def sender(src, program):
        for i, (think, size, dst) in enumerate(program):
            if think:
                yield sim.timeout(think)
            dst = ADDRESSES[dst] if dst < len(ADDRESSES) else "nowhere"
            sent_at[(src, i)] = (sim.now, size)
            yield from send(network, Frame(src, dst, (src, i), size))
            log.append((sim.now, "sent", (src, i)))

    def receiver(address):
        while True:
            frame = yield receive(network, address)
            log.append((sim.now, address, frame.payload))

    for address in ADDRESSES:
        sim.process(receiver(address))
    for src, program in zip(ADDRESSES, programs):
        sim.process(sender(src, program))
    sim.run()
    if one_way_delay is not None:
        for now, where, payload in log:
            if where != "sent":
                sent, size = sent_at[payload]
                floor = one_way_delay(network, size)
                assert now - sent >= floor * (1 - 1e-12)
    return log, network


class TestDifferentialAgainstProcessModel:
    @settings(max_examples=200, deadline=None)
    @given(programs=_programs)
    # A forward completing on one ingress at the instant a frame reaches
    # another: the next forward must be scheduled at completion, not at
    # arrival, or the two same-time forwards swap.
    @example(programs=[[(0.0, 0, 0), (0.0, 0, 0)], [(5e-07, 0, 0)]])
    def test_network_matches_reference(self, programs):
        got, network = _run_star(
            programs,
            lambda sim: Network(sim),
            lambda net, frame: net.port(frame.src).send(frame),
            lambda net, address: net.port(address).receive(),
            lambda net, size: net.one_way_delay(size),
        )
        want, reference = _run_star(
            programs,
            lambda sim: _RefNetwork(
                sim, QSFP28_100G, DEFAULT_PROPAGATION, SWITCH_FORWARD_LATENCY
            ),
            lambda net, frame: net.send(frame),
            lambda net, address: net.receive(address),
        )
        assert got == want
        assert network.switch.frames_forwarded == reference.frames_forwarded
        for address in ADDRESSES:
            for link, ref in (
                (network.port(address).route(), reference.uplinks[address]),
                (network.port(address).rx_link, reference.downlinks[address]),
            ):
                assert link.stats() == ref.stats()

    @settings(max_examples=60, deadline=None)
    @given(
        sends=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # sender
                st.sampled_from([0.0, 2e-7, 1e-6, 1.1e-6]),  # send time
                st.integers(min_value=0, max_value=9000),  # payload size
            ),
            max_size=12,
        ),
        propagation=st.sampled_from([0.0, 1e-6]),
    )
    def test_bare_link_matches_reference(self, sends, propagation):
        def run(link_cls):
            sim = Simulator()
            link = link_cls(sim, gbps(10), propagation)
            log = []

            def sender(who):
                for i, (owner, at, size) in enumerate(sends):
                    if owner != who:
                        continue
                    if at > sim.now:
                        yield sim.timeout(at - sim.now)
                    yield from link.transmit(Frame("a", "b", i, size))
                    log.append(("departed", sim.now, i))

            def receiver():
                while True:
                    frame = yield link.receive()
                    log.append(("arrived", sim.now, frame.payload))

            sim.process(receiver())
            for who in range(4):
                sim.process(sender(who))
            sim.run()
            return log, link.stats()

        assert run(Link) == run(_RefLink)


# -- when the time-dependent checks are consulted -----------------------------


def _receive_one(port):
    yield port.receive()


class TestDepartureTimeChecks:
    def test_link_down_opening_while_queued_drops_at_departure(self):
        sim = Simulator()
        plan = FaultPlan()
        # 138 B at 1 MB/s: departures at 138 us and 276 us.
        plan.windowed("flap", "uplink", FaultKind.LINK_DOWN, 200e-6, 1e-3)
        link = Link(sim, bandwidth=1e6, propagation=0).attach_faults(
            FaultInjector(sim, plan), "uplink"
        )
        arrivals = []

        def receiver():
            while True:
                frame = yield link.receive()
                arrivals.append(frame.payload)

        sim.process(receiver())
        # Both frames are queued at t=0, while the link is still up.
        link.launch(Frame("a", "b", "first", 100))
        link.launch(Frame("a", "b", "second", 100))
        sim.run()
        assert arrivals == ["first"]
        assert link.stats().frames_sent == 2
        assert link.stats().frames_dropped == 1

    def test_wan_partition_and_heal_judged_at_departure(self):
        sim = Simulator()
        link = WanLink(sim, "a", "b", bandwidth=1e6, propagation=0)
        arrivals = []

        def receiver():
            while True:
                frame = yield link.receive()
                arrivals.append(frame.payload)

        def operator():
            link.partition()  # after both frames are queued
            yield sim.timeout(200e-6)  # between the two departures
            link.heal()

        sim.process(receiver())
        link.launch(Frame("a", "b", "first", 100))
        link.launch(Frame("a", "b", "second", 100))
        sim.process(operator())
        sim.run()
        assert arrivals == ["second"]
        assert link.frames_partitioned == 1
        assert link.stats().frames_dropped == 1

    def test_blackhole_set_during_forward_stage_drops(self):
        sim = Simulator()
        net = Network(sim)
        a = net.endpoint("a")
        b = net.endpoint("b")
        frame = Frame("a", "b", None, 100)
        at_switch = net.port("a").route().serialization_delay(frame) + (
            DEFAULT_PROPAGATION
        )
        arrivals = []

        def receiver():
            yield b.receive()
            arrivals.append(sim.now)

        def operator():
            yield sim.timeout(at_switch + SWITCH_FORWARD_LATENCY / 2)
            net.switch.blackhole("b")

        sim.process(receiver())
        sim.process(operator())
        sim.process(a.send(frame))
        sim.run()
        assert arrivals == []
        assert net.switch.frames_blackholed == 1
        assert net.switch.frames_forwarded == 0

    def test_queued_frame_span_runs_from_enqueue_to_departure(self):
        sim = Simulator()
        tracer = sim.tracer.enable()
        link = Link(sim, bandwidth=1e6, propagation=0)
        flows = [tracer.flow(), tracer.flow()]

        def send(payload):
            yield from link.transmit(Frame("a", "b", payload, 100))

        for i, flow in enumerate(flows):
            sim.process(tracer.drive(send(i), flow))
        sim.run()
        spans = {
            span.trace_id: span for root in tracer.roots for span in root.walk()
        }
        first, second = (spans[flow.trace_id] for flow in flows)
        assert (first.name, first.start, first.end) == ("net.tx", 0.0, 138e-6)
        assert second.start == 0.0  # opened when enqueued behind the first
        assert second.end == 138e-6 + 138e-6  # closed at its departure

    def test_switch_hop_span_joins_the_frame_flow(self):
        sim = Simulator()
        tracer = sim.tracer.enable()
        net = Network(sim)
        a = net.endpoint("a")
        b = net.endpoint("b")
        flow = tracer.flow()
        sim.process(tracer.drive(a.send(Frame("a", "b", None, 100)), flow))
        sim.process(_receive_one(b))
        sim.run()
        hops = [
            span for root in tracer.roots for span in root.walk()
            if span.name == "net.tx"
        ]
        assert [span.attrs["component"] for span in hops] == [
            "net.link.a.up", "net.link.b.down",
        ]
        assert {span.trace_id for span in hops} == {flow.trace_id}
        uplink, downlink = hops
        assert downlink.start == (
            uplink.end + DEFAULT_PROPAGATION + SWITCH_FORWARD_LATENCY
        )
