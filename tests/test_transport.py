import random

import pytest
from hypothesis import given, settings, strategies as st

from friendmesh import rudp
from friendmesh.errors import NetworkUnreachable, PeerUnreachable
from friendmesh.nat import (
    WIRE_NAT_KINDS,
    NatType,
    Route,
    connect_strategy,
    needs_relay,
    stun_classify,
    wire_nat_kind,
)


class FakeProbes:
    """Scripted probe surface modelling the four NAT binding behaviors."""

    def __init__(self, behavior, local=("192.168.1.5", 4000), external="7.7.7.7"):
        self.behavior = behavior
        self.local = local
        self.external = external
        self._per_dest_port = {}
        self._next_port = 40000

    def local_endpoint(self):
        return self.local

    def probe(self, server=0, change_address=False, change_port=False):
        if self.behavior == "dead":
            return None
        if self.behavior == "public":
            return self.local
        if self.behavior == "symmetric":
            # A different destination requires a different NAT binding.
            if server not in self._per_dest_port:
                self._per_dest_port[server] = self._next_port
                self._next_port += 1
            mapped = (self.external, self._per_dest_port[server])
        else:
            mapped = (self.external, 40000)
        if change_address:
            # Reply arrives only when any external host may send packets in.
            return mapped if self.behavior == "full_cone" else None
        if change_port:
            if self.behavior in ("full_cone", "address_restricted"):
                return mapped
            return None
        return mapped


@pytest.mark.parametrize(
    "behavior,expected",
    [
        ("public", NatType.PUBLIC),
        ("full_cone", NatType.FULL_CONE),
        ("address_restricted", NatType.ADDRESS_RESTRICTED),
        ("port_restricted", NatType.PORT_RESTRICTED),
        ("symmetric", NatType.SYMMETRIC),
    ],
)
def test_stun_classify(behavior, expected):
    assert stun_classify(FakeProbes(behavior)) is expected


def test_stun_no_reply():
    with pytest.raises(NetworkUnreachable):
        stun_classify(FakeProbes("dead"))


def test_wire_nat_kinds():
    assert wire_nat_kind(NatType.PUBLIC) == "public"
    assert wire_nat_kind(NatType.FULL_CONE) == "full_cone"
    for t in (NatType.ADDRESS_RESTRICTED, NatType.PORT_RESTRICTED, NatType.SYMMETRIC):
        assert wire_nat_kind(t) == "non_full_cone"
        assert needs_relay(t)
    assert not needs_relay(NatType.PUBLIC)
    assert not needs_relay(NatType.FULL_CONE)


def test_connect_strategy_table():
    assert connect_strategy("public", False) is Route.DIRECT
    assert connect_strategy("non_full_cone", True) is Route.RELAY
    assert connect_strategy("non_full_cone", False) is Route.UNREACHABLE
    assert connect_strategy("full_cone", False) is Route.HOLE_PUNCH
    assert connect_strategy(wire_nat_kind(NatType.PORT_RESTRICTED), True) is Route.RELAY
    assert connect_strategy("no_such_kind", True) is Route.UNREACHABLE


def test_connect_strategy_total_and_deterministic():
    for kind in (*WIRE_NAT_KINDS, ""):
        for has_relay in (False, True):
            first = connect_strategy(kind, has_relay)
            assert first is connect_strategy(kind, has_relay)
            assert isinstance(first, Route)


# ---------------------------------------------------------------------------
# Reliable datagram layer
# ---------------------------------------------------------------------------


class LossyMedium:
    """Seeded loss / reorder / duplication model for datagrams."""

    def __init__(self, seed, loss=0.0, reorder_window_ms=0, dup=0.0, latency=5):
        self.rng = random.Random(seed)
        self.loss = loss
        self.reorder = reorder_window_ms
        self.dup = dup
        self.latency = latency

    def transfer(self, datagram, now):
        out = []
        copies = 1 + (1 if self.rng.random() < self.dup else 0)
        for _ in range(copies):
            if self.rng.random() < self.loss:
                continue
            jitter = self.rng.randint(0, self.reorder) if self.reorder else 0
            out.append((now + self.latency + jitter, datagram))
        return out


def roundtrip(messages, seed=1, loss=0.0, reorder=0, dup=0.0):
    a = rudp.ArqEndpoint()
    b = rudp.ArqEndpoint()
    for m in messages:
        a.send_message(m)
    rudp.pump(a, b, LossyMedium(seed, loss=loss, reorder_window_ms=reorder, dup=dup))
    got = []
    while (m := b.recv_message()) is not None:
        got.append(m)
    return got


def test_clean_delivery_preserves_boundaries():
    msgs = [b"alpha", b"", b"gamma" * 300]
    assert roundtrip(msgs) == msgs


def test_one_mib_over_ten_percent_loss_with_reorder():
    # Byte-compare oracle: payload arrives intact despite loss and reorder.
    payload = random.Random(42).randbytes(1024 * 1024)
    got = roundtrip([payload], seed=7, loss=0.10, reorder=4 * 5, dup=0.02)
    assert got == [payload]


def test_zero_length_message_delivered_as_empty():
    assert roundtrip([b""]) == [b""]


def test_send_on_closed_conn_raises():
    a = rudp.ArqEndpoint()
    a.close()
    with pytest.raises(PeerUnreachable):
        a.send_message(b"late")


def test_peer_death_detected_by_retransmit_exhaustion():
    a = rudp.ArqEndpoint()
    a.send_message(b"hello?")

    class BlackHole:
        def transfer(self, datagram, now):
            return []

    b = rudp.ArqEndpoint()
    rudp.pump(a, b, BlackHole(), limit_ms=10_000_000)
    assert a.dead
    with pytest.raises(PeerUnreachable):
        a.recv_message()


@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.floats(min_value=0.0, max_value=0.20),
    n_msgs=st.integers(min_value=1, max_value=8),
)
def test_reliable_delivery_property(seed, loss, n_msgs):
    # For loss <= 20% and any reorder within the window, the received
    # stream equals the sent stream.
    rng = random.Random(seed)
    msgs = [rng.randbytes(rng.randrange(0, 5000)) for _ in range(n_msgs)]
    assert roundtrip(msgs, seed=seed, loss=loss, reorder=30, dup=0.05) == msgs


def test_bidirectional_exchange():
    a = rudp.ArqEndpoint()
    b = rudp.ArqEndpoint()
    a.send_message(b"ping")
    b.send_message(b"pong")
    rudp.pump(a, b, LossyMedium(3, loss=0.05))
    assert b.recv_message() == b"ping"
    assert a.recv_message() == b"pong"
