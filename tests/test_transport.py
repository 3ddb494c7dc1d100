import pytest

from friendmesh.errors import NetworkUnreachable
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
    assert connect_strategy("full_cone", False) is Route.DIRECT
    assert connect_strategy(wire_nat_kind(NatType.PORT_RESTRICTED), True) is Route.RELAY
    assert connect_strategy("no_such_kind", True) is Route.UNREACHABLE


def test_connect_strategy_total_and_deterministic():
    for kind in (*WIRE_NAT_KINDS, ""):
        for has_relay in (False, True):
            first = connect_strategy(kind, has_relay)
            assert first is connect_strategy(kind, has_relay)
            assert isinstance(first, Route)
