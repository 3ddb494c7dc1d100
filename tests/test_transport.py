import pytest

from friendmesh.errors import NetworkUnreachable
from friendmesh.identity import SignedDigest
from friendmesh.nat import NatType, needs_relay, stun_classify
from friendmesh.records import RegistrationRecord


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


def test_needs_relay():
    for t in (NatType.ADDRESS_RESTRICTED, NatType.PORT_RESTRICTED, NatType.SYMMETRIC):
        assert needs_relay(t)
    assert not needs_relay(NatType.PUBLIC)
    assert not needs_relay(NatType.FULL_CONE)


def test_record_route():
    """A record routes to its relay when it names one, else to ip:port when
    the port is non-zero, else nowhere."""

    def route(port, relay_address="", relay_port=0):
        return RegistrationRecord(
            "alice", "7.7.7.7", port, "tcp", relay_address, relay_port, "pw", b"",
            SignedDigest(b"", b""),
        ).route

    assert route(7500) == ("7.7.7.7:7500", False)  # direct
    assert route(0, "10.0.0.9", 7300) == ("10.0.0.9:7300", True)  # relay
    assert route(0) == ("", False)  # none: an outbound-only owner
    assert route(7500, "10.0.0.9", 7300) == ("10.0.0.9:7300", True)  # the relay wins over a port
