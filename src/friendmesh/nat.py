"""NAT classification, and whether a NAT needs a relay.

Classification runs the three-probe decision tree against a dual-homed
probe server: mapped-equals-local, reply-from-alternate-address, and
mapped-stability across destinations with an alternate-port tiebreak.
Only this minimal subset of the standard is implemented. The simulator
probes through `simnet.core.SimStunProbes`; a peer given no probes, as a
CLI peer is, classifies itself as public.

The NAT type never leaves the peer. A peer whose NAT needs a relay
registers port 0 and its relay's endpoint, or no route at all when it got
no relay; any other peer registers its mapped address. A caller reads the
route from those signed fields alone (records.RegistrationRecord.route).
"""
from __future__ import annotations

import enum
from typing import Protocol

from .errors import NetworkUnreachable


class NatType(enum.Enum):
    PUBLIC = "public"
    FULL_CONE = "full_cone"
    ADDRESS_RESTRICTED = "address_restricted"
    PORT_RESTRICTED = "port_restricted"
    SYMMETRIC = "symmetric"


def needs_relay(nat: NatType) -> bool:
    """Hole punching cannot open these NATs for unsolicited inbound traffic."""
    return nat in (NatType.ADDRESS_RESTRICTED, NatType.PORT_RESTRICTED, NatType.SYMMETRIC)


class StunProbes(Protocol):
    """Probe surface the classifier needs.

    probe() sends a binding request to the primary (server=0) or secondary
    (server=1) server address, optionally asking the reply to come from the
    alternate address and/or alternate port. It returns the mapped
    (address, port) seen by the server, or None when no reply arrives.
    """

    def probe(
        self, server: int = 0, change_address: bool = False, change_port: bool = False
    ) -> tuple[str, int] | None:
        ...

    def local_endpoint(self) -> tuple[str, int]:
        ...


def stun_classify(probes: StunProbes) -> NatType:
    mapped = probes.probe(server=0)
    if mapped is None:
        raise NetworkUnreachable("no reply from any probe server")
    if mapped == probes.local_endpoint():
        return NatType.PUBLIC
    # Behind a NAT: does a reply from the alternate server address get in?
    if probes.probe(server=0, change_address=True, change_port=True) is not None:
        return NatType.FULL_CONE
    mapped_other = probes.probe(server=1)
    if mapped_other is None:
        raise NetworkUnreachable("no reply from alternate probe server")
    if mapped_other != mapped:
        return NatType.SYMMETRIC
    # Stable mapping; restricted variant distinguished by the alternate-port test.
    if probes.probe(server=0, change_port=True) is not None:
        return NatType.ADDRESS_RESTRICTED
    return NatType.PORT_RESTRICTED
