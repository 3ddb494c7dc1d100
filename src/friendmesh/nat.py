"""NAT classification and connectability rules.

Classification runs the three-probe decision tree against a dual-homed
probe server: mapped-equals-local, reply-from-alternate-address, and
mapped-stability across destinations with an alternate-port tiebreak.
Only this minimal subset of the standard is implemented. The simulator
probes through `simnet.core.SimStunProbes`; a peer given no probes, as a
CLI peer is, registers as public.
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


class Route(enum.Enum):
    DIRECT = "direct"
    RELAY = "relay"
    UNREACHABLE = "unreachable"


# The three wire kinds a registration record may carry.
WIRE_NAT_KINDS = ("public", "full_cone", "non_full_cone")


def wire_nat_kind(nat: NatType) -> str:
    """Collapse the five classification outcomes to the three wire kinds."""
    if nat is NatType.PUBLIC:
        return "public"
    if nat is NatType.FULL_CONE:
        return "full_cone"
    return "non_full_cone"


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


def connect_strategy(nat_kind: str, has_relay: bool) -> Route:
    """Pick the route for reaching the owner of a record of one of the three
    wire kinds. Total and deterministic. A public or full-cone owner is
    dialled at its recorded address. A non-full-cone owner admits no
    unsolicited inbound traffic, so it is reached through its relay."""
    if nat_kind in ("public", "full_cone"):
        return Route.DIRECT
    if nat_kind == "non_full_cone" and has_relay:
        return Route.RELAY
    return Route.UNREACHABLE
