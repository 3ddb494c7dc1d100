"""Component configuration dataclasses.

Field sets mirror what each component reads: ports, addresses, the
rendezvous database path, timing and ring settings. Every field is read by
its component; fixed protocol choices (the session cipher, the complaint
freshness of 10 stabilization periods, the relayed peer's mux stream cap)
are constants of the code, not settings. A rendezvous server evicts a ring
member once complaint_threshold distinct peers registered with it have
filed fresh signed complaints: r = 3 on every server unless a scenario
sets another, a fixed count, so adjudication sends no ring traffic. The
CLI runners take key and certificate files from their arguments; the
simulator injects keys and state directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RendezvousConfig:
    port: int = 7200
    db_url: str = ":memory:"  # sqlite path, or :memory:
    refresh_interval_ms: int = 2000  # how often a relay reports its load
    ring_bits: int = 128
    ring_enabled: bool = False
    complaint_threshold: int = 3  # distinct registered complainants that evict a server
    stabilization_period_ms: int = 2000

    @property
    def age_ms(self) -> int:
        """How long a relay's last report keeps it selectable: 3 refresh intervals."""
        return 3 * self.refresh_interval_ms

    @property
    def freshness_ms(self) -> int:
        """How old a complaint may be: 10 stabilization periods."""
        return 10 * self.stabilization_period_ms


@dataclass
class RelayConfig:
    rendezvous_addr: str = "127.0.0.1"
    rendezvous_port: int = 7200
    port: int = 7300
    max_connections: int = 32
    ping_interval_ms: int = 2000  # least time between two probes of one leg, sent only when full


@dataclass
class PeerConfig:
    username: str = ""
    port: int = 7500
    ca_addr: str = ""
    rendezvous_addrs: list[str] = field(default_factory=list)
    global_mode: bool = False
    notification_threshold: int = 3
