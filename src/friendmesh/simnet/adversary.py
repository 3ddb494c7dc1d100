"""Scripted adversaries applied at the wire/handler layer.

Behaviors wrap a node's service or store without touching honest code
paths, compose freely, and honor per-victim and per-time selectivity:

  drop_lookups    silently swallow lookup requests (routing attack: refuse)
  misroute        answer victim lookups with an accomplice or dead address
  claim_key       answer victim lookups with the attacker's own address
  falsify_record  corrupt the stored record served for victim passphrases
  sybil_spawn     flood the ring with attacker rendezvous servers
  eclipse_attempt poison ring-state replies (state and notify) with attacker addresses
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import wire
from ..channel import Service, Session, SessionContext
from ..chord import dual_hash
from ..errors import ProtocolError
from ..wire import Frame


@dataclass
class AdversaryScript:
    behaviors: list[str] = field(default_factory=list)
    targets: list[str] = field(default_factory=list)  # corrupted node addrs
    victims: list[str] | None = None  # usernames; None = everyone
    start_ms: int = 0
    end_ms: int | None = None
    count: int = 0  # sybil servers to spawn
    key_target: str = ""  # username whose key the sybils chase
    accomplice: str = ""  # where misroute points; empty = dead address

    def active(self, now: int) -> bool:
        if now < self.start_ms:
            return False
        return self.end_ms is None or now < self.end_ms


DEAD_ADDR = "10.66.99.99:7200"


def victim_idents(script: AdversaryScript, bits: int) -> set[int] | None:
    if script.victims is None:
        return None
    idents: set[int] = set()
    for username in script.victims:
        ids = dual_hash(username, bits)
        idents.update(ids.both())
    return idents


class AdversaryService:
    """Service wrapper lying on lookup/ring traffic per the script."""

    def __init__(self, inner: Service, sim, script: AdversaryScript, self_addr: str, bits: int):
        self.inner = inner
        self.sim = sim
        self.script = script
        self.self_addr = self_addr
        self.idents = victim_idents(script, bits)
        self.attacker_addrs = [self_addr] + ([script.accomplice] if script.accomplice else [])

    def open_session(self, ctx: SessionContext) -> "AdversarySession":
        return AdversarySession(self, self.inner.open_session(ctx))


class AdversarySession:
    def __init__(self, wrapper: AdversaryService, inner: Session):
        self.wrapper = wrapper
        self.inner = inner

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        wrapper = self.wrapper
        script = wrapper.script
        if script.active(wrapper.sim.now):
            scripted = self._scripted_reply(frame)
            if scripted is not NO_ACTION:
                return scripted
            if frame.msg_type == wire.RING_NOTIFY and "eclipse_attempt" in script.behaviors:
                # The notify is taken, and whether it adopted the notifier is
                # told truly; the state its reply carries is poisoned, and
                # never "unchanged".
                try:
                    adopted = wire.open_reply(self.inner.handle(frame, ctx), wire.RING_NOTIFY)[0]
                except ProtocolError:
                    adopted = False
                return wire.reply(wire.RING_NOTIFY, adopted, wrapper.attacker_addrs[0],
                                  wrapper.attacker_addrs)
        return self.inner.handle(frame, ctx)

    def _scripted_reply(self, frame: Frame):
        wrapper = self.wrapper
        behaviors = wrapper.script.behaviors
        if frame.msg_type == wire.CHORD_LOOKUP:
            ident = self._ident_of(frame)
            victim_hit = wrapper.idents is None or ident in wrapper.idents
            if "drop_lookups" in behaviors:
                return None  # refuse to forward: silence
            if victim_hit and "claim_key" in behaviors:
                return wire.reply(wire.CHORD_LOOKUP, wrapper.self_addr, 0)
            if victim_hit and "misroute" in behaviors:
                decoy = wrapper.script.accomplice or DEAD_ADDR
                return wire.reply(wire.CHORD_LOOKUP, decoy, 0)
        if frame.msg_type == wire.RING_CLOSEST and "drop_lookups" in behaviors:
            return None
        if frame.msg_type in (wire.RING_STATE, wire.RING_CLOSEST) and "eclipse_attempt" in behaviors:
            poison = wrapper.attacker_addrs[0]
            if frame.msg_type == wire.RING_STATE:
                return wire.reply(wire.RING_STATE, poison, wrapper.attacker_addrs)
            return wire.reply(wire.RING_CLOSEST, poison, poison, [])
        return NO_ACTION

    @staticmethod
    def _ident_of(frame: Frame) -> int:
        try:
            (ident,) = wire.decode(wire.CHORD_LOOKUP, frame.payload)
        except ProtocolError:
            return -1
        return ident


NO_ACTION = object()


class FalsifyingStore:
    """Store wrapper serving corrupted records for victim lookups (T.1)."""

    def __init__(self, inner, sim, script: AdversaryScript):
        self.inner = inner
        self.sim = sim
        self.script = script

    def _corrupt(self, row):
        record = row.record
        bad = type(record)(**{**record.__dict__, "ip": "6.6.6.6", "port": 6666})
        return replace(row, record=bad)

    def peer_by_passphrase(self, passphrase: str):
        row = self.inner.peer_by_passphrase(passphrase)
        if row is None or not self.script.active(self.sim.now):
            return row
        if self.script.victims is None or row.record.username in self.script.victims:
            return self._corrupt(row)
        return row

    def __getattr__(self, name):
        return getattr(self.inner, name)
