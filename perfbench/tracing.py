"""Spans around the program's public functions, installed from outside.

`Tracer.install()` replaces every public function of each layer module, and
every public method of its public classes, with a wrapper that records a
span: name, start, end, parent span and the id of the user operation in
flight. Module functions are replaced in every friendmesh module that
imported them by name. A span's self time is its duration minus the time
its child spans cover; children run on the same thread, so that is the sum
of their durations. Each thread keeps its own span columns (loopback
servers answer on their own threads); all are written out when the run
ends.

A few leaf helpers are called so often (per ring hop, per log entry) that
a span each would cost more memory and time than the work they measure.
Those in COUNT_ONLY are counted, not timed: their time stays in the
caller's span. wire.frame_from_stream is among them because it blocks on
the socket: a client's wait belongs to its request (netio), and a server
thread's wait for the next request is no layer's work. Those in UNKEPT (field packing, called for every log entry)
are timed and counted like any span, but not kept one by one.
"""
from __future__ import annotations

import array
import gzip
import os
import sys
import threading
import time
from collections import Counter

import friendmesh.chord
import friendmesh.identity
import friendmesh.netio
import friendmesh.peer
import friendmesh.profile
import friendmesh.records
import friendmesh.relay
import friendmesh.rendezvous
import friendmesh.secure
import friendmesh.sentinel
import friendmesh.simnet.core
import friendmesh.store
import friendmesh.wire

LAYERS = {
    "wire": friendmesh.wire,
    "identity": friendmesh.identity,
    "secure": friendmesh.secure,
    "records": friendmesh.records,
    "store": friendmesh.store,
    "rendezvous": friendmesh.rendezvous,
    "chord": friendmesh.chord,
    "sentinel": friendmesh.sentinel,
    "relay": friendmesh.relay,
    "peer": friendmesh.peer,
    "profile": friendmesh.profile,
    "netio": friendmesh.netio,
    "simnet": friendmesh.simnet.core,
}

COUNT_ONLY = {
    "wire.pack_str", "wire.unpack_str", "wire.pack_int", "wire.unpack_int", "wire.frame_from_stream",
    "chord.node_ident", "chord.in_interval", "chord.ident_md5", "chord.ident_sha1",
    "profile.Profile.component_of", "profile.LogEntry.content_key", "profile.LogEntry.digest",
    "simnet.SimNet.reachable", "simnet.SimNet.cut", "simnet.SimHost.accepts_from",
}
UNKEPT = {"wire.pack_fields", "wire.unpack_fields"}


class _Thread:
    """One thread's span columns, open-span stack and aggregates."""

    def __init__(self, ident: int):
        self.ident = ident
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.stack: list[list[int]] = []  # [span index, child ns]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()


class Tracer:
    def __init__(self):
        self.op_id = 0  # the user operation in flight; 0 is upkeep
        self.names: list[str] = []
        self.threads: list[_Thread] = []
        self.hops = 0
        self.replayed = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _Thread(threading.get_ident())
            self._local.state = state
            with self._lock:
                self.threads.append(state)
        return state

    def _span(self, layer: str, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            st = tracer._thread()
            idx = len(st.start)
            st.name.append(name_id)
            st.start.append(0)
            st.end.append(0)
            st.parent.append(st.stack[-1][0] if st.stack else -1)
            st.op.append(tracer.op_id)
            frame = [idx, 0]
            st.stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.stack.pop()
                dur = t1 - t0
                st.start[idx] = t0
                st.end[idx] = t1
                st.self_ns[layer] += dur - frame[1]
                st.total_ns[qualname] += dur
                st.calls[qualname] += 1
                if st.stack:
                    st.stack[-1][1] += dur

        return traced

    def _timed(self, layer: str, qualname: str, fn):
        """A leaf span that adds to the aggregates but is not kept."""
        tracer = self
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            st = tracer._thread()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                st.self_ns[layer] += dur
                st.total_ns[qualname] += dur
                st.calls[qualname] += 1
                if st.stack:
                    st.stack[-1][1] += dur

        return timed

    def _counted(self, qualname: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer._thread().calls[qualname] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, layer: str, qualname: str, fn):
        if qualname in COUNT_ONLY:
            wrapped = self._counted(qualname, fn)
        elif qualname in UNKEPT:
            wrapped = self._timed(layer, qualname, fn)
        else:
            wrapped = self._span(layer, qualname, fn)
        if qualname == "chord.RingNode.find_successor":
            inner = wrapped

            def with_hops(*args, **kwargs):
                result = inner(*args, **kwargs)
                self.hops += result.hops
                return result

            wrapped = with_hops
        elif qualname == "profile.Profile.replay":
            inner = wrapped

            def counting_entries(cls, owner, log):
                log = list(log)
                self.replayed += len(log)
                return inner(cls, owner, log)

            wrapped = counting_entries
        return wrapped

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        self.main_thread = threading.get_ident()
        friend_modules = [m for n, m in sys.modules.items()
                          if n.startswith("friendmesh") and m is not None]
        for layer, module in LAYERS.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._install_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == module.__name__ \
                        and hasattr(obj, "__code__"):
                    wrapped = self._wrap(layer, f"{layer}.{name}", obj)
                    for mod in friend_modules:
                        if vars(mod).get(name) is obj:
                            self._patch(mod, name, wrapped)

    def _install_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(layer, qualname, attr.__func__)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(self._wrap(layer, qualname, attr.__func__)))
            elif hasattr(attr, "__code__"):
                self._patch(cls, name, self._wrap(layer, qualname, attr))

    def _patch(self, owner, name: str, value) -> None:
        self._originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._originals):
            setattr(owner, name, value)
        self._originals.clear()

    # -- results -----------------------------------------------------------------

    def calls(self) -> Counter:
        out: Counter = Counter()
        for st in self.threads:
            out.update(st.calls)
        return out

    def self_ns(self) -> Counter:
        out: Counter = Counter()
        for st in self.threads:
            out.update(st.self_ns)
        return out

    def total_ns(self, qualname: str, thread_ident: int | None = None) -> int:
        return sum(st.total_ns[qualname] for st in self.threads
                   if thread_ident is None or st.ident == thread_ident)

    def span_count(self) -> int:
        return sum(len(st.start) for st in self.threads)

    def write(self, path: str) -> None:
        """Spans as gzipped text, one a line: thread, span, parent span (-1 at
        the root), operation id (0 for upkeep), start ns, end ns, name."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            for t, st in enumerate(self.threads):
                for i in range(len(st.start)):
                    fh.write(f"{t} {i} {st.parent[i]} {st.op[i]} {st.start[i]} {st.end[i]} "
                             f"{self.names[st.name[i]]}\n")
