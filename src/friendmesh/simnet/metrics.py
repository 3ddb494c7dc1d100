"""Metrics derived solely from the event trace."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Metrics:
    duration_ms: int = 0
    messages: int = 0
    pulls_ok: int = 0
    pulls_failed: int = 0
    locates_ok: int = 0
    locates_failed: int = 0
    chord_lookups: int = 0
    chord_hops_max: int = 0
    chord_hops_avg: float = 0.0
    sync_count: int = 0
    sync_bytes: int = 0
    posts: int = 0
    detections: list[int] = field(default_factory=list)  # times of storage_attack events
    adversary_starts: list[int] = field(default_factory=list)
    complaints: int = 0
    evictions: list[tuple[int, str]] = field(default_factory=list)
    partition_windows: list[tuple[int, int]] = field(default_factory=list)
    replica_states: list[tuple[int, str, str, str]] = field(default_factory=list)
    key_owners: dict[str, tuple[str, str]] = field(default_factory=dict)
    # Per message type, as a MSG line names it (a reply by its own code):
    # frames, and their payload bytes.
    type_frames: dict[str, int] = field(default_factory=dict)
    type_bytes: dict[str, int] = field(default_factory=dict)

    @property
    def lookup_success_rate(self) -> float | None:
        total = self.pulls_ok + self.pulls_failed
        return self.pulls_ok / total if total else None

    @property
    def availability(self) -> float | None:
        return self.lookup_success_rate

    @property
    def detection_latency_ms(self) -> int | None:
        if not self.detections or not self.adversary_starts:
            return None
        start = min(self.adversary_starts)
        after = [t for t in self.detections if t >= start]
        return (min(after) - start) if after else None

    def convergence_after_ms(self, heal_time: int) -> int | None:
        """First time after heal_time when every holder of each owner's
        replica reports the same digest as the owner."""
        rounds: dict[int, dict[str, dict[str, str]]] = {}
        for t, owner, holder, digest in self.replica_states:
            if t < heal_time:
                continue
            rounds.setdefault(t, {}).setdefault(owner, {})[holder] = digest
        for t in sorted(rounds):
            owners = rounds[t]
            if all(len(set(holders.values())) == 1 for holders in owners.values()):
                return t - heal_time
        return None


def _fields(parts: list[str]) -> dict[str, str]:
    out = {}
    for part in parts:
        if "=" in part:
            key, value = part.split("=", 1)
            out[key] = value
    return out


def metrics_from_trace(trace: str) -> Metrics:
    metrics = Metrics()
    hops_total = 0
    for line in trace.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        t = int(parts[0])
        metrics.duration_ms = max(metrics.duration_ms, t)
        kind = parts[1]
        if kind == "MSG":  # t MSG req|rep src dst type payload-bytes
            metrics.messages += 1
            name = parts[5]
            metrics.type_frames[name] = metrics.type_frames.get(name, 0) + 1
            metrics.type_bytes[name] = metrics.type_bytes.get(name, 0) + int(parts[6])
            continue
        name = parts[2]
        fields = _fields(parts[3:])
        if name == "pull_ok":
            metrics.pulls_ok += 1
        elif name == "pull_fail":
            metrics.pulls_failed += 1
        elif name == "locate":
            if fields.get("found") == "True":
                metrics.locates_ok += 1
            else:
                metrics.locates_failed += 1
        elif name == "chord_lookup":
            hops = int(fields.get("hops", 0))
            metrics.chord_lookups += 1
            hops_total += hops
            metrics.chord_hops_max = max(metrics.chord_hops_max, hops)
        elif name == "sync":
            metrics.sync_count += 1
            metrics.sync_bytes += int(fields.get("bytes", 0))
        elif name == "post":
            metrics.posts += 1
        elif name == "storage_attack_detected":
            metrics.detections.append(t)
        elif name == "adversary":
            metrics.adversary_starts.append(int(fields.get("start", t)))
        elif name == "complaint":
            metrics.complaints += 1
        elif name == "eviction":
            metrics.evictions.append((t, fields.get("accused", "")))
        elif name == "partition":
            metrics.partition_windows.append(
                (int(fields.get("start", t)), int(fields.get("end", t)))
            )
        elif name == "replica_state":
            metrics.replica_states.append(
                (t, fields.get("owner", ""), fields.get("holder", ""), fields.get("digest", ""))
            )
        elif name == "key_owner":
            metrics.key_owners[fields.get("user", "")] = (
                fields.get("md5", ""),
                fields.get("sha1", ""),
            )
    if metrics.chord_lookups:
        metrics.chord_hops_avg = hops_total / metrics.chord_lookups
    return metrics


def metric_records(metrics: Metrics) -> list[str]:
    """Line-delimited metric records."""
    rate = metrics.lookup_success_rate
    records = [
        f"metric messages={metrics.messages}",
        f"metric pulls_ok={metrics.pulls_ok}",
        f"metric pulls_failed={metrics.pulls_failed}",
        f"metric lookup_success_rate={'' if rate is None else f'{rate:.4f}'}",
        f"metric chord_lookups={metrics.chord_lookups}",
        f"metric chord_hops_max={metrics.chord_hops_max}",
        f"metric chord_hops_avg={metrics.chord_hops_avg:.2f}",
        f"metric sync_count={metrics.sync_count}",
        f"metric sync_bytes={metrics.sync_bytes}",
        f"metric posts={metrics.posts}",
        f"metric detections={len(metrics.detections)}",
        f"metric complaints={metrics.complaints}",
        f"metric evictions={len(metrics.evictions)}",
    ]
    latency = metrics.detection_latency_ms
    if latency is not None:
        records.append(f"metric detection_latency_ms={latency}")
    return records


def summary_table(metrics: Metrics) -> str:
    rows = [
        ("virtual duration (ms)", metrics.duration_ms),
        ("wire messages", metrics.messages),
        ("pulls ok / failed", f"{metrics.pulls_ok} / {metrics.pulls_failed}"),
        ("availability", "n/a" if metrics.availability is None else f"{metrics.availability:.1%}"),
        ("chord lookups (avg/max hops)", f"{metrics.chord_lookups} ({metrics.chord_hops_avg:.1f}/{metrics.chord_hops_max})"),
        ("syncs (bytes)", f"{metrics.sync_count} ({metrics.sync_bytes})"),
        ("posts", metrics.posts),
        ("storage attacks detected", len(metrics.detections)),
        ("complaints recorded", metrics.complaints),
        ("evictions", len(metrics.evictions)),
    ]
    width = max(len(label) for label, _ in rows)
    lines = [f"{label.ljust(width)}  {value}" for label, value in rows]
    return "\n".join(lines)


def type_table(metrics: Metrics) -> str:
    """Frames and payload bytes per message type, most bytes first."""
    rows = sorted(metrics.type_frames, key=lambda name: (-metrics.type_bytes[name], name))
    width = max([len(name) for name in rows] + [len("message type")])
    lines = [f"{'message type'.ljust(width)}  {'frames':>8}  {'bytes':>10}  {'B/frame':>8}"]
    for name in rows:
        frames, size = metrics.type_frames[name], metrics.type_bytes[name]
        lines.append(f"{name.ljust(width)}  {frames:>8}  {size:>10}  {size / frames:>8.1f}")
    frames, size = sum(metrics.type_frames.values()), sum(metrics.type_bytes.values())
    lines.append(f"{'total'.ljust(width)}  {frames:>8}  {size:>10}  {size / frames if frames else 0:>8.1f}")
    return "\n".join(lines)
