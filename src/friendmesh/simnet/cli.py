"""Simulator CLI: run scenario files, replay traces, report metrics.

    friendmesh-sim run <scenario.json> [--seed N] [--trace out.trace]
    friendmesh-sim replay <trace>
    friendmesh-sim report <trace>   (adds frames and bytes per message type)

A trace file starts with one `#config {canonical json}` line followed by
the event records, so a trace alone is enough to reproduce itself.
"""
from __future__ import annotations

import argparse
import sys

from ..errors import ConfigError
from .metrics import metric_records, metrics_from_trace, summary_table, type_table
from .scenario import SimConfig, run_scenario


def _load_trace(path: str) -> tuple[SimConfig, str]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    header, _, _ = text.partition("\n")
    if not header.startswith("#config "):
        raise ConfigError("trace missing #config header")
    return SimConfig.from_json(header[len("#config "):]), text


def cmd_run(args: argparse.Namespace) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        try:
            config = SimConfig.from_json(fh.read())
        except ConfigError as exc:
            raise ConfigError(f"{args.scenario}: {exc}") from exc
    if args.seed is not None:
        config.seed = args.seed
    metrics, trace = run_scenario(config)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace)
    for record in metric_records(metrics):
        print(record)
    print()
    print(summary_table(metrics))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    config, original = _load_trace(args.trace)
    _, regenerated = run_scenario(config)
    if regenerated == original:
        print(f"replay ok: {len(original.splitlines())} trace lines reproduced byte-identically")
        return 0
    print("replay MISMATCH: trace is not reproducible from its config header")
    return 1


def cmd_report(args: argparse.Namespace) -> int:
    _, text = _load_trace(args.trace)
    metrics = metrics_from_trace(text)
    for record in metric_records(metrics):
        print(record)
    print()
    print(summary_table(metrics))
    print()
    print(type_table(metrics))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="friendmesh-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--trace", default=None, help="write the event trace here")
    run_p.set_defaults(fn=cmd_run)

    replay_p = sub.add_parser("replay", help="re-execute a trace's config and compare")
    replay_p.add_argument("trace")
    replay_p.set_defaults(fn=cmd_replay)

    report_p = sub.add_parser("report", help="recompute metrics from a trace")
    report_p.add_argument("trace")
    report_p.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
