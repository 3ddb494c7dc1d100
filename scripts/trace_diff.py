"""Compare the simulator traces of two checkouts, scenario by scenario.

    python3 scripts/trace_diff.py [--untimed] BASE CHANGE

BASE and CHANGE are checkout directories. Every scenario in CHANGE's
scenarios/ runs once in each checkout, in a fresh process with that
checkout's src/ on the path, and the two traces are compared line by line
with each MSG line's frame size left out, so a line is kept when its time,
kind, ends and message type are. With --untimed each line's time is left
out too, so a change that drops or shortens exchanges, and with them moves
every later time, shows only the lines it changed. Per scenario it prints
the lines kept, added and removed, the added and removed ones by kind,
and, among the kept MSG lines, the frames whose size moved, by direction,
message type and bytes moved. The config line each trace starts with is
compared as any other line.
"""
from __future__ import annotations

import difflib
import os
import subprocess
import sys
from collections import Counter

RUN = """
import pathlib, sys
from friendmesh.simnet.scenario import SimConfig, run_scenario
_, trace = run_scenario(SimConfig.from_json(pathlib.Path(sys.argv[1]).read_text()))
sys.stdout.write(trace)
"""


def trace(checkout: str, scenario: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run([sys.executable, "-c", RUN, scenario], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def key(line: str, untimed: bool = False) -> str:
    """The line without its frame size, when it is a MSG line, and
    without its time when untimed."""
    parts = line.split(" ")
    if len(parts) == 7 and parts[1] == "MSG":
        parts = parts[:-1]
    return " ".join(parts[1:] if untimed and line[:1] != "#" else parts)


def size(line: str) -> int:
    """A MSG line's frame size; 0 for any other line."""
    parts = line.split(" ")
    return int(parts[-1]) if len(parts) == 7 and parts[1] == "MSG" else 0


def kind(line: str) -> str:
    """"req <type>" or "rep <type>" for a MSG line, "EV <event>" for an event."""
    parts = line.split(" ")
    if len(parts) > 2 and parts[1] == "MSG":
        return f"{parts[2]} {parts[5]}"
    return " ".join(parts[1:3]) if len(parts) > 2 else line


def compare(base: list[str], change: list[str], untimed: bool = False) -> dict:
    a, b = [key(line, untimed) for line in base], [key(line, untimed) for line in change]
    kept, added, removed, moved = 0, Counter(), Counter(), Counter()
    for op, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if op == "equal":
            kept += i2 - i1
            for old, new in zip(base[i1:i2], change[j1:j2]):
                delta = size(new) - size(old)
                if delta:
                    moved[kind(new), delta] += 1
        else:
            removed.update(kind(line) for line in base[i1:i2])
            added.update(kind(line) for line in change[j1:j2])
    return {"kept": kept, "added": added, "removed": removed, "moved": moved}


def report(name: str, diff: dict) -> list[str]:
    lines = [f"{name}: {diff['kept']} lines kept, {sum(diff['added'].values())} added, "
             f"{sum(diff['removed'].values())} removed"]
    for label in ("added", "removed"):
        for what, count in sorted(diff[label].items()):
            lines.append(f"  {label} {what}: {count}")
    for (what, delta), count in sorted(diff["moved"].items()):
        lines.append(f"  moved {what}: {count} frames {delta:+d} B")
    return lines


def main(argv: list[str]) -> int:
    untimed = argv[:1] == ["--untimed"]
    argv = argv[untimed:]
    if len(argv) != 2:
        print("usage: python3 scripts/trace_diff.py [--untimed] BASE CHANGE", file=sys.stderr)
        return 2
    base, change = (os.path.abspath(path) for path in argv)
    scenarios = os.path.join(change, "scenarios")
    for name in sorted(f[:-5] for f in os.listdir(scenarios) if f.endswith(".json")):
        path = os.path.join(scenarios, f"{name}.json")
        print("\n".join(report(name, compare(trace(base, path), trace(change, path), untimed))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
