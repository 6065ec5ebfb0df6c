#!/usr/bin/env python3
"""Validates a ChromeTraceSink export against the subset of the Chrome
trace-event format it is supposed to emit.

Checks, beyond `json.tool` well-formedness:
  - top level: {"traceEvents": [...], "displayTimeUnit": "ms"}
  - every event has name/ph/pid/tid; ph is one of B, E, i, M
  - B/E/i events carry a numeric, non-negative "ts"
  - per (pid, tid): timestamps are non-decreasing and B/E properly nest
  - instant events carry scope "t"; metadata events carry args.name
  - a SwitchlessRefuse instant (a ring header refused for claiming more
    entries than the ring holds) carries non-negative integer
    args.ring and args.claimed

Usage: check_trace_schema.py TRACE.json
"""
import json
import sys


def fail(msg):
    print(f"schema error: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: check_trace_schema.py TRACE.json")
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    if not isinstance(doc, dict):
        fail("top level must be an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents must be a list")
    if doc.get("displayTimeUnit") != "ms":
        fail("displayTimeUnit must be 'ms'")

    stacks = {}  # (pid, tid) -> list of open B names
    last_ts = {}  # (pid, tid) -> last timestamp seen
    counts = {"B": 0, "E": 0, "i": 0, "M": 0}
    for n, ev in enumerate(events):
        where = f"event #{n} ({ev.get('name', '?')!r})"
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                fail(f"{where}: missing {key!r}")
        ph = ev["ph"]
        if ph not in counts:
            fail(f"{where}: unknown phase {ph!r}")
        counts[ph] += 1
        track = (ev["pid"], ev["tid"])
        if ph == "M":
            if ev.get("args", {}).get("name") is None:
                fail(f"{where}: metadata event without args.name")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{where}: bad ts {ts!r}")
        if ts < last_ts.get(track, 0):
            fail(f"{where}: ts went backwards on track {track}")
        last_ts[track] = ts
        if ph == "B":
            stacks.setdefault(track, []).append(ev["name"])
        elif ph == "E":
            stack = stacks.get(track, [])
            if not stack:
                fail(f"{where}: E without matching B on track {track}")
            stack.pop()
        elif ph == "i":
            if ev.get("s") != "t":
                fail(f"{where}: instant event without scope 't'")
            if ev["name"] == "SwitchlessRefuse":
                args = ev.get("args", {})
                for key in ("ring", "claimed"):
                    value = args.get(key)
                    if (not isinstance(value, int) or isinstance(value, bool)
                            or value < 0):
                        fail(f"{where}: args.{key} must be a non-negative "
                             f"integer, got {value!r}")

    open_spans = {t: s for t, s in stacks.items() if s}
    if open_spans:
        fail(f"unclosed B spans at end of trace: {open_spans}")
    if counts["B"] == 0:
        fail("trace contains no duration spans at all")
    print(
        f"trace schema ok: {len(events)} events "
        f"({counts['B']} spans, {counts['i']} instants, "
        f"{counts['M']} metadata) on {len(last_ts)} tracks"
    )


if __name__ == "__main__":
    main()
