"""Exporters: JSON-lines event dumps and human-readable timelines.

The JSONL dump is the machine-readable interface (one event per line, in
global emission order); the timeline printer is the "why was this
transaction slow?" view, showing each lifecycle phase with its offset
from the transaction's first event.
"""

from __future__ import annotations

import json
from typing import IO, Union

from .trace import Tracer, TxTrace


def trace_events_jsonl(tracer: Tracer) -> str:
    """Every retained span event as JSON lines, in emission order.

    Deterministic for a seeded run: event ordering follows the kernel's
    scheduling order and all timestamps are simulated time.
    """
    lines = [
        json.dumps(event.to_dict(), sort_keys=False, separators=(",", ":"))
        for event in tracer.events()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def dump_jsonl(tracer: Tracer, dest: Union[str, IO[str]]) -> int:
    """Write the JSONL dump to a path or file object; returns #events."""
    text = trace_events_jsonl(tracer)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)
    return tracer.events_recorded if not text else text.count("\n")


def format_timeline(trace: TxTrace) -> str:
    """Render one transaction's spans as an offset-annotated timeline::

        tx-42 (slow commit, origin site 0)
          +0.000ms  execute              site=0
          +1.207ms  slow_commit.prepare  site=0
          ...
    """
    if not trace.events:
        return "%s (no events)" % trace.tid
    t0 = trace.events[0].t
    kind = trace.commit_kind
    header = "%s (%s, origin site %s)" % (
        trace.tid,
        ("%s commit" % kind) if kind else "no commit",
        trace.origin_site,
    )
    name_width = max(len(e.name) for e in trace.events)
    lines = [header]
    for event in trace.events:
        extra = "".join(
            " %s=%s" % (k, event.extra[k]) for k in sorted(event.extra)
        )
        lines.append(
            "  +%9.3fms  %-*s site=%d%s"
            % ((event.t - t0) * 1e3, name_width, event.name, event.site, extra)
        )
    return "\n".join(lines)
