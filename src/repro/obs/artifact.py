"""Run artifacts: deterministic JSONL dumps of a run's observability,
and the summarize/diff logic behind ``python -m repro.obs``.

A run artifact captures everything the observability stack knows at the
end of a run, one JSON object per line:

* ``meta`` -- scenario name plus caller-supplied context (seed, sim
  time, configuration knobs);
* ``counter`` / ``gauge`` -- every registry counter and gauge, keyed
  ``name{label=value,...}``;
* ``hist`` -- every registry histogram, reduced to count/mean/quantiles;
* ``budget`` -- the per-commit-class latency-budget table (traced runs
  only; see :mod:`repro.obs.critical_path`);
* ``profile`` -- the per-site access profiler snapshot (traced runs
  only).

Artifacts are byte-identical across same-seed runs (every value derives
from simulated time), which is what makes :func:`diff_artifacts` a
meaningful regression gate: any difference is a behavior change, and
latency quantiles/budgets moving past a threshold is a regression, not
noise.  CI runs ``python -m repro.obs diff baseline.jsonl current.jsonl``
and fails the build on a non-zero exit.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .critical_path import SEGMENT_ORDER, aggregate_budgets

#: Ignore latency increases smaller than this (seconds): quantile
#: interpolation over coarse log buckets can wiggle by microseconds.
ABS_FLOOR = 5e-5


def collect_run(world, name: str, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Gather one run's artifact data from a live deployment."""
    snap = world.metrics_snapshot()
    out: Dict[str, Any] = {
        "meta": dict(
            {"name": name, "sim_time": round(world.kernel.now, 9)}, **(meta or {})
        ),
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "hists": {
            key: {
                "count": h["count"],
                "mean": round(h["sum"] / h["count"], 9) if h["count"] else 0.0,
                "p50": h["p50"],
                "p95": h["p95"],
                "p99": h["p99"],
                "p999": h["p999"],
                "max": h["max"],
            }
            for key, h in snap["histograms"].items()
        },
        "budgets": {},
    }
    if "access_profile" in snap:
        out["profiles"] = {str(site): prof for site, prof in snap["access_profile"].items()}
    tracer = world.obs.tracer
    if tracer is not None:
        table = aggregate_budgets(tracer.traces())
        out["budgets"] = table.classes
    return out


def write_run_artifact(
    path, world, name: str, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Collect and write one run artifact as JSONL; returns the data."""
    data = collect_run(world, name, meta)
    write_artifact(path, data)
    return data


def write_artifact(path, data: Dict[str, Any]) -> None:
    lines: List[str] = [_line({"kind": "meta", **data["meta"]})]
    for key in sorted(data["counters"]):
        lines.append(_line({"kind": "counter", "key": key, "value": data["counters"][key]}))
    for key in sorted(data["gauges"]):
        lines.append(_line({"kind": "gauge", "key": key, "value": data["gauges"][key]}))
    for key in sorted(data["hists"]):
        lines.append(_line({"kind": "hist", "key": key, **data["hists"][key]}))
    for cls in sorted(data["budgets"]):
        lines.append(_line({"kind": "budget", "class": cls, **data["budgets"][cls]}))
    for site in sorted(data.get("profiles", ()), key=int):
        lines.append(_line({"kind": "profile", **data["profiles"][site]}))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _line(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_artifact(path) -> Dict[str, Any]:
    """Load a JSONL run artifact back into :func:`collect_run` shape."""
    data: Dict[str, Any] = {
        "meta": {},
        "counters": {},
        "gauges": {},
        "hists": {},
        "budgets": {},
    }
    with open(path) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            obj = json.loads(raw)
            kind = obj.pop("kind")
            if kind == "meta":
                data["meta"] = obj
            elif kind == "counter":
                data["counters"][obj["key"]] = obj["value"]
            elif kind == "gauge":
                data["gauges"][obj["key"]] = obj["value"]
            elif kind == "hist":
                data["hists"][obj.pop("key")] = obj
            elif kind == "budget":
                data["budgets"][obj.pop("class")] = obj
            elif kind == "profile":
                data.setdefault("profiles", {})[str(obj["site"])] = obj
    return data


def summarize_artifact(data: Dict[str, Any]) -> str:
    """Human-oriented one-screen summary of one artifact."""
    meta = data["meta"]
    lines = [
        "run: %s" % meta.get("name", "?"),
        "  meta: %s" % json.dumps(
            {k: v for k, v in sorted(meta.items()) if k != "name"}, sort_keys=True
        ),
        "  counters: %d  gauges: %d  histograms: %d"
        % (len(data["counters"]), len(data["gauges"]), len(data["hists"])),
    ]
    for cls in ("fast", "slow"):
        budget = data["budgets"].get(cls)
        if budget is None:
            continue
        total = budget["total"]
        lines.append(
            "  %s commit (n=%d): mean %.3fms p50 %.3fms p99 %.3fms p99.9 %.3fms"
            % (
                cls,
                budget["count"],
                total["mean"] * 1e3,
                total["p50"] * 1e3,
                total["p99"] * 1e3,
                total["p999"] * 1e3,
            )
        )
        for label in SEGMENT_ORDER:
            seg = budget["segments"].get(label)
            if seg is not None:
                lines.append(
                    "    %-16s %9.3fms  %5.1f%%"
                    % (label, seg["mean"] * 1e3, seg["share"] * 100.0)
                )
    for key in sorted(data["hists"]):
        h = data["hists"][key]
        if not h["count"]:
            continue
        lines.append(
            "  %s: n=%d mean %.3fms p99 %.3fms p99.9 %.3fms"
            % (key, h["count"], h["mean"] * 1e3, h["p99"] * 1e3, h["p999"] * 1e3)
        )
    for site in sorted(data.get("profiles", ()), key=int):
        prof = data["profiles"][site]
        hot = prof["hot_keys"][:3]
        lines.append(
            "  site %s profile: %d observations, top %s"
            % (
                site,
                prof["observations"],
                ", ".join("%s(%d)" % (e["key"], e["count"]) for e in hot) or "-",
            )
        )
    return "\n".join(lines)


def diff_artifacts(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = 0.10,
) -> Tuple[List[str], List[str]]:
    """Compare two artifacts; returns ``(regressions, notes)``.

    Regressions (what CI fails on):

    * a latency-budget total or segment mean grew by more than
      ``threshold`` (relative) and :data:`ABS_FLOOR` (absolute);
    * a histogram p99/p99.9 grew the same way;
    * a throughput counter (``server.commits``) dropped by more than
      ``threshold``.

    Everything else that moved is reported as a note.  Latencies getting
    *faster* and counters growing are notes, never failures.
    """
    regressions: List[str] = []
    notes: List[str] = []

    def check_latency(what: str, base: float, cur: float) -> None:
        if base is None or cur is None:
            return
        delta = cur - base
        if delta > ABS_FLOOR and (base == 0.0 or delta / base > threshold):
            regressions.append(
                "%s: %.3fms -> %.3fms (+%.1f%%)"
                % (what, base * 1e3, cur * 1e3,
                   (delta / base * 100.0) if base else float("inf"))
            )
        elif -delta > ABS_FLOOR and base and -delta / base > threshold:
            notes.append(
                "%s improved: %.3fms -> %.3fms" % (what, base * 1e3, cur * 1e3)
            )

    for cls in sorted(set(baseline["budgets"]) | set(current["budgets"])):
        b, c = baseline["budgets"].get(cls), current["budgets"].get(cls)
        if b is None or c is None:
            notes.append("budget class %r only in %s" % (cls, "current" if b is None else "baseline"))
            continue
        for stat in ("mean", "p50", "p99", "p999"):
            check_latency("budget[%s].total.%s" % (cls, stat), b["total"][stat], c["total"][stat])
        for label in SEGMENT_ORDER:
            bs, cs = b["segments"].get(label), c["segments"].get(label)
            if bs is not None and cs is not None:
                check_latency("budget[%s].%s" % (cls, label), bs["mean"], cs["mean"])

    for key in sorted(set(baseline["hists"]) & set(current["hists"])):
        if "flush_batch" in key:
            # Batch-size distribution, not a latency: bigger batches are
            # usually better, so never fail on it.
            continue
        b, c = baseline["hists"][key], current["hists"][key]
        if not b["count"] or not c["count"]:
            continue
        for stat in ("p99", "p999"):
            check_latency("hist[%s].%s" % (key, stat), b[stat], c[stat])

    for key in sorted(set(baseline["counters"]) & set(current["counters"])):
        b, c = baseline["counters"][key], current["counters"][key]
        if b == c:
            continue
        if key.startswith("server.commits") and b > 0 and (b - c) / b > threshold:
            regressions.append("counter %s dropped: %d -> %d" % (key, b, c))
        else:
            notes.append("counter %s: %s -> %s" % (key, b, c))

    return regressions, notes


#: Counters that describe *what happened* in a run rather than how fast
#: it happened: transaction verdicts, replication application counts,
#: and durable-record totals.  Two runs of the same workload that differ
#: only in scheduling efficiency (e.g. different batch sizes) must agree
#: on every one of these exactly -- batch sizes may move latencies and
#: message counts, never outcomes.
OUTCOME_COUNTER_PREFIXES = (
    "server.commits",
    "server.aborts",
    "server.started",
    "server.remote_applied",
    "server.remote_commits",
    "server.read_only_commits",
    "server.slow_commits",
    "disklog.records",
    "tx.reaped",
)


def _is_outcome_counter(key: str) -> bool:
    return any(key.startswith(p + "{") or key == p for p in OUTCOME_COUNTER_PREFIXES)


def diff_outcomes(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> Tuple[List[str], List[str]]:
    """Compare only the outcome counters of two artifacts, exactly.

    This is the behavior-transparency gate for optimizations that are
    allowed to change timing but not results: any whitelisted counter
    (:data:`OUTCOME_COUNTER_PREFIXES`) that differs -- or exists in only
    one artifact -- is a mismatch.  Timing metrics (histograms, gauges,
    budgets) and traffic counters (flushes, messages, bytes) are ignored
    entirely; what moved there is summarized as notes.
    """
    mismatches: List[str] = []
    notes: List[str] = []
    base = {k: v for k, v in baseline["counters"].items() if _is_outcome_counter(k)}
    cur = {k: v for k, v in current["counters"].items() if _is_outcome_counter(k)}
    for key in sorted(set(base) | set(cur)):
        if key not in base or key not in cur:
            mismatches.append(
                "outcome counter %s only in %s"
                % (key, "current" if key not in base else "baseline")
            )
        elif base[key] != cur[key]:
            mismatches.append(
                "outcome counter %s: %s -> %s" % (key, base[key], cur[key])
            )
    if not mismatches:
        notes.append("%d outcome counters identical" % len(base))
    timing_moved = sum(
        1
        for key in set(baseline["counters"]) & set(current["counters"])
        if not _is_outcome_counter(key)
        and baseline["counters"][key] != current["counters"][key]
    )
    if timing_moved:
        notes.append("%d non-outcome counters differ (allowed)" % timing_moved)
    return mismatches, notes


def format_diff(
    regressions: List[str], notes: List[str], max_notes: int = 20
) -> str:
    lines: List[str] = []
    if regressions:
        lines.append("REGRESSIONS (%d):" % len(regressions))
        lines.extend("  ! %s" % r for r in regressions)
    else:
        lines.append("no regressions")
    if notes:
        lines.append("notes (%d):" % len(notes))
        lines.extend("  - %s" % n for n in notes[:max_notes])
        if len(notes) > max_notes:
            lines.append("  ... %d more" % (len(notes) - max_notes))
    return "\n".join(lines)
