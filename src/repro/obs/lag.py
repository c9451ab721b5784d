"""Derived lag reporting: replication, disaster-safe durability, visibility.

Walter's evaluation treats "how far behind is a remote site" as three
separate clocks, all started at the origin-site commit:

* **replication lag** -- until the remote site *applied* the updates
  (GotVTS advanced; the data is there but not yet readable),
* **ds-durability lag** -- until enough sites acked that the transaction
  survives a site disaster (Fig 19: between RTTmax and 2*RTTmax), and
* **visibility lag** -- until every site *committed* it (CommittedVTS
  advanced everywhere; snapshots at every site now include it).

All three are computed from the tracer's retained span events and pushed
into registry gauges, so benchmark reports read them the same way they
read counters.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from .trace import Tracer, TxTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bench.metrics import LatencyRecorder
    from .metrics import MetricsRegistry


def _recorder(name: str) -> "LatencyRecorder":
    # Imported lazily: repro.bench pulls in the deployment (and therefore
    # the server, which imports repro.obs), so a module-level import here
    # would be circular.
    from ..bench.metrics import LatencyRecorder

    return LatencyRecorder(name)


class LagReport:
    """Per-site lag samples distilled from a :class:`Tracer`."""

    def __init__(self, n_sites: int):
        self.n_sites = n_sites
        #: Origin-commit -> remote-apply, keyed by the *remote* site.
        self.replication: Dict[int, "LatencyRecorder"] = {
            s: _recorder("replication_lag@%d" % s) for s in range(n_sites)
        }
        #: Commit -> ds-durable / globally-visible, keyed by *origin* site.
        self.ds_durability: Dict[int, "LatencyRecorder"] = {
            s: _recorder("ds_lag@%d" % s) for s in range(n_sites)
        }
        self.visibility: Dict[int, "LatencyRecorder"] = {
            s: _recorder("visibility_lag@%d" % s) for s in range(n_sites)
        }

    def add_trace(self, trace: TxTrace) -> None:
        origin = trace.origin_site
        if origin is None or trace.commit_event is None:
            return
        for site in range(self.n_sites):
            if site == origin:
                continue
            lag = trace.replication_lag(site)
            if lag is not None:
                self.replication[site].record(lag)
        ds = trace.ds_lag()
        if ds is not None and origin < self.n_sites:
            self.ds_durability[origin].record(ds)
        vis = trace.visibility_lag()
        if vis is not None and origin < self.n_sites:
            self.visibility[origin].record(vis)


def compute_lag_report(tracer: Optional[Tracer], n_sites: int) -> LagReport:
    """Fold every retained trace into per-site lag recorders."""
    report = LagReport(n_sites)
    if tracer is not None:
        for trace in tracer.traces():
            report.add_trace(trace)
    return report


def update_lag_gauges(
    registry: "MetricsRegistry",
    tracer: Optional[Tracer],
    n_sites: int,
    at: Optional[float] = None,
) -> LagReport:
    """Publish mean/p95 of each lag into registry gauges.

    Gauge names: ``lag.replication.{mean,p95}`` (labelled by the remote
    site) and ``lag.{ds_durability,visibility}.{mean,p95}`` (labelled by
    the origin site).  Sites with no samples publish nothing, so a
    snapshot distinguishes "no traffic" from "zero lag".
    """
    report = compute_lag_report(tracer, n_sites)
    families = (
        ("lag.replication", report.replication),
        ("lag.ds_durability", report.ds_durability),
        ("lag.visibility", report.visibility),
    )
    for family, recorders in families:
        for site, recorder in recorders.items():
            if not len(recorder):
                continue
            registry.gauge("%s.mean" % family, site=site).set(recorder.mean, at=at)
            registry.gauge("%s.p95" % family, site=site).set(recorder.p95, at=at)
    return report
