"""Paper-style output formatting for benchmark results."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .metrics import LatencyRecorder


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned ASCII table."""
    rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _cell(value) -> str:
    if isinstance(value, float):
        return "%.1f" % value
    return str(value)


def format_cdf(recorder: LatencyRecorder, n_points: int = 10, unit: str = "ms") -> str:
    """Print a compact CDF like the paper's latency figures."""
    scale = 1000.0 if unit == "ms" else 1.0
    lines = ["CDF of %s (%d samples):" % (recorder.name or "latency", len(recorder))]
    for latency, frac in recorder.cdf(n_points):
        bar = "#" * int(frac * 40)
        lines.append("  %7.1f %s |%-40s| %4.0f%%" % (latency * scale, unit, bar, frac * 100))
    return "\n".join(lines)


def format_site_observability(world) -> str:
    """Per-site observability report for a :class:`~repro.deployment.Deployment`.

    One row per site: commit-latency percentiles (from the always-on
    ``server.commit_latency`` histogram), replication / ds-durability /
    visibility lag (from the ``server.*_lag`` histograms -- replication
    lag is measured at the *receiving* site, the other two at the
    origin), the mean WAL group-commit flush size and propagation batch
    occupancy (records per PROPAGATE cast), and the cache hit-rate.  All
    values come from the shared ``repro.obs`` registry; no tracing is
    required.
    """
    registry = world.obs.registry
    rows = []
    for site in range(world.n_sites):
        commit = registry.histogram("server.commit_latency", site=site)
        repl = registry.histogram("server.replication_lag", site=site)
        ds = registry.histogram("server.ds_lag", site=site)
        vis = registry.histogram("server.visibility_lag", site=site)
        flush = registry.histogram("disklog.flush_batch", site=site)
        prop = registry.histogram("server.propagation_batch", site=site)
        hits = registry.counter("cache.hits", site=site).value
        misses = registry.counter("cache.misses", site=site).value
        total = hits + misses
        rows.append(
            [
                site,
                commit.count,
                commit.percentile(50) * 1e3,
                commit.percentile(95) * 1e3,
                commit.percentile(99) * 1e3,
                commit.percentile(99.9) * 1e3,
                repl.mean * 1e3,
                ds.mean * 1e3,
                vis.mean * 1e3,
                ("%.1f" % flush.mean) if flush.count else "-",
                ("%.1f" % prop.mean) if prop.count else "-",
                ("%.1f%%" % (100.0 * hits / total)) if total else "-",
            ]
        )
    return format_table(
        [
            "site",
            "commits",
            "commit p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "p99.9 (ms)",
            "repl lag (ms)",
            "ds lag (ms)",
            "vis lag (ms)",
            "wal batch",
            "prop batch",
            "cache hit",
        ],
        rows,
    )


def format_metric_histogram(hist, unit: str = "ms") -> str:
    """Render a ``repro.obs`` log-bucket histogram as bars::

        server.commit_latency{site=0} (1234 samples, mean 4.2 ms):
            <=   3.2 ms |########                | 312
    """
    scale = 1e3 if unit == "ms" else 1.0
    label = hist.name + (
        "{%s}" % ",".join("%s=%s" % (k, v) for k, v in hist.labels) if hist.labels else ""
    )
    lines = [
        "%s (%d samples, mean %.2f %s):" % (label, hist.count, hist.mean * scale, unit)
    ]
    populated = [
        (bound, n)
        for bound, n in zip(list(hist.bounds) + [float("inf")], hist.counts)
        if n
    ]
    peak = max((n for _, n in populated), default=1)
    for bound, n in populated:
        bar = "#" * max(1, int(24 * n / peak))
        lines.append("    <=%8.1f %s |%-24s| %d" % (bound * scale, unit, bar, n))
    return "\n".join(lines)


def paper_comparison(
    rows: Iterable[Tuple[str, float, float]], metric: str = "Ktps"
) -> str:
    """Table of (name, paper value, measured value) with the ratio."""
    table_rows = []
    for name, paper, measured in rows:
        ratio = measured / paper if paper else float("nan")
        table_rows.append((name, paper, measured, "%.2fx" % ratio))
    return format_table(
        ["experiment", "paper (%s)" % metric, "measured (%s)" % metric, "ratio"],
        table_rows,
    )
