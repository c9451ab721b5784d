"""Conservative parallel execution of the DES substrate (DESIGN.md §12).

The deployment's sites are partitioned into clusters; each cluster's
kernel runs in its own worker (a ``spawn``-ed process, or a thread for
the in-process mode used by tests).  Sites only interact through the
simulated network, whose cross-site latency has a known positive lower
bound, so the classic conservative synchronization applies:

* lookahead ``L`` = minimum jitter-free one-way latency between sites in
  *different* clusters (:meth:`repro.net.Topology.min_crossing_latency_s`
  -- jitter in the network model is purely additive, so no cross-cluster
  message can undercut it);
* every worker advances its kernel in windows of at most ``L`` simulated
  seconds; at each window boundary (a *barrier*) the workers exchange
  the time-stamped :class:`~repro.net.Envelope`\\ s their network
  gateways collected.  A message sent at time ``s`` inside a window
  ending at ``b`` has ``deliver_at > s + L >= b``, so every envelope a
  worker receives at a barrier is strictly in its future -- no worker
  ever executes an event before all its causes are known.

Determinism: within a worker the serial kernel's (time, seq) order is
unchanged, and same-timestamp events in *different* clusters cannot
interact (any influence crosses the network and lands at least ``L``
later), so the parallel schedule is bit-identical to the serial one.
The residual ordering freedom -- envelopes from different workers
carrying the exact same delivery timestamp -- is closed by sorting each
barrier's inbox by ``(deliver_at, src_site, dst_site, link_seq)``
before scheduling.  ``tests/sim/test_parallel_executor.py`` and the
schedule-digest gate enforce the equivalence on every workload.

Workers never share Python state: each builds its own cluster-restricted
:class:`~repro.deployment.Deployment` from the same constructor kwargs
and runs the same scenario function; deployment construction burns
name/sequence counters for non-owned sites so tids, addresses and client
names are identical to the serial run's.  At the end each worker ships a
picklable payload (metrics state, span events, execution trace, scenario
result) and the parent merges them deterministically.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pickle
import threading
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..net import Envelope, Topology

ScenarioRef = Union[str, Callable]

#: Sentinel lookahead for a single-cluster run (no crossing links): the
#: barrier loop degenerates to one sync per ``run()`` call.
NO_LOOKAHEAD = float("inf")


class ParallelProtocolError(RuntimeError):
    """The lockstep protocol was violated: workers diverged (reached
    different barrier times or finished in different rounds), which means
    the scenario's driver code was not cluster-deterministic."""


class WorkerFailed(RuntimeError):
    """A cluster worker raised; carries the remote traceback."""


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def partition_sites(n_sites: int, workers: int) -> Tuple[Tuple[int, ...], ...]:
    """Split ``n_sites`` site ids into ``workers`` contiguous, balanced
    clusters (workers is clamped to the site count)."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    workers = max(1, min(int(workers), n_sites))
    base, extra = divmod(n_sites, workers)
    clusters: List[Tuple[int, ...]] = []
    start = 0
    for i in range(workers):
        size = base + (1 if i < extra else 0)
        clusters.append(tuple(range(start, start + size)))
        start += size
    return tuple(clusters)


@dataclass(frozen=True)
class ClusterSpec:
    """One worker's slice of a partitioned deployment."""

    cluster_id: int
    clusters: Tuple[Tuple[int, ...], ...]
    lookahead_s: float

    @property
    def owned_sites(self) -> Tuple[int, ...]:
        return self.clusters[self.cluster_id]

    @property
    def cluster_of(self) -> Dict[int, int]:
        return {
            site: cid for cid, members in enumerate(self.clusters) for site in members
        }


class ClusterRuntime:
    """What a cluster-mode :class:`~repro.deployment.Deployment` holds:
    the spec plus the live exchange.  The deployment attaches the network
    gateway here so its barrier loop can drain it."""

    def __init__(self, spec: ClusterSpec, exchange):
        self.spec = spec
        self.exchange = exchange
        self.gateway = None  # set by Deployment after Network construction


# ----------------------------------------------------------------------
# Lockstep engines
# ----------------------------------------------------------------------
def _route(posts: Dict[int, Tuple[float, List[Envelope]]], cluster_of: Dict[int, int]):
    """Group every worker's outbox by destination cluster."""
    inboxes: Dict[int, List[Envelope]] = {cid: [] for cid in posts}
    for _cid, (_t, outbox) in sorted(posts.items()):
        for envelope in outbox:
            inboxes[cluster_of[envelope.dst_site]].append(envelope)
    return inboxes


class _InlineEngine:
    """Barrier coordinator for the in-process (thread) mode.

    Between barriers the worker threads run concurrently, but each only
    touches its own cluster world, so execution stays deterministic; the
    engine's job is routing envelopes and detecting divergence.
    """

    def __init__(self, n_workers: int, cluster_of: Dict[int, int]):
        self._n = n_workers
        self._cluster_of = cluster_of
        self._cond = threading.Condition()
        self._posts: Dict[int, Tuple[float, List[Envelope]]] = {}
        self._done: Dict[int, Any] = {}
        self._inboxes: Dict[int, List[Envelope]] = {}
        self._generation = 0
        self._failure: Optional[BaseException] = None

    # Called with lock held.
    def _live(self) -> int:
        return self._n - len(self._done)

    def _maybe_advance(self) -> None:
        if self._failure is not None:
            self._cond.notify_all()
            return
        if self._posts and len(self._posts) == self._live():
            times = {t for t, _outbox in self._posts.values()}
            if len(times) != 1:
                self._failure = ParallelProtocolError(
                    "workers diverged: barrier times %r" % (sorted(times),)
                )
            elif self._done and self._generation > 0:
                # Workers run identical driver code, so they must finish
                # after the same number of barriers -- a partial finish
                # means divergence.  (Finishing before the first barrier
                # is fine only if everyone does, handled above.)
                self._failure = ParallelProtocolError(
                    "workers %r finished while %r still syncing"
                    % (sorted(self._done), sorted(self._posts))
                )
            else:
                self._inboxes.update(_route(self._posts, self._cluster_of))
                self._posts.clear()
                self._generation += 1
            self._cond.notify_all()
        elif self._live() == 0:
            self._cond.notify_all()

    def sync(self, cluster_id: int, t: float, outbox: List[Envelope]) -> List[Envelope]:
        with self._cond:
            if self._failure is not None:
                raise self._failure
            self._posts[cluster_id] = (t, outbox)
            generation = self._generation
            self._maybe_advance()
            while (
                self._generation == generation
                and self._failure is None
            ):
                self._cond.wait()
            if self._failure is not None:
                raise self._failure
            return self._inboxes.pop(cluster_id, [])

    def finish(self, cluster_id: int, payload: Any) -> None:
        with self._cond:
            self._done[cluster_id] = payload
            if cluster_id in self._posts:
                del self._posts[cluster_id]
            self._maybe_advance()

    def fail(self, cluster_id: int, exc: BaseException) -> None:
        with self._cond:
            if self._failure is None:
                self._failure = exc
            self._cond.notify_all()

    def results(self) -> List[Any]:
        with self._cond:
            if self._failure is not None:
                raise self._failure
            if len(self._done) != self._n:
                raise ParallelProtocolError(
                    "only %d/%d workers finished" % (len(self._done), self._n)
                )
            return [self._done[cid] for cid in sorted(self._done)]


class _InlineExchange:
    """One worker's handle onto the inline engine."""

    def __init__(self, engine: _InlineEngine, cluster_id: int):
        self._engine = engine
        self._cluster_id = cluster_id

    def sync(self, t: float, outbox: List[Envelope]) -> List[Envelope]:
        return self._engine.sync(self._cluster_id, t, outbox)


class _PipeExchange:
    """One worker's handle onto the parent process, over a pipe.

    Envelopes are pickled *here*, one batch per destination cluster, and
    shipped as opaque byte blobs: the parent routes the blobs without
    deserializing them, so each envelope costs exactly one ``dumps`` (in
    the sender, parallel across workers) and one ``loads`` (in the
    receiver) instead of an extra round trip through the parent's
    pickler -- which would otherwise be the serial bottleneck of the
    whole run."""

    def __init__(self, conn, cluster_of: Dict[int, int]):
        self._conn = conn
        self._cluster_of = cluster_of

    def sync(self, t: float, outbox: List[Envelope]) -> List[Envelope]:
        grouped: Dict[int, List[Envelope]] = {}
        for envelope in outbox:
            grouped.setdefault(self._cluster_of[envelope.dst_site], []).append(envelope)
        blobs = {
            dst: pickle.dumps(envelopes, pickle.HIGHEST_PROTOCOL)
            for dst, envelopes in grouped.items()
        }
        self._conn.send(("sync", t, blobs))
        kind, data = self._conn.recv()
        if kind == "abort":
            raise WorkerFailed("aborted by parent: %s" % (data,))
        if kind != "inbox":
            raise ParallelProtocolError("unexpected parent message %r" % (kind,))
        inbox: List[Envelope] = []
        for blob in data:
            inbox.extend(pickle.loads(blob))
        return inbox


# ----------------------------------------------------------------------
# Worker body
# ----------------------------------------------------------------------
def resolve_scenario(ref: ScenarioRef) -> Callable:
    """Resolve a scenario: either a module-level callable or a
    ``"package.module:function"`` string (the spawn-safe form)."""
    if callable(ref):
        return ref
    module_name, _, attr = ref.partition(":")
    if not attr:
        raise ValueError("scenario ref must look like 'pkg.module:function', got %r" % ref)
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def scenario_ref(fn: ScenarioRef) -> str:
    """The spawn-safe string form of a scenario callable."""
    if isinstance(fn, str):
        return fn
    ref = "%s:%s" % (fn.__module__, fn.__qualname__)
    if resolve_scenario(ref) is not fn:  # lambdas, closures, methods
        raise ValueError(
            "scenario %r is not a module-level function; parallel workers "
            "cannot import it" % (fn,)
        )
    return ref


def collect_world_payload(world, scenario_result: Any = None) -> Dict[str, Any]:
    """Everything the parent needs from one worker, picklable."""
    owned = sorted(world.owned_sites())
    for site in owned:
        world.servers[site]._refresh_gc_gauges()
    tracer = world.obs.tracer
    return {
        "owned_sites": owned,
        "now": world.kernel.now,
        "events_executed": world.kernel.events_executed,
        "metrics": world.obs.registry.dump_state(),
        "access_profile": {
            site: world.servers[site].profiler.as_dict()
            for site in owned
            if world.servers[site].profiler is not None
        },
        "span_events": (
            [event.to_dict() for event in tracer.events()] if tracer is not None else None
        ),
        "trace": world.trace,
        "abandoned_versions": set(world.abandoned_versions),
        "scenario": scenario_result,
    }


def _run_cluster(scenario: ScenarioRef, deploy_kwargs, params, spec: ClusterSpec, exchange):
    from ..deployment import Deployment

    fn = resolve_scenario(scenario)
    runtime = ClusterRuntime(spec, exchange)
    world = Deployment(cluster=runtime, **deploy_kwargs)
    result = fn(world, **(params or {}))
    return collect_world_payload(world, result)


def _mp_worker_main(conn, scenario, deploy_kwargs, params, spec) -> None:
    try:
        exchange = _PipeExchange(conn, spec.cluster_of)
        payload = _run_cluster(scenario, deploy_kwargs, params, spec, exchange)
        conn.send(("done", payload))
    except BaseException:  # noqa: BLE001 - shipped to the parent verbatim
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # noqa: BLE001 - parent already gone
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent orchestration
# ----------------------------------------------------------------------
def _run_inline(scenario, deploy_kwargs, params, specs) -> List[Dict[str, Any]]:
    engine = _InlineEngine(len(specs), specs[0].cluster_of)

    def body(spec: ClusterSpec) -> None:
        try:
            payload = _run_cluster(
                scenario, deploy_kwargs, params, spec, _InlineExchange(engine, spec.cluster_id)
            )
            engine.finish(spec.cluster_id, payload)
        except BaseException as exc:  # noqa: BLE001 - surfaced via engine
            engine.fail(spec.cluster_id, exc)

    threads = [
        threading.Thread(target=body, args=(spec,), name="cluster-%d" % spec.cluster_id)
        for spec in specs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return engine.results()


def _run_mp(scenario, deploy_kwargs, params, specs) -> List[Dict[str, Any]]:
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    ref = scenario_ref(scenario)
    conns = []
    procs = []
    for spec in specs:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_mp_worker_main,
            args=(child_conn, ref, deploy_kwargs, params, spec),
            name="cluster-%d" % spec.cluster_id,
        )
        proc.start()
        child_conn.close()
        conns.append(parent_conn)
        procs.append(proc)

    results: Dict[int, Any] = {}
    failure: Optional[BaseException] = None
    live = list(range(len(specs)))
    try:
        while live and failure is None:
            posts: Dict[int, Tuple[float, Dict[int, bytes]]] = {}
            done_now: List[int] = []
            for cid in live:
                try:
                    msg = conns[cid].recv()
                except EOFError:
                    failure = WorkerFailed("worker %d died without a result" % cid)
                    break
                if msg[0] == "error":
                    failure = WorkerFailed("worker %d failed:\n%s" % (cid, msg[1]))
                    break
                if msg[0] == "done":
                    results[cid] = msg[1]
                    done_now.append(cid)
                elif msg[0] == "sync":
                    posts[cid] = (msg[1], msg[2])
                else:
                    failure = ParallelProtocolError("unexpected %r from worker %d" % (msg[0], cid))
                    break
            if failure is not None:
                break
            if posts and done_now:
                failure = ParallelProtocolError(
                    "workers %r finished while %r still syncing"
                    % (done_now, sorted(posts))
                )
                break
            if done_now:
                live = [cid for cid in live if cid not in results]
                continue
            times = {t for t, _ in posts.values()}
            if len(times) != 1:
                failure = ParallelProtocolError(
                    "workers diverged: barrier times %r" % (sorted(times),)
                )
                break
            # Route the pre-pickled blobs verbatim (sender order is fixed
            # by the sorted iteration, but delivery order doesn't matter:
            # the receiving deployment sorts its whole inbox by the
            # envelope sort key before scheduling).
            inboxes: Dict[int, List[bytes]] = {cid: [] for cid in posts}
            for src in sorted(posts):
                for dst, blob in sorted(posts[src][1].items()):
                    if dst not in inboxes:
                        failure = ParallelProtocolError(
                            "worker %d posted a blob for unknown cluster %d" % (src, dst)
                        )
                        break
                    inboxes[dst].append(blob)
                if failure is not None:
                    break
            if failure is not None:
                break
            for cid in posts:
                conns[cid].send(("inbox", inboxes.get(cid, [])))
    finally:
        if failure is not None:
            for cid in range(len(specs)):
                try:
                    conns[cid].send(("abort", str(failure)))
                except (OSError, ValueError, BrokenPipeError):
                    pass
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for conn in conns:
            conn.close()
    if failure is not None:
        raise failure
    return [results[cid] for cid in sorted(results)]


def run_scenario(
    scenario: ScenarioRef,
    deploy_kwargs: Optional[Dict[str, Any]] = None,
    params: Optional[Dict[str, Any]] = None,
    workers: int = 2,
    mode: str = "auto",
) -> "ParallelResult":
    """Run ``scenario(world, **params)`` on a deployment partitioned into
    ``workers`` per-site clusters; returns the merged result.

    ``mode``: ``"mp"`` (one spawn-ed process per cluster), ``"inline"``
    (threads in this process, deterministic and cheap to start -- what
    the equivalence tests use), or ``"auto"`` (mp when there is more
    than one cluster).

    Restrictions (enforced or documented in DESIGN.md §12): the scenario
    must drive the world only through ``world.run(until=...)`` /
    ``settle`` and deployment APIs that are cluster-deterministic; no
    chaos faults, no configuration changes after the world is built, and
    the span workload must fit the tracer capacity.
    """
    deploy_kwargs = dict(deploy_kwargs or {})
    for forbidden in ("cluster", "executor", "workers"):
        deploy_kwargs.pop(forbidden, None)
    topology = deploy_kwargs.get("topology") or Topology.ec2(
        deploy_kwargs.get("n_sites", 4)
    )
    shards = int(deploy_kwargs.get("shards", 1) or 1)
    if shards > 1 and getattr(topology, "shards", 1) != shards:
        # Expand eagerly so clusters are cut in the *logical* site space
        # but aligned to base-site boundaries: co-located shard servers
        # talk over LAN RTTs, which would collapse the lookahead if they
        # ever landed in different clusters.
        topology = Topology.sharded(topology, shards)
    deploy_kwargs["topology"] = topology
    n_base = len(topology) // shards
    base_clusters = partition_sites(n_base, workers)
    clusters = tuple(
        tuple(b * shards + k for b in members for k in range(shards))
        for members in base_clusters
    )
    lookahead = (
        topology.min_crossing_latency_s(clusters) if len(clusters) > 1 else NO_LOOKAHEAD
    )
    specs = [
        ClusterSpec(cid, clusters, lookahead) for cid in range(len(clusters))
    ]
    if mode == "auto":
        mode = "mp" if len(clusters) > 1 else "inline"
    if mode == "inline":
        payloads = _run_inline(scenario, deploy_kwargs, params, specs)
    elif mode == "mp":
        payloads = _run_mp(scenario, deploy_kwargs, params, specs)
    else:
        raise ValueError("mode must be 'auto', 'mp' or 'inline', got %r" % (mode,))
    return ParallelResult(payloads)


# ----------------------------------------------------------------------
# Merging + canonical digests
# ----------------------------------------------------------------------
def serial_payloads(world, scenario_result: Any = None) -> "ParallelResult":
    """Wrap a serial run in the same result type the parallel executor
    produces, so the dual-executor gate compares like with like."""
    return ParallelResult([collect_world_payload(world, scenario_result)])


def _canonical_span_line(event: Dict[str, Any]) -> str:
    stripped = {k: v for k, v in event.items() if k not in ("seq", "parent")}
    return json.dumps(stripped, sort_keys=True, separators=(",", ":"))


def _read_sort_key(read) -> Tuple:
    value = read.value
    if isinstance(value, dict):
        value_repr = repr(sorted(value.items(), key=repr))
    else:
        value_repr = repr(value)
    return (read.tid, read.site, repr(read.oid), repr(read.start_vts), value_repr)


class ParallelResult:
    """Deterministically merged view over per-worker payloads.

    Counters/histograms are additive across workers, per-site gauges and
    commit orders come from the owning worker, and span events are
    canonicalized (tracer-local ``seq``/``parent`` dropped, sorted by
    content) so a serial run and any worker count produce byte-identical
    digests.
    """

    def __init__(self, payloads: Sequence[Dict[str, Any]]):
        if not payloads:
            raise ValueError("no worker payloads")
        self.payloads = list(payloads)
        nows = {round(p["now"], 12) for p in self.payloads}
        if len(nows) != 1:
            raise ParallelProtocolError("workers ended at different times: %r" % sorted(nows))

    @property
    def now(self) -> float:
        return self.payloads[0]["now"]

    @property
    def events_executed(self) -> int:
        return sum(p["events_executed"] for p in self.payloads)

    @property
    def workers(self) -> int:
        return len(self.payloads)

    @property
    def scenario_results(self) -> List[Any]:
        return [p["scenario"] for p in self.payloads]

    @property
    def abandoned_versions(self) -> set:
        merged: set = set()
        for p in self.payloads:
            merged |= p.get("abandoned_versions") or set()
        return merged

    def metrics_snapshot(self) -> Dict[str, Any]:
        from ..obs.metrics import MetricsRegistry

        registry = MetricsRegistry.merge_states([p["metrics"] for p in self.payloads])
        snap = registry.snapshot()
        profile: Dict[int, Any] = {}
        for p in self.payloads:
            profile.update(p["access_profile"])
        if profile:  # traced runs only
            snap["access_profile"] = {site: profile[site] for site in sorted(profile)}
        return snap

    def span_lines(self) -> Optional[List[str]]:
        """Canonical (sorted) span stream, or None when tracing was off."""
        lines: List[str] = []
        for p in self.payloads:
            if p["span_events"] is None:
                return None
            lines.extend(_canonical_span_line(e) for e in p["span_events"])
        lines.sort()
        return lines

    def canonical_digest(self) -> str:
        """SHA-256 over the canonical span stream plus the final clock --
        the quantity the dual-executor gate pins equal across executors."""
        lines = self.span_lines()
        if lines is None:
            raise ValueError("canonical digest requires tracing enabled")
        blob = "\n".join(lines) + "\nnow=%.9f" % self.now
        return hashlib.sha256(blob.encode()).hexdigest()

    def merged_trace(self):
        """Union of the per-worker :class:`~repro.spec.checker.ExecutionTrace`
        slices: transactions by tid (preload duplicates collapse), each
        site's commit order from its owning worker, reads in canonical
        order."""
        from ..spec.checker import ExecutionTrace

        parts = [p["trace"] for p in self.payloads]
        if any(part is None for part in parts):
            return None
        merged = ExecutionTrace(n_sites=parts[0].n_sites)
        for part in parts:
            merged.transactions.update(part.transactions)
            for site, order in part.site_commit_order.items():
                merged.site_commit_order.setdefault(site, []).extend(order)
            merged.reads.extend(part.reads)
        merged.reads.sort(key=_read_sort_key)
        return merged


def trace_fingerprint(trace) -> Dict[str, Any]:
    """Canonical, order-insensitive fingerprint of an execution trace,
    comparable across executors (reads sorted the same way the merge
    sorts them)."""
    return {
        "transactions": {
            tid: (
                tx.site,
                repr(tx.start_vts),
                repr(tx.version),
                tuple(repr(u) for u in tx.updates),
                tuple(sorted(repr(oid) for oid in tx.write_set)),
            )
            for tid, tx in sorted(trace.transactions.items())
        },
        "site_commit_order": {
            site: tuple(repr(v) for v in order)
            for site, order in sorted(trace.site_commit_order.items())
        },
        "reads": tuple(sorted(_read_sort_key(read) for read in trace.reads)),
    }


def canonical_verdict(trace, abandoned=None) -> List[str]:
    """PSI checker verdict over a canonically-ordered trace: the list of
    violation strings (empty = clean), identical for serial and merged
    parallel traces of the same execution."""
    from ..spec.checker import ExecutionTrace, check_trace

    ordered = ExecutionTrace(n_sites=trace.n_sites)
    ordered.transactions = dict(trace.transactions)
    ordered.site_commit_order = {s: list(o) for s, o in trace.site_commit_order.items()}
    ordered.reads = sorted(trace.reads, key=_read_sort_key)
    return [str(v) for v in check_trace(ordered, abandoned)]
