"""The fault injector: a simulated process that walks a schedule and
applies each fault to a live :class:`~repro.deployment.Deployment` or
protocol-zoo backend (which has only a kernel and a network, so a zoo
run's schedule holds only :data:`~repro.chaos.schedule.ZOO_FAULTS`).

Structural operations that are themselves multi-step protocols (site
removal, re-integration) are spawned as sub-processes -- the injector
does not block the rest of the schedule on them -- and ``reintegrate``
waits for any in-flight removal of the same site, so hand-written
schedules need not get the spacing exactly right.

On a deployment, every applied fault bumps a ``chaos.faults{kind=...}``
counter and, when tracing is on, lands on the transaction timeline as a
``fault`` span under the pseudo-tid ``chaos``.  A fault whose preconditions do not hold
(e.g. replacing a server at a removed site) is recorded in
:attr:`FaultInjector.errors` rather than aborting the run: random
schedules may race their own structural operations, and the oracles --
not injection bookkeeping -- decide whether the run passed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs import FAULT
from .schedule import Schedule, canonical_json


class FaultInjector:
    """Applies a :class:`Schedule` against a deployment."""

    def __init__(self, world, schedule: Schedule):
        self.world = world
        self.schedule = schedule
        self.kernel = world.kernel
        self.errors: List[Tuple[str, str]] = []
        self.applied: List[str] = []
        self._proc = None
        self._ops: List = []  # structural sub-processes (remove/reintegrate)
        self._removals: Dict[int, object] = {}
        self._base_loss = world.network.loss_rate
        self._bursts: List[Tuple[float, float]] = []  # (rate, until)
        # Only the Walter deployment has observability to report into.
        self._obs = getattr(world, "obs", None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        self.schedule.validate(self.world.n_sites)
        self._proc = self.kernel.spawn(self._run(), name="chaos.injector")
        return self._proc

    @property
    def done(self) -> bool:
        return (
            self._proc is not None
            and self._proc.done
            and all(op.done for op in self._ops)
        )

    def quiesce(self):
        """Generator: wait for the schedule walk and every structural
        sub-operation to finish."""
        if self._proc is not None and not self._proc.done:
            yield self._proc
        for op in list(self._ops):
            if not op.done:
                yield op

    def repair(self):
        """Generator: wait for the schedule to finish, then undo its
        network faults -- every loss burst and every partition."""
        yield from self.quiesce()
        self.cancel_bursts()
        self.world.network.heal_all()

    def cancel_bursts(self) -> None:
        """Drop active loss bursts and restore the base loss rate (the
        harness repair phase must not fight injected loss)."""
        self._bursts = []
        self.world.network.loss_rate = self._base_loss

    def _run(self):
        for event in self.schedule.events:
            if event.at > self.kernel.now:
                yield self.kernel.timeout(event.at - self.kernel.now)
            self._apply(event)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _apply(self, event) -> None:
        handler = getattr(self, "_fault_" + event.fault)
        try:
            handler(**event.args)
        except Exception as exc:  # noqa: BLE001 - recorded, run continues
            self._note_error(event.fault, exc)
            return
        self.applied.append(event.fault)
        if self._obs is None:
            return
        self._obs.registry.counter("chaos.faults", kind=event.fault).inc()
        tracer = self._obs.tracer
        if tracer is not None:
            site = event.args.get("site", event.args.get("a", -1))
            tracer.record(
                "chaos",
                FAULT,
                site if isinstance(site, int) else -1,
                self.kernel.now,
                kind=event.fault,
                detail=canonical_json(event.args),
            )

    def _note_error(self, fault: str, exc: Exception) -> None:
        self.errors.append((fault, "%s: %s" % (type(exc).__name__, exc)))
        if self._obs is not None:
            self._obs.registry.counter("chaos.fault_errors", kind=fault).inc()

    def _spawn_op(self, gen, name: str):
        proc = self.kernel.spawn(gen, name=name)
        self._ops.append(proc)
        return proc

    # ------------------------------------------------------------------
    # Fault handlers
    # ------------------------------------------------------------------
    def _fault_crash(self, site: int) -> None:
        self.world.crash_server(site)

    def _fault_replace(self, site: int) -> None:
        if not self.world.config.is_active(site):
            raise RuntimeError("site %d is removed; use reintegrate" % site)
        if not self.world.network.is_crashed(self.world.addresses[site]):
            # Replacement implies the old server process is gone.
            self.world.crash_server(site)
        self.world.replace_server(site)

    def _fault_partition(self, a: int, b: int) -> None:
        self.world.network.partition(a, b)

    def _fault_heal(self, a: int, b: int) -> None:
        self.world.network.heal(a, b)

    def _fault_loss_burst(self, rate: float, duration: float) -> None:
        until = self.kernel.now + duration
        self._bursts.append((rate, until))
        self._recompute_loss()
        self.kernel.call_at(until, self._recompute_loss)

    def _recompute_loss(self) -> None:
        now = self.kernel.now
        self._bursts = [(r, u) for r, u in self._bursts if u > now]
        active = [r for r, _u in self._bursts]
        self.world.network.loss_rate = max([self._base_loss] + active)

    def _fault_flush_stall(self, site: int, duration: float) -> None:
        self.world.storages[site].inject_flush_stall(duration)

    def _fault_prepare_reply_loss(self, site: int, duration: float) -> None:
        """The participant processes prepares (and locks!) but its YES/NO
        replies vanish -- the coordinator times out and counts a NO.
        This is the fault that leaks locks without commit-path leases."""
        if self.world.network.is_crashed(self.world.addresses[site]):
            raise RuntimeError("site %d is down; no replies to drop" % site)
        self.world.servers[site].drop_replies("prepare", duration)

    def _fault_handover(self, cid: str, to_site: int) -> None:
        self.world.config.container(cid)  # raises if unknown
        if not self.world.config.is_active(to_site):
            raise RuntimeError("handover target site %d is removed" % to_site)

        def op():
            try:
                yield from self.world.migrate_preferred_site(cid, to_site)
            except Exception as exc:  # noqa: BLE001
                self._note_error("handover", exc)

        self._spawn_op(op(), name="chaos.handover:%s" % cid)

    def _fault_migration_crash(self, cid: str, to_site: int, kill_after: float) -> None:
        """Start a preferred-site migration and kill the target mid-
        handover: the live fixture for the rollback path of
        ``Deployment.migrate_preferred_site`` -- the old site's lease must
        come back exactly once, with no window where both sites fast-
        commit the container.  The migration's timeout is recorded as an
        injection error (expected); the oracles judge the aftermath."""
        self.world.config.container(cid)  # raises if unknown
        if not self.world.config.is_active(to_site):
            raise RuntimeError("migration target site %d is removed" % to_site)

        def migrate():
            try:
                yield from self.world.migrate_preferred_site(cid, to_site, within=5.0)
            except Exception as exc:  # noqa: BLE001 - timeout is the point
                self._note_error("migration_crash", exc)

        def killer():
            yield self.kernel.timeout(kill_after)
            if self.world.config.is_active(to_site) and not self.world.network.is_crashed(
                self.world.addresses[to_site]
            ):
                self.world.crash_server(to_site)

        self._spawn_op(migrate(), name="chaos.migration:%s" % cid)
        self._spawn_op(killer(), name="chaos.migration_kill:%d" % to_site)

    def _fault_fail_site(self, site: int) -> None:
        if not self.world.config.is_active(site):
            raise RuntimeError("site %d already removed" % site)
        self.world.fail_site(site)

    def _fault_remove_site(self, site: int, reassign_to: int) -> None:
        if not self.world.config.is_active(site):
            raise RuntimeError("site %d already removed" % site)
        if not self.world.config.is_active(reassign_to):
            raise RuntimeError("reassign target %d is removed" % reassign_to)
        if not self.world.network.is_crashed(self.world.addresses[site]):
            self.world.fail_site(site)  # removal presumes the site failed

        def op():
            try:
                yield from self.world.remove_site_gen(site, reassign_to)
            except Exception as exc:  # noqa: BLE001
                self._note_error("remove_site", exc)

        self._removals[site] = self._spawn_op(op(), name="chaos.remove:%d" % site)

    def _fault_reintegrate(self, site: int) -> None:
        def op():
            removal = self._removals.get(site)
            if removal is not None and not removal.done:
                yield removal  # let the removal finish first
            if self.world.config.is_active(site):
                self._note_error(
                    "reintegrate", RuntimeError("site %d is already active" % site)
                )
                return
            try:
                yield from self.world.reintegrate_site_gen(site)
            except Exception as exc:  # noqa: BLE001
                self._note_error("reintegrate", exc)

        self._spawn_op(op(), name="chaos.reintegrate:%d" % site)
