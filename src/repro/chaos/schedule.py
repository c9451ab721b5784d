"""Fault-schedule DSL for the deterministic chaos harness.

A schedule is a time-ordered list of ``(sim_time, fault, args)`` events
drawn from a fixed catalog.  Schedules are plain data: they serialize to
canonical JSON (sorted keys, no whitespace), so the same schedule always
produces byte-identical artifacts -- the property the failing-seed
reproduction workflow relies on.

The catalog mirrors the failure model of paper §5.7 plus the usual
network/disk gremlins:

======================  ======================================================
``crash``               kill the Walter server process at ``site``
``replace``             start a replacement server over the site's storage
``partition``           sever links between sites ``a`` and ``b``
``heal``                restore links between sites ``a`` and ``b``
``loss_burst``          random message loss at ``rate`` for ``duration``
``flush_stall``         hold WAL flushes at ``site`` for ``duration``
``prepare_reply_loss``  drop ``site``'s prepare replies for ``duration``
``handover``            move container ``cid``'s preferred site to ``to_site``
``migration_crash``     start a handover of ``cid`` to ``to_site``, then crash
                        the target ``kill_after`` seconds in (rollback fixture)
``fail_site``           whole-site failure: server down, links severed
``remove_site``         aggressive removal (§4.4), reassign to ``reassign_to``
``reintegrate``         bring a removed site back (§5.7)
======================  ======================================================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: fault name -> (required argument names, which of them are site ids)
FAULT_CATALOG: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "crash": (("site",), ("site",)),
    "replace": (("site",), ("site",)),
    "partition": (("a", "b"), ("a", "b")),
    "heal": (("a", "b"), ("a", "b")),
    "loss_burst": (("rate", "duration"), ()),
    "flush_stall": (("site", "duration"), ("site",)),
    "prepare_reply_loss": (("site", "duration"), ("site",)),
    "handover": (("cid", "to_site"), ("to_site",)),
    "migration_crash": (("cid", "to_site", "kill_after"), ("to_site",)),
    "fail_site": (("site",), ("site",)),
    "remove_site": (("site", "reassign_to"), ("site", "reassign_to")),
    "reintegrate": (("site",), ("site",)),
}

#: The faults a protocol-zoo backend can take: it has a kernel and a
#: network, but no Walter servers to crash, remove or hand over.
ZOO_FAULTS = frozenset({"partition", "heal", "loss_burst"})


def canonical_json(obj: Any) -> str:
    """The one serialization used for schedules and artifacts: stable
    across runs and platforms, so equal values are equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class FaultEvent:
    """One scheduled fault: inject ``fault(**args)`` at sim time ``at``."""

    at: float
    fault: str
    args: Dict[str, Any] = field(default_factory=dict)

    def to_obj(self) -> Dict[str, Any]:
        return {"at": self.at, "fault": self.fault, "args": dict(self.args)}

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "FaultEvent":
        return cls(at=float(obj["at"]), fault=obj["fault"], args=dict(obj["args"]))

    def _sort_key(self):
        return (self.at, self.fault, canonical_json(self.args))


class ScheduleError(ValueError):
    """A schedule failed validation against the fault catalog."""


@dataclass
class Schedule:
    """A validated, time-sorted fault schedule."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self):
        self.events = sorted(self.events, key=FaultEvent._sort_key)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def validate(self, n_sites: int, faults=FAULT_CATALOG) -> None:
        """Check every event against :data:`FAULT_CATALOG` and the run's
        fault set (unknown or excluded faults, missing/extra args,
        out-of-range sites, bad times, durations and rates)."""
        for event in self.events:
            if not _nonnegative(event.at):
                raise ScheduleError("event time %r is not a finite time >= 0" % (event.at,))
            spec = FAULT_CATALOG.get(event.fault)
            if spec is None:
                raise ScheduleError("unknown fault %r" % (event.fault,))
            if event.fault not in faults:
                raise ScheduleError("fault %r is outside this run's fault set" % (event.fault,))
            required, site_args = spec
            if set(event.args) != set(required):
                raise ScheduleError(
                    "%s needs args %r, got %r"
                    % (event.fault, sorted(required), sorted(event.args))
                )
            for name in site_args:
                site = event.args[name]
                if not (_number(site) and isinstance(site, int) and 0 <= site < n_sites):
                    raise ScheduleError(
                        "%s.%s=%r is not a site id in [0, %d)"
                        % (event.fault, name, site, n_sites)
                    )
            if event.fault in ("partition", "heal") and event.args["a"] == event.args["b"]:
                raise ScheduleError("%s with a == b == %r" % (event.fault, event.args["a"]))
            if event.fault == "remove_site" and event.args["site"] == event.args["reassign_to"]:
                raise ScheduleError("remove_site reassigns to the removed site")
            if event.fault == "loss_burst" and not (0.0 <= event.args["rate"] <= 1.0):
                raise ScheduleError("loss_burst rate %r not in [0, 1]" % (event.args["rate"],))
            for name in ("duration", "kill_after"):
                if name in event.args and not _nonnegative(event.args[name]):
                    raise ScheduleError(
                        "%s.%s=%r is not a finite time >= 0"
                        % (event.fault, name, event.args[name])
                    )

    # ------------------------------------------------------------------
    # Canonical (de)serialization
    # ------------------------------------------------------------------
    def to_obj(self) -> Dict[str, Any]:
        return {"events": [e.to_obj() for e in self.events]}

    def to_json(self) -> str:
        return canonical_json(self.to_obj())

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "Schedule":
        return cls(events=[FaultEvent.from_obj(e) for e in obj["events"]])

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_obj(json.loads(text))


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _nonnegative(x) -> bool:
    return _number(x) and math.isfinite(x) and x >= 0
