"""Consus-flavored strictly serializable commit on the sim substrate.

One total order for everything: every transaction's outcome is decided
by running its read/write summary through multi-decree Paxos (reusing
:class:`repro.config_service.paxos.PaxosNode`) and validating it
deterministically at slot-application time on every replica.  This is
the "commit = consensus on the transaction itself" shape of
Consus/Calvin-style geo-replicated commit, the strict end of the zoo's
isolation lattice:

* clients execute optimistically against their site's replica -- reads
  record the **last-writer sequence number** of each key they observe;
* commit enqueues ``{tid, reads, writes}`` at its site's coordinator,
  which **batches every command that accumulates while a proposal is in
  flight into the next Paxos slot** (one consensus round amortized over
  the whole batch -- the Consus/Calvin trick that keeps the ordering
  layer off the commit critical path under load);
* ``apply_fn`` walks each slot's batch in list order and assigns every
  command a global *sequence number*; validation is deterministic and
  identical on every replica: the transaction commits iff every key it
  read still has the observed last-writer seq (no intervening writer
  was serialized before it);
* the sequence order (slot-major, batch-position-minor) is the
  serialization order, and Paxos's choose-once/adopt semantics
  guarantee a transaction that committed in real time before another
  began occupies a smaller seq -- which is what upgrades serializable
  to *strictly* serializable.

Read-only transactions also go through consensus: their reads are
certified at a seq, so they observe a state consistent with the
real-time commit order (no stale local reads).

Witness: the replicated log, replayed deterministically (batch entries
in order) -- the commands it commits in seq order, each seeing every
earlier writer.  ``check()`` adds the one log-only check: every
replica's applied prefix agrees with the merged log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..config_service.paxos import PaxosNode, ProposalFailed
from ..spec.acceptance import Witness
from ..spec.checker import Violation
from .base import ProtocolBackend, RpcSession
from .history import ABORTED, COMMITTED
from .levels import STRICT_SERIALIZABILITY


#: Internal outcome marker for commands whose batch never got chosen.
_PROPOSAL_FAILED = object()


@dataclass
class ConsusTx:
    tid: str
    #: key -> last-writer seq observed (None: read initial state).
    reads: Dict[str, Optional[int]] = field(default_factory=dict)
    #: key -> value observed at that slot (repeatable within the tx).
    read_values: Dict[str, Any] = field(default_factory=dict)
    writes: Dict[str, Any] = field(default_factory=dict)
    status: str = "ACTIVE"


def validate_and_apply(kv: Dict[str, Tuple[Any, int]], seq: int, cmd: dict) -> str:
    """The deterministic state-machine transition shared by every
    replica (and by the witness replay): commit iff every read key's
    last-writer seq is unchanged, then install writes stamped ``seq``."""
    for key, seen_seq in cmd["reads"].items():
        current = kv.get(key)
        current_seq = current[1] if current is not None else None
        if current_seq != seen_seq:
            return ABORTED
    for key, value in cmd["writes"].items():
        kv[key] = (value, seq)
    return COMMITTED


def batched_commands(cmd: Any) -> List[dict]:
    """The transaction commands carried by one log entry: a batch's
    members in list order, a bare command as a singleton, anything else
    (e.g. a no-op filler) as none."""
    if isinstance(cmd, dict):
        if "batch" in cmd:
            return list(cmd["batch"])
        if "reads" in cmd and "writes" in cmd:
            return [cmd]
    return []


class ConsusServer(PaxosNode):
    """One site's replica: Paxos node + KV state machine + transaction
    coordinator for local clients."""

    #: Commit is a consensus round; give contended proposals more room
    #: than ``PaxosNode``'s default before surfacing ProposalFailed --
    #: especially since a failed proposal now fails a whole batch.
    MAX_ATTEMPTS = 80

    def __init__(self, kernel, network, site, name, index, peers):
        super().__init__(
            kernel, network, site, name, index, peers, apply_fn=self._apply_cmd
        )
        #: key -> (value, last-writer seq), advanced only in seq order.
        self.kv: Dict[str, Tuple[Any, int]] = {}
        #: Commands applied so far = the next command's seq.
        self.applied_seq = 0
        #: tid -> COMMITTED/ABORTED once its command has been applied.
        self._outcomes: Dict[str, Any] = {}
        self._txs: Dict[str, ConsusTx] = {}
        self._waiters: List = []
        #: Commands from local commits waiting for the next proposal.
        self._commit_queue: List[dict] = []
        self._batch_kick = None

    def start(self) -> None:
        super().start()
        self.kernel.spawn(self._batch_loop(), name="%s.batcher" % self.address)

    # -- state machine -------------------------------------------------
    def _apply_cmd(self, slot: int, cmd: Any) -> None:
        for entry in batched_commands(cmd):
            status = validate_and_apply(self.kv, self.applied_seq, entry)
            self.applied_seq += 1
            self._outcomes[entry["tid"]] = status
        for event in self._waiters:
            event.trigger_once()
        self._waiters = []

    def _wait_applied(self, slot: int) -> Generator:
        while self.applied_upto <= slot:
            event = self.kernel.event(name="%s.wait:%d" % (self.address, slot))
            self._waiters.append(event)
            yield event

    # -- transaction coordinator ---------------------------------------
    def rpc_tx_begin(self, tid: str):
        self._txs[tid] = ConsusTx(tid=tid)
        return "OK"

    def rpc_tx_read(self, tid: str, key: str):
        tx = self._txs[tid]
        if key in tx.writes:
            return tx.writes[key]
        if key in tx.reads:
            # Repeatable read: the witness pins (seq, value) at first
            # observation; validation aborts the tx if the seq moved.
            return tx.read_values[key]
        current = self.kv.get(key)
        if current is None:
            tx.reads[key] = None
            tx.read_values[key] = None
            return None
        value, writer_seq = current
        tx.reads[key] = writer_seq
        tx.read_values[key] = value
        return value

    def rpc_tx_write(self, tid: str, key: str, value: Any):
        self._txs[tid].writes[key] = value
        return "OK"

    def rpc_tx_abort(self, tid: str):
        tx = self._txs.pop(tid, None)
        if tx is not None:
            tx.status = ABORTED
        return ABORTED

    def rpc_tx_commit(self, tid: str):
        tx = self._txs.pop(tid)
        cmd = {"tid": tid, "reads": dict(tx.reads), "writes": dict(tx.writes)}
        self._commit_queue.append(cmd)
        if self._batch_kick is not None:
            self._batch_kick.trigger_once()
        while tid not in self._outcomes:
            event = self.kernel.event(name="%s.commit:%s" % (self.address, tid))
            self._waiters.append(event)
            yield event
        status = self._outcomes.pop(tid)
        if status is _PROPOSAL_FAILED:
            raise ProposalFailed(
                "%s could not get %s's batch chosen" % (self.address, tid)
            )
        tx.status = status
        return status

    # -- batcher --------------------------------------------------------
    def _batch_loop(self) -> Generator:
        """One proposal in flight per site: every command that arrives
        while the previous consensus round runs rides the next slot as a
        single batch, so consensus cost is amortized across concurrent
        local commits instead of paid per transaction."""
        while True:
            while not self._commit_queue:
                self._batch_kick = self.kernel.event(
                    name="%s.batch-kick" % self.address
                )
                yield self._batch_kick
                self._batch_kick = None
            batch = list(self._commit_queue)
            del self._commit_queue[:]
            proposal = {"batch": batch} if len(batch) > 1 else batch[0]
            try:
                slot = yield from self.propose(proposal)
                yield from self._wait_applied(slot)
            except ProposalFailed:
                # Surface the failure to every commit riding this batch
                # (the client sees the same ProposalFailed the unbatched
                # path used to raise).
                for entry in batch:
                    self._outcomes.setdefault(entry["tid"], _PROPOSAL_FAILED)
                for event in self._waiters:
                    event.trigger_once()
                self._waiters = []


class ConsusSession(RpcSession):
    def __init__(self, backend: "ConsusProtocol", site: int, name: str):
        super().__init__(backend, site, name, backend.servers[site].address, timeout=60.0)


class ConsusProtocol(ProtocolBackend):
    name = "consus"
    isolation = STRICT_SERIALIZABILITY

    def _build(self) -> None:
        names = ["consus-%d" % site for site in range(self.n_sites)]
        self.servers = [
            ConsusServer(
                self.kernel, self.network, site, names[site], index=site, peers=names
            )
            for site in range(self.n_sites)
        ]
        for server in self.servers:
            server.start()

    def _make_session(self, site: int, name: str) -> ConsusSession:
        return ConsusSession(self, site, name)

    def chosen_log(self) -> List[Tuple[int, Any]]:
        """The union of every replica's chosen commands, slot-ordered.
        (Replicas converge; ``check()`` additionally checks prefix
        agreement.)"""
        merged: Dict[int, Any] = {}
        for server in self.servers:
            for slot in range(server.applied_upto):
                merged.setdefault(slot, server.log_prefix()[slot])
        return sorted(merged.items())

    def witness(self) -> Witness:
        kv: Dict[str, Tuple[Any, int]] = {}
        writers: List[str] = []
        visible: Dict[str, frozenset] = {}
        seq = 0
        for _slot, cmd in self.chosen_log():
            for entry in batched_commands(cmd):
                if validate_and_apply(kv, seq, entry) == COMMITTED:
                    visible.setdefault(entry["tid"], frozenset(writers))
                    if entry["writes"]:
                        writers.append(entry["tid"])
                seq += 1
        return Witness(list(visible), visible)

    def check(self) -> List[Violation]:
        merged = dict(self.chosen_log())
        disagreements = [
            Violation(
                "consus-replica-agreement",
                "%s applied %r at slot %d but the merged log holds %r"
                % (server.address, cmd, slot, merged.get(slot)),
            )
            for server in self.servers
            for slot, cmd in enumerate(server.log_prefix())
            if merged.get(slot) != cmd
        ]
        return disagreements + super().check()


__all__ = ["ConsusProtocol", "ConsusServer", "ConsusSession", "ProposalFailed",
           "batched_commands", "validate_and_apply"]
