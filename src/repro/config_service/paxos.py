"""Multi-decree Paxos over the simulated network.

The paper runs its configuration service as "a Paxos-based state
machine replicated across multiple sites" (§5.1).  This tree does not:
the configuration is one shared :class:`repro.server.LocalConfig`
(DESIGN.md §2).  The Paxos log is the substrate of the zoo's Consus
member (:mod:`repro.protocols.consus`): each :class:`PaxosNode` is a
combined proposer/acceptor/learner for a log of slots; chosen commands
are applied to a caller-supplied state machine in slot order on every
node.

The implementation is classic single-decree Paxos per slot (no stable
leader): a proposer runs phase 1 (prepare/promise) and phase 2
(accept/accepted) against all peers, needs a majority for each, adopts
any previously accepted value with the highest ballot, and retries with a
larger ballot on rejection.  Chosen values are disseminated with learn
messages.  Safety holds under message loss, node crashes (minority), and
concurrent proposers; liveness relies on randomized retry backoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..net import Host, Network, RpcError
from ..sim import Kernel

Ballot = Tuple[int, int]  # (round, node_index) -- totally ordered


@dataclass
class AcceptorSlot:
    promised: Optional[Ballot] = None
    accepted_ballot: Optional[Ballot] = None
    accepted_value: Any = None


class ProposalFailed(RpcError):
    """Could not gather a majority (partition or too many crashes)."""


class PaxosNode(Host):
    """One replica of the Paxos-replicated log."""

    #: Phase timeout before a proposer gives up on stragglers.
    PHASE_TIMEOUT = 1.0
    #: Max (prepare, accept) attempts before a propose() raises.
    MAX_ATTEMPTS = 20

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        site,
        name: str,
        index: int,
        peers: List[str],
        apply_fn: Optional[Callable[[int, Any], None]] = None,
    ):
        super().__init__(kernel, network, site, name)
        self.index = index
        self.peers = list(peers)  # includes self.address
        self.apply_fn = apply_fn
        self._acceptor: Dict[int, AcceptorSlot] = {}
        self.chosen: Dict[int, Any] = {}
        self._applied_upto = 0  # next slot to apply
        self._round = 0
        self._rng = network.streams.stream("paxos.%s" % name)

    # ------------------------------------------------------------------
    # Acceptor role
    # ------------------------------------------------------------------
    def _slot(self, slot: int) -> AcceptorSlot:
        entry = self._acceptor.get(slot)
        if entry is None:
            entry = AcceptorSlot()
            self._acceptor[slot] = entry
        return entry

    def rpc_prepare(self, slot: int, ballot: Ballot):
        ballot = tuple(ballot)
        entry = self._slot(slot)
        if entry.promised is None or ballot > entry.promised:
            entry.promised = ballot
            return {
                "ok": True,
                "accepted_ballot": entry.accepted_ballot,
                "accepted_value": entry.accepted_value,
            }
        return {"ok": False, "promised": entry.promised}

    def rpc_accept(self, slot: int, ballot: Ballot, value: Any):
        ballot = tuple(ballot)
        entry = self._slot(slot)
        if entry.promised is None or ballot >= entry.promised:
            entry.promised = ballot
            entry.accepted_ballot = ballot
            entry.accepted_value = value
            return {"ok": True}
        return {"ok": False, "promised": entry.promised}

    # ------------------------------------------------------------------
    # Learner role
    # ------------------------------------------------------------------
    def on_learn(self, src: str, slot: int, value: Any):
        self._learn(slot, value)

    def _learn(self, slot: int, value: Any) -> None:
        if slot in self.chosen:
            return
        self.chosen[slot] = value
        while self._applied_upto in self.chosen:
            if self.apply_fn is not None:
                self.apply_fn(
                    self._applied_upto, _unwrap(self.chosen[self._applied_upto])
                )
            self._applied_upto += 1

    @property
    def applied_upto(self) -> int:
        """Number of contiguous slots applied to the state machine."""
        return self._applied_upto

    def log_prefix(self) -> List[Any]:
        """The applied command sequence (for consistency assertions)."""
        return [_unwrap(self.chosen[s]) for s in range(self._applied_upto)]

    # ------------------------------------------------------------------
    # Proposer role
    # ------------------------------------------------------------------
    def _next_ballot(self) -> Ballot:
        self._round += 1
        return (self._round, self.index)

    def _majority(self) -> int:
        return len(self.peers) // 2 + 1

    def propose(self, value: Any):
        """Generator: get ``value`` chosen in some slot; returns the slot.

        The value is wrapped with a unique proposal id so that a retrying
        proposer recognizes when a competitor already got its value chosen
        (by ballot adoption) and does not choose it a second time in a
        later slot -- commands are applied exactly once.
        """
        self._pid_counter = getattr(self, "_pid_counter", 0) + 1
        wrapped = {"__pid": "%s/%d" % (self.address, self._pid_counter), "payload": value}
        for _attempt in range(self.MAX_ATTEMPTS):
            already = self._slot_of(wrapped)
            if already is not None:
                return already
            slot = self._first_unchosen()
            chosen_value = yield from self._run_instance(slot, wrapped)
            if chosen_value is _NO_MAJORITY:
                # Back off (randomized to break duels) and retry.
                yield self.kernel.timeout(0.01 + self._rng.random() * 0.05)
                continue
            self._broadcast_learn(slot, chosen_value)
            self._learn(slot, chosen_value)
            if chosen_value == wrapped:
                return slot
        raise ProposalFailed(
            "%s could not get a value chosen after %d attempts"
            % (self.address, self.MAX_ATTEMPTS)
        )

    def _slot_of(self, wrapped: Any) -> Optional[int]:
        for slot, value in self.chosen.items():
            if value == wrapped:
                return slot
        return None

    def _first_unchosen(self) -> int:
        slot = self._applied_upto
        while slot in self.chosen:
            slot += 1
        return slot

    def _run_instance(self, slot: int, value: Any):
        ballot = self._next_ballot()
        # Phase 1: prepare.
        promises = yield from self._broadcast(
            "prepare", {"slot": slot, "ballot": ballot}
        )
        granted = [p for p in promises if p and p.get("ok")]
        if len(granted) < self._majority():
            return _NO_MAJORITY
        # Adopt the highest-ballot previously accepted value, if any.
        best: Optional[Tuple[Ballot, Any]] = None
        for p in granted:
            ab = p.get("accepted_ballot")
            if ab is not None and (best is None or tuple(ab) > best[0]):
                best = (tuple(ab), p.get("accepted_value"))
        value_to_use = best[1] if best is not None else value
        # Phase 2: accept.
        acks = yield from self._broadcast(
            "accept", {"slot": slot, "ballot": ballot, "value": value_to_use}
        )
        accepted = [a for a in acks if a and a.get("ok")]
        if len(accepted) < self._majority():
            return _NO_MAJORITY
        return value_to_use

    def _broadcast(self, method: str, args: Dict[str, Any]):
        """Ask every peer at once; None for timeouts/errors."""
        results = yield self.ask_all(
            [(peer, method, args) for peer in self.peers], timeout=self.PHASE_TIMEOUT
        )
        return [None if isinstance(r, RpcError) else r for r in results]

    def _broadcast_learn(self, slot: int, value: Any) -> None:
        for peer in self.peers:
            if peer != self.address:
                self.cast(peer, "learn", slot=slot, value=value)


class _NoMajority:
    __slots__ = ()

    def __repr__(self):
        return "<no majority>"


_NO_MAJORITY = _NoMajority()


def _unwrap(value: Any) -> Any:
    """Strip the proposal-id envelope added by :meth:`PaxosNode.propose`."""
    if isinstance(value, dict) and "__pid" in value and "payload" in value:
        return value["payload"]
    return value


def make_paxos_group(kernel: Kernel, network: Network, sites: List[int]) -> List[PaxosNode]:
    """One PaxosNode per site, fully meshed, started."""
    names = ["paxos-%d" % i for i in range(len(sites))]
    nodes = []
    for i, site in enumerate(sites):
        node = PaxosNode(kernel, network, site, names[i], index=i, peers=names)
        node.start()
        nodes.append(node)
    return nodes
