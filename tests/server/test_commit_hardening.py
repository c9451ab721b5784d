"""Commit-path hardening (DESIGN.md §9): lock leases, reliable 2PC
decision delivery, transaction reaping, and at-most-once client retries.

Each test pins one of the failure modes the hardening closes:

* a participant's YES reply is lost -> the coordinator's retried abort
  release (not propagation, which never fires for aborts) frees the
  locks;
* the coordinator dies mid-2PC -> the participant's lease sweeper asks
  the (replacement) coordinator and releases on ABORTED/UNKNOWN
  (presumed abort);
* a client abandons a transaction -> the lease sweeper reaps it so its
  startVTS stops pinning the GC watermark;
* a commit reply is lost -> the client's retry carries an idempotency
  token and the transaction still commits exactly once.
"""

import pytest

from repro.client import RetryPolicy
from repro.deployment import Deployment
from repro.errors import TransactionStateError
from repro.net import RpcRemoteError


def _two_site_world(seed=7, **kwargs):
    w = Deployment(n_sites=2, seed=seed, **kwargs)
    w.create_container("c0", preferred_site=0)
    w.create_container("c1", preferred_site=1)
    a = w.config.container("c0").new_id()
    b = w.config.container("c1").new_id()
    return w, a, b


def _prepare(w, participant, tid, oids):
    """A prepare as production issues one: an RPC from site 0's server,
    so the participant's CPU station is charged on the way in."""
    return w.run_process(
        w.servers[0].call(
            participant.address, "prepare", tid=tid, oids=oids,
            start_vts=participant.committed_vts, coord_site=0,
        )
    )


def _commit_pair(w, client, a, b, payload):
    def tx_gen():
        tx = client.start_tx()
        yield from client.write(tx, a, payload)
        yield from client.write(tx, b, payload)
        status = yield from client.commit(tx)
        return status

    return w.run_process(tx_gen())


class TestAbortReleaseDelivery:
    """Satellite (a) + tentpole piece 2: the abort decision reaches every
    contacted participant, even one whose vote the coordinator never saw."""

    def test_dropped_prepare_reply_does_not_leak_locks(self):
        w, a, b = _two_site_world()
        client = w.new_client(0, name="harden-c0")
        assert _commit_pair(w, client, a, b, b"seed") == "COMMITTED"
        w.settle(2.0)  # propagation releases the warm-up's prepare locks

        # Site 1 votes YES and locks, but its reply vanishes: the
        # coordinator times out, counts a NO, and aborts.
        w.servers[1].drop_replies("prepare", 10.0)
        assert _commit_pair(w, client, a, b, b"lost-vote") == "ABORTED"
        assert w.servers[1].locked  # locked until the release arrives

        # The coordinator retries release_prepare (the reply drop only
        # covers "prepare") until the participant acks.
        w.settle(5.0)
        assert not w.servers[1].locked
        assert not w.servers[1]._prepared

    def test_duplicate_release_prepare_is_idempotent(self):
        w, a, b = _two_site_world()
        client = w.new_client(0, name="harden-dup")
        assert _commit_pair(w, client, a, b, b"seed") == "COMMITTED"
        w.settle(2.0)

        server = w.servers[1]
        assert server.rpc_release_prepare("no-such-tid") == "OK"
        assert server.rpc_release_prepare("no-such-tid") == "OK"
        # The decision table remembers the (presumed-abort) outcome.
        assert server._decisions["no-such-tid"][0] == "ABORTED"

    def test_planted_bug_restores_the_leak(self):
        """Harness self-test: with ``leak_prepare_locks`` the old
        fire-and-forget abort path runs and the orphan sweeper is off,
        so the lock survives arbitrarily long."""
        w, a, b = _two_site_world()
        w.chaos_bug = "leak_prepare_locks"
        client = w.new_client(0, name="harden-bug")
        assert _commit_pair(w, client, a, b, b"seed") == "COMMITTED"
        w.settle(2.0)

        w.servers[1].drop_replies("prepare", 10.0)
        assert _commit_pair(w, client, a, b, b"lost-vote") == "ABORTED"
        w.settle(20.0)
        assert w.servers[1].locked  # the pre-hardening behavior


class TestOrphanLockResolution:
    """Tentpole piece 1: prepare locks carry a lease; expiry triggers a
    decision query, never a blind release."""

    def test_orphaned_lock_released_after_decision_query(self):
        w, a, b = _two_site_world()
        client = w.new_client(0, name="harden-orphan")
        assert _commit_pair(w, client, a, b, b"seed") == "COMMITTED"
        w.settle(2.0)

        # A prepare from a coordinator that then dies mid-2PC: site 0
        # has no decision, no live tx, and no commit record for the tid,
        # so the query answers UNKNOWN (presumed abort).
        server = w.servers[1]
        assert _prepare(w, server, "ghost:1", [b]) is True
        assert server.locked and "ghost:1" in server._prepared

        # Lease (5 s) + sweep + query round-trip.
        w.settle(8.0)
        assert not server.locked
        assert "ghost:1" not in server._prepared
        assert w.obs.registry.total("locks.leaked_released") == 1

    def test_decision_query_preserves_pending_2pc(self):
        """A lock whose coordinator answers PENDING/COMMITTED is *not*
        released early -- presumed abort must never break a live 2PC."""
        w, a, b = _two_site_world()
        client = w.new_client(0, name="harden-pending")
        assert _commit_pair(w, client, a, b, b"seed") == "COMMITTED"
        w.settle(2.0)

        server = w.servers[1]
        # Plant a decision at the coordinator first: COMMITTED answers
        # extend the lease and leave the release to propagation.
        w.servers[0]._decisions["slow:1"] = ("COMMITTED", w.kernel.now)
        _prepare(w, server, "slow:1", [b])
        w.settle(8.0)
        # Still locked: only ABORTED/UNKNOWN answers may release.
        assert server.locked
        assert w.obs.registry.total("locks.leaked_released") == 0


class TestLockIndex:
    """``_prepared[tid].oids`` is the lock table's index by owner (a
    release pops it instead of scanning ``locked``): every path that
    takes or drops prepare locks must leave table and index agreeing."""

    @staticmethod
    def _agree(server):
        index = {oid: tid for tid, info in server._prepared.items() for oid in info.oids}
        assert index == server.locked
        return len(index)

    def test_commit_abort_and_release_paths_agree(self):
        w, a, b = _two_site_world()
        client = w.new_client(0, name="harden-index")
        participant = w.servers[1]
        released = []
        real_release = participant._release_locks

        def release(tid):
            count = real_release(tid)
            released.append((tid, count))
            self._agree(participant)
            return count

        participant._release_locks = release

        # Commit: the participant holds b until the commit propagates to
        # it and the remote commit releases it.
        assert _commit_pair(w, client, a, b, b"seed") == "COMMITTED"
        assert self._agree(participant) == 1
        w.settle(2.0)
        assert self._agree(participant) == 0 and not participant._prepared
        assert [count for _tid, count in released] == [1]

        # Abort, vote lost: released by the coordinator's retried abort.
        participant.drop_replies("prepare", 10.0)
        assert _commit_pair(w, client, a, b, b"lost-vote") == "ABORTED"
        assert self._agree(participant) == 1
        w.settle(5.0)
        assert self._agree(participant) == 0

        # Two owners at once; a duplicate prepare only refreshes the
        # lease; releasing one owner leaves the other's locks alone.
        c, d = (w.config.container("c1").new_id() for _ in range(2))

        participant.drop_replies("prepare", 0.0)  # the lost-vote fault is over
        for tid, oids in (("x:1", [b, c]), ("y:1", [d]), ("x:1", [b, c])):
            assert _prepare(w, participant, tid, oids) is True
        assert self._agree(participant) == 3
        assert participant.rpc_release_prepare("x:1") == "OK"
        assert self._agree(participant) == 1 and participant.locked == {d: "y:1"}
        assert participant.rpc_release_prepare("x:1") == "OK"  # idempotent
        assert participant.rpc_release_prepare("y:1") == "OK"
        assert self._agree(participant) == 0
        assert released[-3:] == [("x:1", 2), ("x:1", 0), ("y:1", 1)]

    def test_lease_sweep_and_orphan_decision_agree(self):
        w, a, b = _two_site_world()
        client = w.new_client(0, name="harden-index-orphan")
        assert _commit_pair(w, client, a, b, b"seed") == "COMMITTED"
        w.settle(2.0)
        server = w.servers[1]
        c = w.config.container("c1").new_id()

        _prepare(w, server, "ghost:2", [b, c])
        assert self._agree(server) == 2
        server.lease_sweep()  # before the lease expires: nothing to do
        assert self._agree(server) == 2
        w.settle(8.0)  # lease + sweep + decision query (UNKNOWN)
        assert self._agree(server) == 0 and not server._prepared
        # The leak counter's ``held`` reads the same index.
        assert w.obs.registry.total("locks.leaked_released") == 2


class TestTransactionReaping:
    """Tentpole piece 1: abandoned transactions stop pinning the GC
    watermark once their lease expires."""

    def test_abandoned_tx_reaped_and_watermark_advances(self):
        w, a, b = _two_site_world()
        client = w.new_client(0, name="harden-reap")
        assert _commit_pair(w, client, a, b, b"seed") == "COMMITTED"
        w.settle(2.0)

        server = w.servers[0]
        # An abandoned transaction: started, written, never finished.
        def abandoned():
            tx = client.start_tx()
            yield from client.write(tx, a, b"never-committed")
        w.run_process(abandoned())
        pinned = server.gc_watermark()

        # More commits advance CommittedVTS, but the stuck startVTS
        # keeps the watermark pinned at the meet.
        assert _commit_pair(w, client, a, b, b"later") == "COMMITTED"
        w.settle(2.0)
        assert server.gc_watermark() == pinned

        # After the tx lease (5 s) expires, the background sweep reaps it.
        w.settle(server.leases.tx_lease)
        assert w.obs.registry.total("tx.reaped") == 1
        assert server.lease_sweep() == 0
        assert server.gc_watermark() != pinned
        # Reaps are not client-visible aborts; the stats don't conflate
        # them (the gauge refresh is what the GC loop reports).
        server._refresh_gc_gauges()
        gauge = w.obs.registry.gauge("server.gc_watermark", site=0)
        assert gauge.value == sum(server.gc_watermark())

    def test_sweep_clears_expired_anti_starvation_entries(self):
        w, a, b = _two_site_world(anti_starvation=True)
        server = w.servers[1]
        server.mark_slow_commit_abort([b])
        assert server._delayed_until
        # Never re-accessed: only the sweeper can clear it.
        w.settle(server.anti_starvation_delay + 0.1)
        server.lease_sweep()
        assert not server._delayed_until


class TestClientRetry:
    """Tentpole piece 3: timeout retries with an at-most-once commit."""

    @pytest.mark.parametrize("seed", [1, 7, 13, 29, 43])
    def test_retried_commit_commits_exactly_once(self, seed):
        """Property: whatever the network timing (seeded jitter), a
        commit whose reply is lost commits exactly once under retry."""
        w, a, b = _two_site_world(seed=seed)
        client = w.new_client(
            0, name="harden-retry", retry=RetryPolicy(attempts=4, base_delay=0.5)
        )
        assert _commit_pair(w, client, a, b, b"seed") == "COMMITTED"
        w.settle(2.0)

        server = w.servers[0]
        commits_before = server.stats.commits
        versions_before = len(server.histories.history(a).versions())

        # The commit executes but its reply is lost; the client retries
        # with the same idempotency token and gets the cached outcome.
        server.drop_replies("tx_commit", 1.0)
        assert _commit_pair(w, client, a, b, b"retried") == "COMMITTED"
        assert client.retries_attempted > 0

        w.settle(2.0)
        assert server.stats.commits == commits_before + 1
        assert len(server.histories.history(a).versions()) == versions_before + 1

    def test_duplicate_commit_returns_when_the_original_lands(self):
        """A retried commit that overtakes its original waits for it and
        answers the cached outcome at the instant it lands."""
        w = Deployment(n_sites=1, seed=3, jitter_frac=0.0)
        w.create_container("c0", preferred_site=0)
        client = w.new_client(0, name="harden-overtake")
        oid = w.config.container("c0").new_id()
        server = w.servers[0]
        landed = {}

        def commit(label, delay):
            yield w.kernel.timeout(delay)
            status = yield from client.call(
                server.address, "tx_commit", tid="t:1", ck="t:1#commit",
                allow_fresh=False,
            )
            landed[label] = (status, w.kernel.now)

        def scenario():
            yield from client.call(server.address, "tx_write", tid="t:1", oid=oid, data=b"v")
            # The duplicate arrives while the original is mid-commit.
            original = w.kernel.spawn(commit("original", 0.0))
            duplicate = w.kernel.spawn(commit("duplicate", 0.001))
            yield original
            yield duplicate

        w.run_process(scenario())
        assert landed["duplicate"] == landed["original"]
        assert landed["original"][0] == "COMMITTED"
        assert server.stats.commits == 1

    def test_no_retry_policy_means_no_token_no_retry(self):
        w, a, b = _two_site_world()
        client = w.new_client(0, name="harden-noretry")
        assert _commit_pair(w, client, a, b, b"seed") == "COMMITTED"
        assert client.retry is None
        assert client.retries_attempted == 0
        assert not w.servers[0]._commit_outcomes


class TestFreshThreading:
    """Satellite (b): reads after a server replacement must fail loudly
    instead of silently starting an empty transaction."""

    def test_multiread_after_replacement_raises(self):
        w, a, b = _two_site_world()
        client = w.new_client(0, name="harden-fresh")

        def run():
            tx = client.start_tx()
            yield from client.write(tx, a, b"buffered")
            # The replacement lost the buffered update; multiread must
            # not silently restart the transaction as empty.
            w.crash_server(0)
            w.replace_server(0)
            with pytest.raises(RpcRemoteError) as err:
                yield from client.multiread(tx, [a, b])
            assert TransactionStateError.__name__ in str(err.value)

        w.run_process(run())

    def test_read_cset_objects_after_replacement_raises(self):
        w, a, b = _two_site_world()
        from repro.core.objects import ObjectKind

        cset = w.config.container("c0").new_id(ObjectKind.CSET)
        client = w.new_client(0, name="harden-cset")

        def run():
            tx = client.start_tx()
            yield from client.set_add(tx, cset, "x")
            w.crash_server(0)
            w.replace_server(0)
            with pytest.raises(RpcRemoteError) as err:
                yield from client.read_cset_objects(tx, cset)
            assert TransactionStateError.__name__ in str(err.value)

        w.run_process(run())
