"""An NMSI blind write must not adopt dependencies its snapshot cannot
hold.

A blind write adopts the version it overwrites, with that version's
dependencies, so each key's versions form a dependency chain.  Here a
stale site reads ``pk0`` at an old version, then blind-writes ``pk3``,
whose latest version depends on a newer ``pk0``.  Committing would give
the transaction a snapshot holding two versions of ``pk0`` -- it read
one and depends on a later one -- so it must abort instead.
"""

from repro.protocols.base import key_site
from repro.protocols.registry import build

STALE = 2


def run(backend, gen):
    return backend.run_process(gen, within=120.0)


def write(session, key, value, read=None):
    def gen():
        tid = yield from session.begin()
        if read is not None:
            yield from session.read(tid, read)
        yield from session.write(tid, key, value)
        return (yield from session.commit(tid))

    return gen()


def test_blind_write_over_a_version_newer_than_the_snapshot_aborts():
    backend = build("nmsi", n_sites=3, seed=0)
    # Both keys are mastered at site 0, which every site can reach.
    assert key_site("pk0", 3) == key_site("pk3", 3) == 0
    fresh = backend.session(1)
    assert run(backend, write(fresh, "pk0", "a1")) == "COMMITTED"
    backend.settle(5.0)

    # Site 2 stops hearing from site 1, which writes pk0 again and then
    # pk3 from a snapshot holding that newer pk0.
    backend.network.partition(1, STALE)
    assert run(backend, write(fresh, "pk0", "a2")) == "COMMITTED"
    assert run(backend, write(fresh, "pk3", "b1", read="pk0")) == "COMMITTED"
    backend.settle(5.0)
    master = backend.servers[0]
    assert [rec.value for rec in master.store["pk3"]] == ["b1"]

    stale = backend.session(STALE)

    def read_then_blind_write():
        tid = yield from stale.begin()
        seen = yield from stale.read(tid, "pk0")
        yield from stale.write(tid, "pk3", "t")
        return seen, (yield from stale.commit(tid))

    seen, status = run(backend, read_then_blind_write())
    assert seen == "a1"
    assert status == "ABORTED"

    backend.heal_all()
    backend.settle(30.0)
    assert backend.check() == []
    assert backend.lattice_report() == {"eventual": []}
