"""Output checks of a closed-loop workload (the ``check`` pass).

Run on a reduced window so they never tax a timed pass:

1. the execution trace recorded by ``Deployment(trace=True)`` has no PSI
   violation (``repro.spec.checker.check_trace``);
2. after the clients stop and propagation settles, every key written in
   the window reads back, at every site that replicates it, as the last
   acknowledged write to it.

``chaos_recovery`` is checked in ``onepass.chaos_pass``: every verdict
of its 240 runs must pass.
"""

from __future__ import annotations

from repro.spec.checker import check_trace

#: Two conflicting writes cannot commit concurrently under PSI, but their
#: acknowledgements may reach two clients slightly out of commit order;
#: any write acknowledged this close to the last one may be the final one.
ACK_ORDER_SLACK_S = 0.3
READ_CHUNK = 200


def closed_loop_checks(running, settle_sim_s: float) -> dict:
    world, stats = running.world, running.stats
    stats.stopped = True
    world.settle(settle_sim_s)

    violations = check_trace(world.trace)

    last_ack = {}
    for at, oid, _token in stats.acks:
        last_ack[oid] = max(at, last_ack.get(oid, 0.0))
    acceptable = {oid: set() for oid in last_ack}
    for at, oid, token in stats.acks:
        if at >= last_ack[oid] - ACK_ORDER_SLACK_S:
            acceptable[oid].add(token)

    mismatches = []
    reads = 0
    oids = sorted(acceptable, key=str)
    for site in range(world.n_sites):
        here = [
            oid for oid in oids if world.config.container(oid.container).replicated_at(site)
        ]
        client = world.new_client(site)
        for i in range(0, len(here), READ_CHUNK):
            chunk = here[i : i + READ_CHUNK]
            values = world.run_process(_read_all(client, chunk))
            reads += len(chunk)
            for oid, value in zip(chunk, values):
                if running.token_of(value) not in acceptable[oid]:
                    mismatches.append("site %d: %s read back %r" % (site, oid, value))

    return {
        "ok": not violations and not mismatches and reads > 0,
        "psi_violations": len(violations),
        "readback_reads": reads,
        "readback_mismatches": len(mismatches),
        "detail": [str(v) for v in violations[:3]] + mismatches[:3],
    }


def _read_all(client, oids):
    tx = client.start_tx()
    values = []
    for oid in oids:
        values.append((yield from client.read(tx, oid)))
    yield from client.commit(tx)
    return values
