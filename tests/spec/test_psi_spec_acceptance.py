"""The PSI acceptance checker is sound against the reference spec.

Random schedules of the Fig 4/5 engine -- at most four transactions over
two sites and two keys, with random partial ``propagate`` steps -- are
converted to :class:`TxRecord` histories (``begin`` = start timestamp,
``end`` = commit timestamp at the home site) and every one must be
accepted at PSI.  A planted spec bug that commits every
transaction must be caught on some seed, so the test can fail.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ObjectId, ObjectKind
from repro.protocols.levels import PSI
from repro.spec import ACCEPTS, COMMITTED, ParallelSnapshotIsolation, TxRecord

N_SITES = 2
MAX_TXS = 4
STEPS = 20
KEYS = {name: ObjectId("sound", name, ObjectKind.REGULAR) for name in ("x", "y")}


def spec_history(seed):
    """One random spec run as a list of :class:`TxRecord`."""
    rng = random.Random(seed)
    spec = ParallelSnapshotIsolation(n_sites=N_SITES)
    ops = {}
    active = []
    for step in range(STEPS):
        roll = rng.random()
        if len(ops) < MAX_TXS and (roll < 0.2 or not active):
            tx = spec.start_tx(rng.randrange(N_SITES))
            ops[tx.tid] = []
            active.append(tx)
        elif active and roll < 0.5:
            tx, key = rng.choice(active), rng.choice(list(KEYS))
            ops[tx.tid].append(("read", key, spec.read(tx, KEYS[key])))
        elif active and roll < 0.8:
            tx, key = rng.choice(active), rng.choice(list(KEYS))
            value = "v%d" % step
            spec.write(tx, KEYS[key], value)
            ops[tx.tid].append(("write", key, value))
        elif active and roll < 0.9:
            spec.commit_tx(active.pop(rng.randrange(len(active))))
        else:
            ready = [
                (tx, site)
                for tx in spec.transactions
                for site in range(N_SITES)
                if spec.can_propagate(tx, site)
            ]
            if ready:
                spec.propagate(*rng.choice(ready))
    for tx in active:
        spec.commit_tx(tx)
    return [
        TxRecord(
            tx.tid,
            tx.site,
            tx.start_ts,
            tx.commit_ts[tx.site] if tx.status == COMMITTED else tx.abort_ts,
            tx.status,
            tuple(ops[tx.tid]),
        )
        for tx in spec.transactions
    ]


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_every_spec_history_is_psi_accepted(seed):
    history = spec_history(seed)
    assert ACCEPTS[PSI](history), history


def test_a_spec_that_never_aborts_is_caught(monkeypatch):
    monkeypatch.setattr(
        ParallelSnapshotIsolation, "_choose_outcome", lambda self, tx: COMMITTED
    )
    assert any(not ACCEPTS[PSI](spec_history(seed)) for seed in range(400))
