"""Chaos smoke for the protocol zoo: every registry backend survives a
seeded fault schedule and its witness passes the verifier at its own
level and at every weaker one.

Fixed seeds keep these deterministic; the CI protocol-matrix job runs a
wider seed range via ``python -m repro.chaos --protocol <name>``.
"""

import pytest

from repro.chaos import ProtocolChaosConfig, run_protocol_chaos
from repro.chaos.protocols import generate_protocol_faults
from repro.protocols.registry import PROTOCOL_NAMES

SMOKE = dict(n_sites=3, horizon=10.0, fault_budget=3, clients_per_site=2,
             txs_per_client=4, settle=30.0)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_protocol_chaos_smoke(name):
    result = run_protocol_chaos(ProtocolChaosConfig(protocol=name, seed=5, **SMOKE))
    detail = "\n".join(
        [str(v) for v in result.violations]
        + ["[%s] %s" % (lvl, v) for lvl, vs in result.lattice.items() for v in vs]
    )
    assert result.passed, detail
    assert result.outcomes.get("COMMITTED", 0) > 0, result.outcomes
    assert result.applied_faults, "schedule applied no faults"


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_protocol_chaos_verdict_deterministic(name):
    config = ProtocolChaosConfig(
        protocol=name, seed=6, n_sites=3, horizon=6.0, fault_budget=2,
        clients_per_site=1, txs_per_client=3, settle=20.0,
    )
    first = run_protocol_chaos(config)
    second = run_protocol_chaos(config)
    assert first.verdict_json() == second.verdict_json()


#: Full-config seeds where a commit's reply was lost (its client saw
#: ERROR) but the servers committed it and a committed reader saw its
#: write.  Judged by the client's record they fail; by the servers'
#: witness, which lists the writer as committed, they pass.
INDETERMINATE_COMMITS = [("si", 17), ("consus", 23), ("nmsi", 10), ("walter", 96)]


@pytest.mark.parametrize("name,seed", INDETERMINATE_COMMITS,
                         ids=["%s-%d" % case for case in INDETERMINATE_COMMITS])
def test_an_indeterminate_commit_is_judged_by_the_servers_witness(name, seed):
    result = run_protocol_chaos(ProtocolChaosConfig(protocol=name, seed=seed))
    assert result.passed, result.verdict_json()
    order = set(result.backend.witness().order)
    assert any(
        t.status == "ERROR" and t.tid in order
        for t in result.backend.history.transactions
    )


def test_fault_schedules_differ_across_protocols_but_not_runs():
    a = generate_protocol_faults(ProtocolChaosConfig(protocol="nmsi", seed=1))
    b = generate_protocol_faults(ProtocolChaosConfig(protocol="nmsi", seed=1))
    c = generate_protocol_faults(ProtocolChaosConfig(protocol="nmsi", seed=2))
    assert a == b
    assert a != c
