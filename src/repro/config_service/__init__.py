"""Multi-decree Paxos: the substrate of the zoo's Consus member.

The deployment's configuration is :class:`repro.server.LocalConfig`;
nothing here replicates it.
"""

from .paxos import PaxosNode, ProposalFailed, make_paxos_group

__all__ = [
    "PaxosNode",
    "ProposalFailed",
    "make_paxos_group",
]
