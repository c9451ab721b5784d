"""Walter: transactional storage for geo-replicated systems (SOSP 2011).

A complete Python reproduction of the paper's system and evaluation:

* :mod:`repro.core` -- versions, vector timestamps, counting sets,
  object histories;
* :mod:`repro.spec` -- the executable PSI specification, the isolation
  acceptance checkers and the Fig 8 anomaly histories they judge, and
  the PSI trace checker;
* :mod:`repro.server` / :mod:`repro.client` -- the distributed Walter
  implementation (fast/slow commit, asynchronous propagation, recovery);
* :mod:`repro.deployment` -- multi-site assembly on a simulated EC2
  topology;
* :mod:`repro.baselines` -- Berkeley-DB-like and Redis-like comparators;
* :mod:`repro.apps` -- WaltSocial and ReTwis;
* :mod:`repro.bench` -- the benchmark harness regenerating every table
  and figure of §8.

Quickstart::

    from repro import Deployment

    world = Deployment(n_sites=2)
    world.create_container("alice", preferred_site=0)
    client = world.new_client(0)
    oid = client.new_id("alice")

    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, b"hello geo-replication")
        status = yield from client.commit(tx)
        return status

    print(world.run_process(scenario()))  # COMMITTED
"""

from .client import TxHandle, WalterClient
from .core import (
    CSet,
    Container,
    ObjectId,
    ObjectKind,
    Transaction,
    TxStatus,
    VectorTimestamp,
    Version,
)
from .deployment import Deployment
from .errors import (
    ConfigurationError,
    NoSuchContainerError,
    TransactionAborted,
    TransactionStateError,
    TypeMismatchError,
    WalterError,
)
from .net import Topology
from .server import LocalConfig, ServerCosts, WalterServer

__version__ = "1.0.0"

__all__ = [
    "CSet",
    "ConfigurationError",
    "Container",
    "Deployment",
    "LocalConfig",
    "NoSuchContainerError",
    "ObjectId",
    "ObjectKind",
    "ServerCosts",
    "Topology",
    "Transaction",
    "TransactionAborted",
    "TransactionStateError",
    "TxHandle",
    "TxStatus",
    "TypeMismatchError",
    "VectorTimestamp",
    "Version",
    "WalterClient",
    "WalterError",
    "WalterServer",
    "__version__",
]
