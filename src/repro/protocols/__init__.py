"""The protocol zoo: PSI (Walter), SI (primary-copy), NMSI, and a
Consus-style strictly-serializable commit, all on one sim substrate.

Every backend implements the :class:`~repro.protocols.base.ProtocolBackend`
/ :class:`~repro.protocols.base.ProtocolSession` contract, records a
:class:`~repro.protocols.history.ProtocolHistory`, reads its witness from
server state (``backend.witness()``), and checks it at its own isolation
level (``backend.check()``) and at every weaker one
(``backend.lattice_report()``).
"""

import importlib

from .levels import (
    ALL_LEVELS,
    EVENTUAL,
    FIG8_LEVELS,
    LATTICE_CHAIN,
    NMSI,
    PSI,
    SERIALIZABILITY,
    SNAPSHOT_ISOLATION,
    STRICT_SERIALIZABILITY,
    WEAKER_THAN,
    weaker_levels,
)

# The backends pull in the spec layer (and through Walter the whole
# deployment stack), while the spec layer needs only the constants above;
# load them lazily so ``repro.spec.acceptance -> repro.protocols.levels``
# does not cycle back into a half-initialized ``repro.spec``.
_LAZY_EXPORTS = {
    "ProtocolBackend": "base",
    "ProtocolSession": "base",
    "key_site": "base",
    "ABORTED": "history",
    "COMMITTED": "history",
    "ERROR": "history",
    "ProtocolHistory": "history",
    "TxRecord": "history",
    "PROTOCOLS": "registry",
    "PROTOCOL_NAMES": "registry",
    "build": "registry",
    "get_protocol": "registry",
}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)


__all__ = [
    "ABORTED",
    "ALL_LEVELS",
    "COMMITTED",
    "ERROR",
    "EVENTUAL",
    "FIG8_LEVELS",
    "LATTICE_CHAIN",
    "NMSI",
    "PROTOCOLS",
    "PROTOCOL_NAMES",
    "PSI",
    "ProtocolBackend",
    "ProtocolHistory",
    "ProtocolSession",
    "SERIALIZABILITY",
    "SNAPSHOT_ISOLATION",
    "STRICT_SERIALIZABILITY",
    "TxRecord",
    "WEAKER_THAN",
    "build",
    "get_protocol",
    "key_site",
    "weaker_levels",
]
