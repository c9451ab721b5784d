"""Objects, object ids, and containers (paper §4.1).

Walter stores key-value objects of two kinds: *regular* (value is an
uninterpreted byte sequence) and *cset* (value is a counting set).  Objects
are grouped in containers; all objects in a container share a preferred
site and a replica set, stored once as container attributes.  An object id
is a (container id, local id) pair, so the container of an object can
never change.

Conceptually all objects always exist, initialized to nil (regular) or the
empty cset (§6) -- there are no create/destroy operations.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, Optional

from ..errors import ConfigurationError


class ObjectKind(enum.Enum):
    """The two Walter object types."""

    REGULAR = "regular"
    CSET = "cset"


@dataclass(frozen=True)
class ObjectId:
    """Identifier of a Walter object: container id + local id + kind.

    The kind is carried in the id (as the C++ implementation's ``newid``
    takes an ``OType``) so servers can type-check operations without a
    metadata lookup.
    """

    container: str
    local: str
    kind: ObjectKind = ObjectKind.REGULAR

    def __post_init__(self):
        # Object ids are hashed on every store/lock lookup.  Precompute the
        # same field-tuple hash the dataclass machinery would generate so
        # hash-dependent orderings (set iteration) are unchanged.
        object.__setattr__(
            self, "_hash", hash((self.container, self.local, self.kind))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashing is per-process (PYTHONHASHSEED), so the cached
        # ``_hash`` must not travel inside pickled state: an id unpickled
        # in another process would never land in the same dict bucket as
        # a locally minted equal id (tests/net/test_determinism.py).  Rebuild
        # through the constructor so ``__post_init__`` recomputes it.
        return (self.__class__, (self.container, self.local, self.kind))

    def __str__(self) -> str:
        tag = "c" if self.kind is ObjectKind.CSET else "r"
        return "%s/%s#%s" % (self.container, self.local, tag)

    @property
    def is_cset(self) -> bool:
        return self.kind is ObjectKind.CSET


@dataclass
class Container:
    """A logical grouping of objects with common placement attributes.

    ``preferred_site`` is where writes to the container's regular objects
    fast-commit; ``replica_sites`` is where the data is stored.  An object
    need not be replicated at every site -- reads at non-replica sites
    fetch from the preferred site (§5.3).
    """

    id: str
    preferred_site: int
    replica_sites: FrozenSet[int] = field(default_factory=frozenset)
    _local_seq: Iterator[int] = field(
        default_factory=lambda: itertools.count(), repr=False, compare=False
    )

    def __post_init__(self):
        self.replica_sites = frozenset(self.replica_sites)
        if self.replica_sites and self.preferred_site not in self.replica_sites:
            raise ConfigurationError(
                "container %r: preferred site %d must be a replica site %r"
                % (self.id, self.preferred_site, sorted(self.replica_sites))
            )

    def new_id(self, kind: ObjectKind = ObjectKind.REGULAR, local: Optional[str] = None) -> ObjectId:
        """Mint a fresh object id in this container (the ``newid`` API)."""
        if local is None:
            local = "o%d" % next(self._local_seq)
        return ObjectId(container=self.id, local=local, kind=kind)

    def replicated_at(self, site: int) -> bool:
        return site in self.replica_sites
