"""Exception hierarchy for the Walter reproduction."""


class WalterError(Exception):
    """Base class for all library errors."""


class TransactionAborted(WalterError):
    """The transaction could not commit (write-write conflict or failure)."""


class TransactionStateError(WalterError):
    """An operation was applied to a transaction in the wrong state
    (e.g. reading from a transaction that already committed)."""


class TypeMismatchError(WalterError):
    """A regular-object operation hit a cset object or vice versa.

    The paper's API separates read/write (regular) from setAdd/setDel/
    setRead (cset); a cset object does not support write because write does
    not commute with ADD (§3.3)."""


class NoSuchContainerError(WalterError):
    """Object id refers to a container the configuration does not know."""


class ConfigurationError(WalterError):
    """Invalid deployment or container configuration."""


class SnapshotTooOldError(WalterError):
    """A snapshot read asked for state below a history's GC watermark.

    The watermark is derived from the minimum ``startVTS`` over active
    local transactions, so this can only fire for remote snapshots that
    lag the serving site's GC (§6); failing loudly beats silently
    serving a value whose superseded versions were already collected."""
