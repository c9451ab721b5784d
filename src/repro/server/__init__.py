"""The Walter server and its protocol components."""

from .batching import BatchingConfig
from .propagation import PropagationTracker
from .recovery import SiteRecoveryCoordinator
from .server import ServerStats, WalterServer
from .state import LeaseConfig, LocalConfig, ServerCosts

__all__ = [
    "BatchingConfig",
    "LeaseConfig",
    "LocalConfig",
    "PropagationTracker",
    "ServerCosts",
    "ServerStats",
    "SiteRecoveryCoordinator",
    "WalterServer",
]
