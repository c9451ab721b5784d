"""The Walter server and its protocol components."""

from .propagation import PropagationTracker
from .recovery import SiteRecoveryCoordinator
from .server import ServerStats, WalterServer
from .state import LeaseConfig, LocalConfig, ServerCosts

__all__ = [
    "LeaseConfig",
    "LocalConfig",
    "PropagationTracker",
    "ServerCosts",
    "ServerStats",
    "SiteRecoveryCoordinator",
    "WalterServer",
]
