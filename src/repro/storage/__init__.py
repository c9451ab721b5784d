"""Durable storage substrate: WAL with group commit, cache, checkpoints."""

from .cache import CacheStats, ObjectCache
from .checkpoint import Checkpoint
from .cluster import DEFAULT_CACHE_CAPACITY, SiteStorage
from .disklog import (
    FLUSH_EC2,
    FLUSH_MEMORY,
    FLUSH_WRITE_CACHING_OFF,
    FLUSH_WRITE_CACHING_ON,
    DiskLog,
    DiskStats,
    LogRecord,
)

__all__ = [
    "CacheStats",
    "DEFAULT_CACHE_CAPACITY",
    "Checkpoint",
    "DiskLog",
    "DiskStats",
    "FLUSH_EC2",
    "FLUSH_MEMORY",
    "FLUSH_WRITE_CACHING_OFF",
    "FLUSH_WRITE_CACHING_ON",
    "LogRecord",
    "ObjectCache",
    "SiteStorage",
]
