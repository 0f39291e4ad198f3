"""Storage engines: instances, backends, indexes and statistics."""

from .backend import BACKENDS, MemoryBackend, StorageBackend, make_backend
from .database import Database
from .disk import DiskBackend, disk_backend_factory
from .indexes import AccessIndex
from .statistics import (distinct_count, is_key, max_group_cardinality,
                         selectivity_profile)

__all__ = [
    "Database", "AccessIndex",
    "StorageBackend", "MemoryBackend", "DiskBackend",
    "disk_backend_factory",
    "make_backend", "BACKENDS",
    "max_group_cardinality", "distinct_count", "is_key",
    "selectivity_profile",
]
