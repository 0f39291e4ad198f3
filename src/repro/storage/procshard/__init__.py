"""Process-parallel sharded storage over the encoded fetch boundary.

See :mod:`.backend` for the coordinator and :mod:`.worker` for the
code-space shard servers.
"""

from .backend import ProcessShardedBackend
from .worker import CodeIndex, WorkerState

__all__ = ["ProcessShardedBackend", "WorkerState", "CodeIndex"]
