"""Parallel experiment orchestration with an on-disk result cache.

See ORCHESTRATION.md at the repository root for the task model, the
execution-backend protocol, the worker/queue model, the cache layout,
and the invalidation rules.
"""

from repro.orchestration.backends import (
    BACKEND_NAMES,
    BackendError,
    ExecutionBackend,
    PendingTask,
    ProcessBackend,
    QueueBackend,
    QueueTaskFailed,
    SerialBackend,
    create_backend,
    default_backend,
)
from repro.orchestration.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    PROFILE_FIELDS,
    CacheStats,
    ResultCache,
    default_cache_dir,
    profile_from_provenance,
    scan_cache_entry_keys,
    shard_name,
)
from repro.orchestration.executor import (
    OrchestrationContext,
    OrchestrationStats,
    serial_context,
)
from repro.orchestration.jobqueue import (
    ChunkEnvelope,
    JobQueue,
    TaskEnvelope,
    WorkerHeartbeat,
    chunk_queue_key,
    default_queue_dir,
    envelope_from_payload,
)
from repro.orchestration.status import (
    DEFAULT_STALE_AFTER,
    profile_cache,
    queue_status,
    render_profile,
    render_status,
)
from repro.orchestration.worker import (
    DEFAULT_HEARTBEAT_INTERVAL,
    HeartbeatWriter,
    QueueWorker,
    WorkerStats,
)
from repro.orchestration.hashing import (
    OMIT_IF_NONE,
    canonicalize,
    code_version,
    derive_task_seed,
    stable_hash,
)
from repro.orchestration.task import (
    SetupCache,
    Task,
    TaskGroup,
    execute_task_profiled,
    make_task,
    run_task_profiled,
)

__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_STALE_AFTER",
    "PROFILE_FIELDS",
    "CacheStats",
    "ChunkEnvelope",
    "ExecutionBackend",
    "HeartbeatWriter",
    "JobQueue",
    "OrchestrationContext",
    "OrchestrationStats",
    "PendingTask",
    "ProcessBackend",
    "QueueBackend",
    "QueueTaskFailed",
    "QueueWorker",
    "ResultCache",
    "SerialBackend",
    "SetupCache",
    "Task",
    "TaskEnvelope",
    "TaskGroup",
    "WorkerHeartbeat",
    "WorkerStats",
    "chunk_queue_key",
    "create_backend",
    "default_backend",
    "default_queue_dir",
    "OMIT_IF_NONE",
    "canonicalize",
    "code_version",
    "default_cache_dir",
    "derive_task_seed",
    "envelope_from_payload",
    "execute_task_profiled",
    "make_task",
    "profile_cache",
    "profile_from_provenance",
    "queue_status",
    "render_profile",
    "render_status",
    "run_task_profiled",
    "scan_cache_entry_keys",
    "serial_context",
    "shard_name",
    "stable_hash",
]
