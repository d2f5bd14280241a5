"""File-based job queue: lease files and atomic renames.

The queue is a directory (by convention ``<cache_dir>/queue``) shared
between one or more *submitters* (an
:class:`~repro.orchestration.backends.queue.QueueBackend` inside a
runner process) and any number of *workers* (``runner worker``
processes) -- on one host or on several hosts sharing a filesystem.
No daemon, no sockets, no locks beyond what ``os.rename`` gives us:

```
queue/
  tasks/<queue_key>.task    pickled TaskEnvelope or ChunkEnvelope,
                            awaiting a claim
  leases/<queue_key>.task   the same file, claimed by some worker
  failed/<entry_key>.pkl    failure record for a task that raised
  workers/<worker>.json     heartbeat: who is attached, doing what
```

A *queue key* names one queue file: the cache entry key for a single
:class:`TaskEnvelope`, a deterministic ``chunk-<sha>`` digest of the
member entry keys for a :class:`ChunkEnvelope` (K tasks travelling
under one lease; see "Chunking" in ORCHESTRATION.md).  Failure records
are always per *entry key* -- a chunk member that raises gets its own
record, exactly as if it had travelled alone.

State transitions are single atomic renames, so two workers can never
both own a task:

* **enqueue**   -- write to a temp file, ``os.replace`` into ``tasks/``.
* **claim**     -- ``os.rename(tasks/X, leases/X)``; losing the race
  raises ``FileNotFoundError`` and the claimer just moves on.  The
  lease file's mtime is bumped to record the claim time.
* **complete**  -- the worker stores the result in the shared
  :class:`~repro.orchestration.cache.ResultCache` (atomic in its own
  right) and unlinks the lease.  *The cache is the result channel*:
  submitters detect completion by watching for the entry key to become
  loadable.
* **fail**      -- a failure record lands in ``failed/`` (temp file +
  ``os.replace``) and the lease is unlinked; submitters surface it.
* **reclaim**   -- a lease older than ``lease_timeout`` belongs to a
  worker presumed dead; ``os.rename(leases/X, tasks/X)`` makes the
  task claimable again.  A lease whose owner's *heartbeat* is still
  fresh is exempt: the worker is alive, the task merely slow.
  Reclaiming a lease whose worker was merely slow is still harmless:
  tasks are pure and cache stores are atomic, so a duplicated
  execution wastes time but can never corrupt a result.

Heartbeats (``workers/<worker>.json``) are small JSON files each
worker rewrites every few seconds -- worker id, host, pid, start and
last-beat timestamps, the entry key it is currently executing, and
done/failed/refused counters.  They are *advisory*: the queue state
machine above never depends on them for correctness, they only make
reclaim smarter and a live sweep observable (``runner queue status``).

Queue files are ordinary pickles, exactly like the cache entries next
to them: a local/cluster artifact, not an interchange format.  Do not
attach workers to queue directories from untrusted sources.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import socket
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.orchestration.cache import atomic_write
from repro.orchestration.hashing import TaskKey, stable_hash
from repro.orchestration.task import Task

#: Bumped when the on-disk envelope format changes.
ENVELOPE_FORMAT = 1

#: How often workers refresh their heartbeat files (``runner worker
#: --heartbeat-interval`` overrides per worker).  Reclaim assumes this
#: default when deciding whether a heartbeat is fresh enough to prove
#: its worker alive, so keep per-worker overrides at or below it when
#: also shortening lease timeouts.
DEFAULT_HEARTBEAT_INTERVAL = 5.0

#: Subdirectory of a cache directory conventionally used as the queue.
DEFAULT_QUEUE_SUBDIR = "queue"


def reclaim_throttle(poll_interval: float) -> float:
    """How often a polling loop may run a reclaim scan: ~10 polls,
    floored at one second.  Shared by submitters and workers so their
    cadences cannot silently drift apart."""
    return max(poll_interval * 10, 1.0)


@dataclass(frozen=True)
class TaskEnvelope:
    """What travels through the queue: one task plus its cache address.

    ``cache_version`` pins the submitter's code fingerprint; a worker
    whose source tree differs refuses the task (its results would be
    published under a key computed by different code).
    """

    entry_key: str
    task: Task
    cache_version: str

    @property
    def queue_key(self) -> str:
        """The queue-file stem this envelope travels under."""
        return self.entry_key

    @property
    def members(self) -> Tuple["TaskEnvelope", ...]:
        """Uniform per-task view shared with :class:`ChunkEnvelope`."""
        return (self,)

    def to_payload(self) -> dict:
        return {
            "format": ENVELOPE_FORMAT,
            "entry_key": self.entry_key,
            "task": self.task,
            "cache_version": self.cache_version,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "TaskEnvelope":
        if (
            not isinstance(payload, dict)
            or payload.get("format") != ENVELOPE_FORMAT
            or not isinstance(payload.get("task"), Task)
        ):
            raise QueueFormatError(f"unrecognized task envelope: {payload!r}")
        return cls(
            entry_key=payload["entry_key"],
            task=payload["task"],
            cache_version=payload["cache_version"],
        )


def chunk_queue_key(entry_keys) -> str:
    """Deterministic queue-file stem for a chunk of entry keys.

    Derived from the member keys alone, so two submitters racing over
    the same sweep (and chunking it the same way) produce the *same*
    file name and dedupe through the existing enqueue existence check,
    exactly like single-task envelopes do.
    """
    return "chunk-" + stable_hash(tuple(entry_keys))[:32]


@dataclass(frozen=True)
class ChunkEnvelope:
    """K tasks travelling through the queue under one lease.

    Purely a *transport* batching: each member keeps its own cache
    entry key, its own failure record, and is published to the result
    cache individually as it completes.  A worker killed mid-chunk
    therefore loses only the unfinished remainder -- the reclaimed
    chunk's already-cached members are skipped on re-execution.
    """

    members: Tuple[TaskEnvelope, ...]
    cache_version: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def queue_key(self) -> str:
        return chunk_queue_key(
            member.entry_key for member in self.members
        )

    def to_payload(self) -> dict:
        return {
            "format": ENVELOPE_FORMAT,
            "kind": "chunk",
            "members": [member.to_payload() for member in self.members],
            "cache_version": self.cache_version,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "ChunkEnvelope":
        if (
            not isinstance(payload, dict)
            or payload.get("format") != ENVELOPE_FORMAT
            or payload.get("kind") != "chunk"
            or not isinstance(payload.get("members"), list)
            or not payload["members"]
        ):
            raise QueueFormatError(f"unrecognized chunk envelope: {payload!r}")
        return cls(
            members=tuple(
                TaskEnvelope.from_payload(member)
                for member in payload["members"]
            ),
            cache_version=payload["cache_version"],
        )


#: Anything a queue file may contain.
QueueEnvelope = Union[TaskEnvelope, ChunkEnvelope]


def envelope_from_payload(payload: Any) -> QueueEnvelope:
    """Decode either envelope kind; raises :class:`QueueFormatError`."""
    if isinstance(payload, dict) and payload.get("kind") == "chunk":
        return ChunkEnvelope.from_payload(payload)
    return TaskEnvelope.from_payload(payload)


@dataclass(frozen=True)
class FailureRecord:
    """Why one task failed, published for the submitter to surface."""

    entry_key: str
    task_key: TaskKey
    error: str
    traceback: str
    worker: str


@dataclass(frozen=True)
class Lease:
    """A claimed task or chunk: the envelope plus its lease file."""

    envelope: QueueEnvelope
    path: Path


#: Bumped when the heartbeat JSON schema changes.
HEARTBEAT_FORMAT = 1


@dataclass
class WorkerHeartbeat:
    """One worker's liveness record, richer than a lease mtime.

    Stored as JSON (not pickle) under ``workers/`` so operators and
    ``runner queue status`` can read it with nothing but a text editor.
    A heartbeat is advisory: losing or corrupting one never breaks the
    queue, it only degrades reclaim back to mtime-age heuristics.
    """

    worker_id: str
    host: str
    pid: int
    started: float
    last_beat: float
    #: Entry key of the task currently executing, ``None`` between
    #: tasks.  A fresh heartbeat naming a lease protects it from
    #: stale-lease reclaim: the worker is alive, the task merely slow.
    current_lease: Optional[str] = None
    claimed: int = 0
    completed: int = 0
    failed: int = 0
    refused: int = 0
    #: This worker's own refresh cadence; reclaim derives its
    #: freshness window from it, so a deliberately slow-beating
    #: worker does not lose protection between beats.
    interval: float = DEFAULT_HEARTBEAT_INTERVAL

    def to_json_dict(self) -> dict:
        payload = asdict(self)
        payload["format"] = HEARTBEAT_FORMAT
        return payload

    @classmethod
    def from_json_dict(cls, data: Any) -> Optional["WorkerHeartbeat"]:
        """A heartbeat from its JSON form; ``None`` if unrecognizable."""
        if not isinstance(data, dict) or data.get("format") != HEARTBEAT_FORMAT:
            return None
        try:
            return cls(
                worker_id=str(data["worker_id"]),
                host=str(data["host"]),
                pid=int(data["pid"]),
                started=float(data["started"]),
                last_beat=float(data["last_beat"]),
                current_lease=data.get("current_lease"),
                claimed=int(data.get("claimed", 0)),
                completed=int(data.get("completed", 0)),
                failed=int(data.get("failed", 0)),
                refused=int(data.get("refused", 0)),
                interval=float(
                    data.get("interval", DEFAULT_HEARTBEAT_INTERVAL)
                ),
            )
        except (KeyError, TypeError, ValueError):
            return None


class QueueFormatError(RuntimeError):
    """A queue file did not contain what its name promised."""


def worker_identity() -> str:
    """``host:pid``, recorded in failure records for debugging."""
    return f"{socket.gethostname()}:{os.getpid()}"


class JobQueue:
    """One queue directory; safe for any number of concurrent users."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.tasks_dir = self.directory / "tasks"
        self.leases_dir = self.directory / "leases"
        self.failed_dir = self.directory / "failed"
        self.workers_dir = self.directory / "workers"

    def ensure(self) -> "JobQueue":
        for path in (
            self.tasks_dir, self.leases_dir, self.failed_dir, self.workers_dir
        ):
            path.mkdir(parents=True, exist_ok=True)
        return self

    # ------------------------------------------------------------------
    # Submitter side
    # ------------------------------------------------------------------

    def enqueue(self, envelope: QueueEnvelope) -> bool:
        """Publish one task/chunk; ``False`` if it is already in flight.

        "In flight" means a task or lease file for the same queue key
        already exists -- e.g. a second submitter sharing the sweep, or
        a leftover from an interrupted run that a worker can still
        finish.  Chunk queue keys are content-derived, so two
        submitters chunking the same sweep identically dedupe here.
        """
        self.ensure()
        task_path = self._task_path(envelope.queue_key)
        if task_path.exists() or self._lease_path(envelope.queue_key).exists():
            return False
        self._atomic_write_pickle(envelope.to_payload(), task_path)
        return True

    def in_flight(self, queue_key: str) -> bool:
        """Whether a task or lease file for ``queue_key`` exists."""
        return (
            self._task_path(queue_key).exists()
            or self._lease_path(queue_key).exists()
        )

    def failure_for(self, entry_key: str) -> Optional[FailureRecord]:
        path = self.failed_dir / f"{entry_key}.pkl"
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
        except (FileNotFoundError, OSError):
            return None
        except Exception:
            # A half-readable failure record still means the task
            # failed; synthesize a minimal one.
            return FailureRecord(
                entry_key=entry_key,
                task_key=(),
                error="unreadable failure record",
                traceback="",
                worker="unknown",
            )
        if isinstance(record, FailureRecord):
            return record
        return None

    def clear_failure(self, entry_key: str) -> None:
        self._unlink_quietly(self.failed_dir / f"{entry_key}.pkl")

    def discard_task(self, queue_key: str) -> None:
        """Drop an unclaimed task/chunk file (its results arrived
        elsewhere)."""
        self._unlink_quietly(self._task_path(queue_key))

    def reclaim_stale(
        self, lease_timeout: float, *, now: Optional[float] = None
    ) -> int:
        """Return leases older than ``lease_timeout`` seconds to ``tasks/``.

        A lease is exempt while a sufficiently fresh heartbeat names
        it as its ``current_lease``: that worker is demonstrably
        alive, the task is merely slow.  "Fresh" means younger than
        the lease timeout, floored at a few of *that worker's own*
        beat intervals (self-declared in the heartbeat) -- so neither
        an aggressive ``--lease-timeout 3`` nor a deliberately slow
        ``--heartbeat-interval 60`` worker gets its live task
        reclaimed between two beats.  Freshness is judged by the
        heartbeat *file's mtime* -- the same (shared-filesystem) clock
        domain the lease ages use -- so cross-host wall-clock skew can
        neither extend a dead worker's protection nor strip a live
        worker's.  A dead worker's protection lapses with its
        heartbeat and the lease is reclaimed exactly as it was before
        heartbeats existed.
        """
        reclaimed = 0
        now = time.time() if now is None else now
        # The heartbeat read (one file per attached worker) is only
        # paid once an over-age lease actually exists; the common
        # idle/healthy pass is just the lease listdir.
        protected: Optional[set] = None
        for lease_path in self._listdir(self.leases_dir):
            try:
                age = now - lease_path.stat().st_mtime
            except OSError:
                continue
            if age < lease_timeout:
                continue
            if protected is None:
                # Floored at the worker's OWN declared cadence (legacy
                # heartbeats default to DEFAULT_HEARTBEAT_INTERVAL),
                # with a 1s absolute floor -- so a fast-beating dead
                # worker fails over after a lease-timeout of silence,
                # not after a globally padded grace period.
                protected = {
                    beat.current_lease
                    for beat, mtime in self.heartbeat_entries()
                    if beat.current_lease is not None
                    and now - mtime < max(
                        lease_timeout, 3 * beat.interval, 1.0
                    )
                }
            if lease_path.stem in protected:
                continue
            try:
                os.rename(lease_path, self.tasks_dir / lease_path.name)
                reclaimed += 1
            except OSError:
                continue  # someone else beat us to it
        return reclaimed

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def claim(
        self,
        accept: Optional[Callable[[QueueEnvelope], bool]] = None,
        *,
        skip: Optional[Callable[[str], bool]] = None,
    ) -> Optional[Lease]:
        """Atomically take one queued task/chunk; ``None`` when none qualify.

        ``skip`` filters by **queue key** *before* the claim rename.
        Rejections ``accept`` will repeat forever (a version-mismatched
        envelope looks the same on every poll) should be remembered and
        fed back through ``skip``, so an incompatible task stops
        costing two renames per poll once it has been refused once.

        ``accept`` filters envelopes *after* the atomic rename: a task
        it rejects is put straight back and scanning continues, so an
        unacceptable task (e.g. one published by a submitter on a
        different code version) can never starve the claimable ones
        behind it.  Corrupt task files (truncated writes from a
        submitter killed at the wrong instant never happen -- enqueue
        is atomic -- but a stray file someone dropped in ``tasks/``
        might) are claimed, discarded, and skipped.
        """
        self.ensure()
        for task_path in sorted(self._listdir(self.tasks_dir)):
            if skip is not None and skip(task_path.stem):
                continue
            lease_path = self.leases_dir / task_path.name
            try:
                os.rename(task_path, lease_path)
            except OSError:
                continue  # lost the race; try the next file
            try:
                os.utime(lease_path)  # claim time, for stale-lease reclaim
            except FileNotFoundError:
                # Renames preserve mtime, so a task that sat queued
                # longer than the lease timeout *starts out* looking
                # stale -- a concurrent reclaimer can legitimately take
                # the lease back between our rename and this bump.  The
                # task is claimable (or already claimed) again
                # elsewhere; it is no longer ours.
                continue
            except OSError:
                # Any other failure (EACCES on an odd mount, EIO): the
                # lease is still ours, so keep it -- the bump is only
                # an optimization.  Worst case the stale-looking mtime
                # triggers an early reclaim, which duplicates work but
                # never corrupts a result.
                pass
            try:
                with open(lease_path, "rb") as handle:
                    envelope = envelope_from_payload(pickle.load(handle))
            except FileNotFoundError:
                continue  # reclaimed between the bump and the read
            except Exception:
                self._unlink_quietly(lease_path)
                continue
            if accept is not None and not accept(envelope):
                try:
                    os.rename(lease_path, task_path)
                except OSError:
                    pass
                continue
            return Lease(envelope=envelope, path=lease_path)
        return None

    def complete(self, lease: Lease) -> None:
        """The result is in the cache; retire the lease."""
        self._unlink_quietly(lease.path)

    def record_failure(
        self, entry_key: str, task_key: TaskKey, error: BaseException
    ) -> None:
        """Publish a per-task failure record (no lease bookkeeping).

        Chunk executors use this directly: a member that raises gets
        its own record -- addressable by *entry key*, exactly as if it
        had travelled alone -- while the chunk lease stays live until
        the remaining members have run.
        """
        record = FailureRecord(
            entry_key=entry_key,
            task_key=task_key,
            error=f"{type(error).__name__}: {error}",
            traceback="".join(
                traceback.format_exception(
                    type(error), error, error.__traceback__
                )
            ),
            worker=worker_identity(),
        )
        self.failed_dir.mkdir(parents=True, exist_ok=True)
        self._atomic_write_pickle(
            record, self.failed_dir / f"{entry_key}.pkl"
        )

    def fail(self, lease: Lease, error: BaseException) -> None:
        """Record failure(s) for the lease's task(s) and retire it."""
        for member in lease.envelope.members:
            self.record_failure(member.entry_key, member.task.key, error)
        self._unlink_quietly(lease.path)

    def release(self, lease: Lease) -> None:
        """Put a claimed task back unexecuted (e.g. version mismatch)."""
        try:
            os.rename(lease.path, self.tasks_dir / lease.path.name)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def write_heartbeat(self, beat: WorkerHeartbeat) -> None:
        """Atomically publish one worker's heartbeat (JSON)."""
        self.workers_dir.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self.heartbeat_path(beat.worker_id),
            lambda handle: json.dump(
                beat.to_json_dict(), handle, sort_keys=True
            ),
            text=True,
            suffix=".json",
        )

    def read_heartbeats(self) -> List[WorkerHeartbeat]:
        """Every readable heartbeat, sorted by worker id.

        Corrupt or foreign files are skipped: heartbeats are advisory,
        so a torn write only costs observability, never correctness.
        """
        return [beat for beat, _ in self.heartbeat_entries()]

    def heartbeat_entries(self) -> List[tuple]:
        """``(heartbeat, file_mtime)`` pairs, sorted by worker id.

        The file mtime is the authoritative "last beat" for anything
        that *decides* or *classifies* (reclaim protection, live/stale
        status): it comes from the shared filesystem's clock -- the
        same domain lease ages use -- so cross-host wall-clock skew
        cannot make a dead worker look alive or a live one dead.  The
        embedded timestamps remain self-reported context.
        """
        entries = []
        for path in self._listdir(self.workers_dir):
            try:
                mtime = path.stat().st_mtime
                beat = WorkerHeartbeat.from_json_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            except (OSError, ValueError):
                continue
            if beat is not None:
                entries.append((beat, mtime))
        return sorted(entries, key=lambda entry: entry[0].worker_id)

    def remove_heartbeat(self, worker_id: str) -> None:
        """Retire a worker's heartbeat on clean exit."""
        self._unlink_quietly(self.heartbeat_path(worker_id))

    def heartbeat_path(self, worker_id: str) -> Path:
        # Worker ids are host:pid; keep filenames filesystem-neutral.
        return self.workers_dir / (
            re.sub(r"[^A-Za-z0-9._-]", "-", worker_id) + ".json"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def pending_count(self) -> int:
        return len(self._listdir(self.tasks_dir))

    def leased_count(self) -> int:
        return len(self._listdir(self.leases_dir))

    def lease_entries(self) -> List[tuple]:
        """``(queue_key, claim_mtime)`` for every live lease file."""
        entries = []
        for path in sorted(self._listdir(self.leases_dir)):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # completed or reclaimed mid-scan
            entries.append((path.stem, mtime))
        return entries

    def failed_entry_keys(self) -> set:
        """Entry keys with a failure record, from ONE directory scan.

        Submitters poll for failures once per collection pass; opening
        ``failed/<key>.pkl`` speculatively for every outstanding task
        is an O(N) pickle-open storm per pass, this is one ``listdir``.
        """
        return {path.stem for path in self._listdir(self.failed_dir)}

    def failure_records(self) -> List[FailureRecord]:
        """Every readable failure record, sorted by entry key."""
        records = []
        for entry_key in sorted(self.failed_entry_keys()):
            record = self.failure_for(entry_key)
            if record is not None:
                records.append(record)
        return records

    # ------------------------------------------------------------------

    def _task_path(self, queue_key: str) -> Path:
        return self.tasks_dir / f"{queue_key}.task"

    def _lease_path(self, queue_key: str) -> Path:
        return self.leases_dir / f"{queue_key}.task"

    def _listdir(self, directory: Path) -> List[Path]:
        try:
            return [
                directory / name
                for name in os.listdir(directory)
                if not name.startswith(".")
            ]
        except FileNotFoundError:
            return []

    def _atomic_write_pickle(self, payload: Any, destination: Path) -> None:
        atomic_write(
            destination,
            lambda handle: pickle.dump(
                payload, handle, protocol=pickle.HIGHEST_PROTOCOL
            ),
            suffix=".pkl",
        )

    @staticmethod
    def _unlink_quietly(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


def default_queue_dir(cache_directory: Union[str, Path]) -> Path:
    """The conventional queue location inside a shared cache dir."""
    return Path(cache_directory) / DEFAULT_QUEUE_SUBDIR
