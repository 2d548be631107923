"""Resilient execution layer for the sharded Monte Carlo driver.

A Monte Carlo run has one path:
:func:`~repro.threshold.montecarlo.memory_experiment` (or
``code_capacity_memory``, or a sharded grid scan) → the sharded driver
(:mod:`repro.threshold.sharded`) → :func:`execute_batch` here →
:class:`~repro.threshold.journal.CheckpointJournal`.  The runtime
executes *batches* of runs: a single call is a batch of one, and a
sharded grid scan hands in every grid point as one batch.  Runs are drawn
lazily and each run's pending shards are submitted as soon as it
arrives, so the workers start on one point while the caller builds the
next; there is no barrier between runs, one supervision loop serves
everything in flight, and one journal connection serves the whole batch.

The unit of execution is a *task*: consecutive pending shards of one run
(:func:`~repro.threshold.sharded.task_groups`), which a worker runs as
one multi-stream round, paying the round's fixed work once.  Each shard
of a task keeps its own stream and counts its own failures, so tasks
change how long a run takes, never what it counts.  A task is what is
submitted, retried, timed and degraded; every finished task, whether
from a worker, a retry, or in-process degradation, passes through
``_Batch.record``, the one driver-side point where counts are pooled and
committed, one journal record per shard.

A plain ``pool.map`` is all-or-nothing: one crashed, hung, or OOM-killed
worker throws ``BrokenProcessPool`` through the whole scan and discards
every completed shard.  This module uses per-task ``submit`` +
completion supervision instead.  Each future reports its completion into
one queue through a done-callback, so a finished task costs the
supervisor O(1) however many tasks are in flight:

* **per-shard timeouts** — a task of ``k`` shards running longer than
  ``k * shard_timeout`` is declared hung; the pool (which cannot cancel
  a running future) is killed and rebuilt, and the task retries;
* **bounded retry with exponential backoff** — failed tasks retry up to
  ``max_retries`` times; pool rebuilds back off exponentially
  (``_BACKOFF * 2**k``, capped) so a crash-looping environment is not
  hammered;
* **pool replacement on ``BrokenProcessPool``** — a dead worker evicts
  and replaces the cached executor instead of poisoning every later call;
* **graceful degradation** — a task that keeps failing in workers (or a
  pool that cannot be rebuilt) runs in-process as one round: the run
  finishes correct, with a :class:`RunDegraded` warning naming each of
  the task's shards, and never loses completed work;
* **a structured exception taxonomy** — :class:`ShardTimeout` replaces
  bare pool errors, and :class:`ShardRetryExhausted` (with the last
  underlying error attached) is raised only when the in-process fallback
  fails too;
* **checkpoint journaling / result caching** — with ``checkpoint=`` set,
  every finished shard streams into
  :class:`repro.threshold.journal.CheckpointJournal` under its run's own
  key, one commit per shard, and ``resume=True`` replays finished shards
  from disk, re-executing only the remainder of each run; a fully cached
  batch returns its pooled counts without ever touching a worker pool;
* **a storage-fault firewall** — every journal open/read/write goes
  through :class:`_ResilientJournal`: transient lock contention gets a
  bounded retry with backoff, any other ``sqlite3`` / ``OSError`` fault
  (disk full, readonly filesystem, torn WAL, corrupt file) degrades the
  whole batch, once, to *uncheckpointed* execution with a
  :class:`~repro.threshold.journal.JournalDegraded` warning — storage
  faults may cost durability and cache reuse, never the run — and rows
  failing checksum/plan validation are quarantined
  (:class:`~repro.threshold.journal.CacheCorrupt`) and recomputed instead
  of replayed.

Correctness under all of this is free: each shard is a pure function of
its ``(kind, payload, shard_shots, SeedSequence)`` spec, so a retried,
degraded, or resumed shard returns bit-for-bit the counts a clean run
would have — the chaos suites (``tests/test_threshold_runtime.py``,
``tests/test_threshold_chaos_io.py``) assert exactly that.  They inject
faults from ``tests/faults.py`` by monkeypatching the two names this
module looks up at call time: :func:`_guarded_run_task`, which every
task attempt runs through, and ``CheckpointJournal``.

Attempt accounting under ``BrokenProcessPool`` is deliberately
conservative: the executor cannot say *which* running task killed the
worker, so every task that was in flight when the pool broke is charged
an attempt, and a failed task charges each of its shards.  An innocent
bystander can therefore exhaust its retries under sustained crashing —
and then it degrades to in-process execution and still finishes correct.
"""

from __future__ import annotations

import atexit
import multiprocessing
import queue
import sqlite3
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.threshold.journal import (
    CacheCorrupt,
    CheckpointJournal,
    JournalDegraded,
    JournalMismatch,
    JournalSchemaError,
)

__all__ = [
    "ResilienceOptions",
    "RunDegraded",
    "ShardRetryExhausted",
    "ShardTimeout",
    "execute_batch",
]

# Supervision loop granularity: how often hung-worker detection runs and
# how long one wait for a finished shard blocks when nothing completes.
_TICK = 0.05
# Seed of the exponential retry/rebuild sleep (shard retries *and*
# journal lock retries): step k sleeps _BACKOFF * 2**(k-1) seconds.
_BACKOFF = 0.1
# Ceiling on any single backoff sleep so a deep retry chain cannot stall
# a scan for minutes.
_BACKOFF_CAP = 5.0
# Budget for reaping workers at interpreter exit / pool replacement.
_REAP_SECONDS = 2.0
# Bounded retry budget for transient journal lock contention ("database is
# locked"/"busy") before a write degrades the run to uncheckpointed.
_JOURNAL_LOCK_RETRIES = 4


# ----------------------------------------------------------------------
# Exception taxonomy.
# ----------------------------------------------------------------------
def _named(shards: tuple[int, ...]) -> str:
    """``shard 4, shard 5``: a task's shards as its messages name them."""
    return ", ".join(f"shard {k}" for k in shards)


class ShardTimeout(RuntimeError):
    """A task ran longer than ``shard_timeout`` per shard — its worker is
    presumed hung and the pool is replaced.  When a task hangs every
    attempt, it is the last error named in the :class:`RunDegraded`
    warning.  ``shards`` are the task's batch shards."""

    def __init__(self, shards: tuple[int, ...], attempt: int, timeout: float) -> None:
        super().__init__(
            f"{_named(shards)} exceeded shard_timeout={timeout}s per shard on "
            f"attempt {attempt}; presuming the worker hung"
        )
        self.shards = shards
        self.attempt = attempt
        self.timeout = timeout


class ShardRetryExhausted(RuntimeError):
    """A task failed every allowed attempt (1 + ``max_retries``) and then
    its in-process fallback failed too.  Carries the task's batch shards
    as ``shards`` and the fallback's error as ``last_error`` (and as
    ``__cause__``)."""

    def __init__(self, shards: tuple[int, ...], attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"{_named(shards)} failed {attempts} attempt(s); "
            f"last error: {last_error!r}"
        )
        self.shards = shards
        self.attempts = attempts
        self.last_error = last_error


class RunDegraded(UserWarning):
    """The run finished correct but not as planned: tasks fell back to
    in-process execution after exhausting pool retries (or the pool could
    not be rebuilt).  Counts are unaffected — shards are pure functions
    of their specs."""


@dataclass(frozen=True)
class ResilienceOptions:
    """Knobs for :func:`execute_batch` (all Monte Carlo entry points
    thread these through as keyword arguments).

    ``max_retries`` bounds *re*-executions per task (total attempts =
    ``1 + max_retries``); a task that exhausts them runs in-process.
    ``shard_timeout`` bounds one shard: a task of ``k`` shards runs under
    ``k * shard_timeout``, and ``None`` disables hung-worker detection.
    ``checkpoint`` names the journal/result-cache database;
    ``resume=False`` clears any prior rows for this run key first.
    """

    max_retries: int = 2
    shard_timeout: float | None = None
    checkpoint: str | Path | None = None
    resume: bool = True

    def __post_init__(self) -> None:
        _check_count("max_retries", self.max_retries, least=0)
        # ``True`` would otherwise run as a 1-second timeout.
        if isinstance(self.shard_timeout, bool):
            raise TypeError(f"shard_timeout must be a number or None, got {self.shard_timeout!r}")
        # ``not > 0`` also refuses NaN, which would silently disable
        # hang detection (``elapsed > nan`` never holds).
        if self.shard_timeout is not None and not self.shard_timeout > 0:
            raise ValueError(
                f"shard_timeout must be positive (or None), got {self.shard_timeout!r}"
            )
        if not isinstance(self.resume, bool):
            raise TypeError(f"resume must be a bool, got {self.resume!r}")


def _check_count(name: str, value: int, least: int = 1) -> None:
    """Reject a count that is not an integer of at least ``least``:
    ``TypeError`` for anything but a Python or NumPy integer (``bool``
    included), and ``ValueError`` below ``least``.  A float count would
    otherwise size arrays or split shots as floats, and ``True`` would run
    as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


# ----------------------------------------------------------------------
# Worker side.  Module-level so spawn can pickle it by qualified name; the
# sharded import is deferred to call time (worker process) to keep the
# sharded -> runtime import edge acyclic.
# ----------------------------------------------------------------------
def _guarded_run_task(payload: tuple) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """One attempt at one task, ``payload = (shards, specs, attempt)``:
    the single entry that both the pool and :func:`_execute_serial` call.
    ``shards`` are the task's numbers in its batch (:class:`_Batch`) and
    ``specs`` their specs; returns ``shards`` and each one's ``(shots,
    failures)``.  The task ignores ``shards`` and ``attempt``; they are
    there so that a test can substitute a fake for this function that
    fails chosen attempts."""
    shards, specs, _attempt = payload
    from repro.threshold.sharded import _run_task

    return shards, _run_task(specs)


# ----------------------------------------------------------------------
# Pool cache.  Spawned pools cost ~0.6 s to start, so they are cached per
# worker count and reused across calls — a grid scan pays the startup
# once.  A worker keeps only the last run's unpickled args between tasks
# (``sharded._shard_args``), whose buffers every round overwrites, so reuse
# cannot leak state into a count.
# ----------------------------------------------------------------------
_pool_cache: dict[int, ProcessPoolExecutor] = {}


def _get_pool(workers: int) -> ProcessPoolExecutor:
    pool = _pool_cache.get(workers)
    if pool is not None and getattr(pool, "_broken", False):
        # A worker died while the pool sat idle in the cache (external
        # kill, OOM): evict the carcass now instead of letting the next
        # submit() throw BrokenProcessPool through the caller.
        _kill_pool(workers)
        pool = None
    if pool is None:
        ctx = multiprocessing.get_context("spawn")
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
        _pool_cache[workers] = pool
    return pool


def _reap_processes(procs: list, deadline: float) -> None:
    """Join workers until ``deadline``; terminate and re-join stragglers."""
    for proc in procs:
        proc.join(max(0.0, deadline - time.monotonic()))
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        if proc.is_alive():
            proc.join(0.2)


def _kill_pool(workers: int) -> None:
    """Evict and tear down the cached pool (hung or broken workers).

    Termination is safe mid-shard: shards are side-effect-free pure
    functions, and anything killed here is re-executed from its spec.
    """
    pool = _pool_cache.pop(workers, None)
    if pool is None:
        return
    procs = list((getattr(pool, "_processes", None) or {}).values())
    # repro: disable=RPL303 -- workers are terminated and reaped just below
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    _reap_processes(procs, time.monotonic() + _REAP_SECONDS)


def _shutdown_pools() -> None:
    """atexit hook: cancel pending work, then *briefly wait* for workers.

    ``shutdown(wait=False)`` alone can leave spawn workers alive at
    interpreter teardown, leaking semaphore trackers and emitting
    ``ResourceWarning``; joining with a small budget (then terminating
    stragglers) lets them exit cleanly without ever wedging exit on a
    hung worker.
    """
    pools = list(_pool_cache.values())
    _pool_cache.clear()
    all_procs = []
    for pool in pools:
        all_procs.extend((getattr(pool, "_processes", None) or {}).values())
        # repro: disable=RPL303 -- stragglers reaped by _reap_processes below
        pool.shutdown(wait=False, cancel_futures=True)
    _reap_processes(all_procs, time.monotonic() + _REAP_SECONDS)


atexit.register(_shutdown_pools)


# ----------------------------------------------------------------------
# Storage-fault firewall.
# ----------------------------------------------------------------------
def _is_lock_error(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


class _ResilientJournal:
    """Wraps :class:`CheckpointJournal` in the run's fault philosophy:
    every operation either succeeds (after a bounded lock-contention
    retry) or degrades the batch to uncheckpointed execution with a
    :class:`JournalDegraded` warning — a storage fault may cost durability
    and cache reuse, never the run itself.

    One connection serves every run of a batch; each operation names the
    run key it reads or writes.  After a hard fault the journal handle is
    dropped and every later operation, for every run, is a silent no-op:
    the batch was warned once, loudly, and then left alone to finish.
    """

    def __init__(self, checkpoint: str | Path) -> None:
        self._journal: CheckpointJournal | None = None
        try:
            self._journal = CheckpointJournal(checkpoint)
        except JournalSchemaError:
            # An unknown schema is a user decision (wrong file, other
            # writer), not a runtime fault.
            raise
        except (sqlite3.Error, OSError) as exc:
            self._degrade("opening", exc)

    def _degrade(self, doing: str, exc: BaseException) -> None:
        warnings.warn(
            f"checkpoint journal unavailable while {doing} ({exc!r}); "
            f"continuing uncheckpointed — results are unaffected, only "
            f"crash-resume durability and cache reuse are lost",
            JournalDegraded,
            stacklevel=5,
        )
        if self._journal is not None:
            try:
                self._journal.close()
            except (sqlite3.Error, OSError):
                # Best-effort close of an already-degraded journal: the
                # JournalDegraded warning above is the observable record of
                # the fault; a second failure here adds nothing.
                pass
        self._journal = None

    def _attempt(self, doing: str, fn):
        """Run one journal operation; retry lock contention, degrade on
        anything else.  Returns the operation's result or None."""
        if self._journal is None:
            return None
        for attempt in range(1, 2 + _JOURNAL_LOCK_RETRIES):
            try:
                return fn()
            except sqlite3.OperationalError as exc:
                if _is_lock_error(exc) and attempt <= _JOURNAL_LOCK_RETRIES:
                    _backoff_sleep(attempt)
                    continue
                self._degrade(doing, exc)
                return None
            except (sqlite3.Error, OSError) as exc:
                self._degrade(doing, exc)
                return None
        return None  # pragma: no cover - loop always returns or degrades

    def register(self, run_key: str, kind: str, shots: int, num_shards: int) -> None:
        def _do() -> None:
            try:
                self._journal.register_run(run_key, kind, shots, num_shards)
            except JournalMismatch as exc:
                # Same run key, contradictory metadata: definitionally
                # stale or corrupt (the key pins kind/shots/shard count).
                # Quarantine and start the run fresh instead of dying.
                warnings.warn(
                    f"cached metadata for run {run_key[:12]}… "
                    f"contradicts this run ({exc}); quarantining its rows "
                    f"and recomputing",
                    CacheCorrupt,
                    stacklevel=7,
                )
                self._journal.quarantine_run(run_key, "metadata mismatch")
                self._journal.register_run(run_key, kind, shots, num_shards)

        self._attempt("registering the run", _do)

    def resume_counts(self, run_key: str, sizes: list[int]) -> dict[int, tuple[int, int]]:
        counts = self._attempt(
            "reading completed shards",
            lambda: self._journal.completed_shards(run_key, expected_sizes=sizes),
        )
        return counts or {}

    def record(self, run_key: str, idx: int, shots: int, failures: int) -> None:
        self._attempt(
            "recording a finished shard",
            lambda: self._journal.record_shard(run_key, idx, shots, failures),
        )

    def clear(self, run_key: str) -> None:
        self._attempt("clearing the run", lambda: self._journal.clear_run(run_key))

    def close(self) -> None:
        if self._journal is not None:
            try:
                self._journal.close()
            except (sqlite3.Error, OSError) as exc:
                # The run's counts are already pooled; a failed close can
                # only cost WAL-truncate hygiene — but it must stay
                # observable, not vanish.
                warnings.warn(
                    f"checkpoint journal failed to close cleanly ({exc!r}); "
                    f"results are unaffected, a -wal/-shm file may be left "
                    f"behind",
                    JournalDegraded,
                    stacklevel=2,
                )
            self._journal = None


# ----------------------------------------------------------------------
# Driver side.
# ----------------------------------------------------------------------
def _run_task_inprocess(specs: list[tuple]) -> list[tuple[int, int]]:
    from repro.threshold import sharded as _sharded

    return _sharded._run_task(specs)


def _backoff_sleep(step: int) -> None:
    time.sleep(min(_BACKOFF * (2 ** max(step - 1, 0)), _BACKOFF_CAP))


class _Batch:
    """The shards of a batch's runs and their counts.

    Shards are numbered across the batch in the order the runs arrive:
    run ``r``'s shard ``i`` is batch shard ``k`` = (shards of the runs
    before ``r``) + ``i``, so a batch of one numbers shards as its run
    does.  Each run's pending shards are grouped into tasks
    (:func:`~repro.threshold.sharded.task_groups`), tuples of consecutive
    pending batch shards that run as one round and are submitted,
    retried, timed and degraded together.  With a checkpoint, the one
    journal connection opens when the first run arrives, and each run
    registers, resumes and records under its own run key, one record per
    shard.
    """

    def __init__(self, opts: ResilienceOptions, workers: int) -> None:
        self.opts = opts
        self.workers = workers
        self.specs: list[tuple] = []
        self._slots: list[tuple[int, int]] = []  # batch shard -> (run, shard)
        self._runs: list[tuple[str | None, int, dict[int, tuple[int, int]]]] = []
        self._journal: _ResilientJournal | None = None

    def add(self, specs: list[tuple], run_key: str | None) -> list[tuple[int, ...]]:
        """Take one run in; returns the tasks of the batch shards left to
        compute.

        The store is consulted before computing: previously recorded
        shards (validated — checksummed, plan-checked; bad rows
        quarantined with :class:`CacheCorrupt` and recomputed) are
        replayed from disk when ``opts.resume``."""
        from repro.threshold.sharded import task_groups

        results: dict[int, tuple[int, int]] = {}
        if self.opts.checkpoint is not None:
            if run_key is None:
                raise ValueError("checkpointed execution requires a run_key")
            if self._journal is None:
                self._journal = _ResilientJournal(self.opts.checkpoint)
            kind = specs[0][0] if specs else "?"
            if not self.opts.resume:
                self._journal.clear(run_key)
            self._journal.register(run_key, kind, sum(spec[2] for spec in specs), len(specs))
            if self.opts.resume:
                results = self._journal.resume_counts(run_key, [spec[2] for spec in specs])
        run, base = len(self._runs), len(self.specs)
        self._runs.append((run_key, len(specs), results))
        self.specs.extend(specs)
        self._slots.extend((run, i) for i in range(len(specs)))
        pending = [base + i for i in range(len(specs)) if i not in results]
        groups = task_groups([self.specs[k][2] for k in pending], self.workers)
        return [tuple(pending[i] for i in group) for group in groups]

    def task_specs(self, task: tuple[int, ...]) -> list[tuple]:
        return [self.specs[k] for k in task]

    def record(self, task: tuple[int, ...], counts: list[tuple[int, int]]) -> None:
        """One finished task, whether from a worker, a retry, or in-process
        degradation: each shard's count pooled in memory, then committed to
        the journal (a no-op when the batch is uncheckpointed or the
        journal degraded)."""
        for k, (shots, failures) in zip(task, counts, strict=True):
            run, i = self._slots[k]
            run_key, _, results = self._runs[run]
            results[i] = (shots, failures)
            if self._journal is not None:
                self._journal.record(run_key, i, shots, failures)

    def counts(self) -> list[list[tuple[int, int]]]:
        """Each run's ``(shots, failures)`` per shard, in shard order."""
        return [[results[i] for i in range(n)] for _, n, results in self._runs]

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()


def execute_batch(
    runs: Iterable[tuple[list[tuple], str | None]],
    workers: int,
    options: ResilienceOptions | None = None,
) -> list[list[tuple[int, int]]]:
    """Execute a batch of runs, each ``(specs, run_key)``, surviving worker
    *and* storage faults; returns each run's ``(shots, failures)`` per
    shard, in run and shard order.

    ``runs`` is drawn lazily, and each run's pending shards are submitted
    as soon as it is drawn: with ``workers > 1`` the workers start on one
    run while the caller builds the next.  There is no barrier between
    runs, and each run's counts come from its own shards.  ``workers ==
    1`` executes in-process, run by run (with the same retry accounting
    and journaling).  With ``options.checkpoint`` set, one journal
    connection serves the batch (:class:`_Batch`); a run whose every
    shard is on disk never touches a worker pool, so a fully cached batch
    creates none.  Every storage fault degrades the batch to
    uncheckpointed execution (:class:`JournalDegraded`) instead of
    killing it.  If drawing a run raises, the shards already submitted
    are finished and journaled before the error propagates.
    """
    batch = _Batch(options or ResilienceOptions(), workers)
    pool = _PoolRunner(batch, workers) if workers > 1 else None
    try:
        try:
            for specs, run_key in runs:
                tasks = batch.add(specs, run_key)
                if pool is None:
                    _execute_serial(batch, tasks)
                else:
                    pool.start(tasks)
        except Exception:
            if pool is not None:
                pool.finish()
            raise
        if pool is not None:
            pool.finish()
    except (KeyboardInterrupt, SystemExit):
        if pool is not None:
            pool.abandon()
        raise
    finally:
        batch.close()
        # Serial and degraded tasks unpickled the runs' args here.
        from repro.threshold import sharded as _sharded

        _sharded._forget_args()
    return batch.counts()


def _degrade_task(
    batch: _Batch, task: tuple[int, ...], attempts: int, last_error: BaseException | None
) -> None:
    """Last resort: run the task in-process as one round, outside
    :func:`_guarded_run_task` and the pool.  The result is exact — shards
    are pure — so the run finishes correct; only a fallback that fails too
    raises :class:`ShardRetryExhausted`."""
    warnings.warn(
        f"{_named(task)} failed {attempts} attempt(s) "
        f"(last error: {last_error!r}); degrading to in-process execution — "
        f"pooled counts are unaffected",
        RunDegraded,
        stacklevel=2,
    )
    try:
        counts = _run_task_inprocess(batch.task_specs(task))
    except Exception as exc:
        raise ShardRetryExhausted(task, attempts + 1, exc) from exc
    batch.record(task, counts)


def _execute_serial(batch: _Batch, tasks: list[tuple[int, ...]]) -> None:
    """In-process execution with the same retry/degradation accounting;
    every attempt runs through :func:`_guarded_run_task`, the entry the
    pool submits."""
    allowed = 1 + batch.opts.max_retries
    for task in tasks:
        last_error: BaseException | None = None
        for attempt in range(1, allowed + 1):
            try:
                _, counts = _guarded_run_task((task, batch.task_specs(task), attempt))
            except Exception as exc:
                last_error = exc
                if attempt < allowed:
                    _backoff_sleep(attempt)
                continue
            batch.record(task, counts)
            break
        else:
            _degrade_task(batch, task, allowed, last_error)


def _finished(done: queue.SimpleQueue, timeout: float) -> list[Future]:
    """The futures queued as finished: the first waited for up to
    ``timeout`` seconds (0: not at all), then every one already queued."""
    try:
        first = done.get(timeout=timeout) if timeout > 0 else done.get_nowait()
    except queue.Empty:
        return []
    finished = [first]
    while True:
        try:
            finished.append(done.get_nowait())
        except queue.Empty:
            return finished


class _PoolRunner:
    """Supervises a batch's tasks in the cached worker pool.

    Each submitted future reports its completion into one queue through a
    done-callback, so handling a finished task costs O(1) however many
    are in flight.  The pool is looked up at the first submit, so a batch
    with nothing to compute never creates one.  Only with a
    ``shard_timeout`` does a tick look at the running futures, to stamp
    when each started.
    """

    def __init__(self, batch: _Batch, workers: int) -> None:
        self.batch = batch
        self.workers = workers
        self.opts = batch.opts
        self.allowed = 1 + self.opts.max_retries
        self.pool: ProcessPoolExecutor | None = None
        self.attempts: dict[tuple[int, ...], int] = {}
        self.last_error: dict[tuple[int, ...], BaseException] = {}
        self.degraded: list[tuple[int, ...]] = []
        self.rebuilds = 0
        self.futures: dict[Future, tuple[int, ...]] = {}  # in flight -> task
        self.started: dict[Future, float] = {}  # monotonic stamp when first seen running
        self.done: queue.SimpleQueue = queue.SimpleQueue()

    def start(self, tasks: list[tuple[int, ...]]) -> None:
        """Submit a run's pending tasks, then handle whatever finished
        meanwhile without waiting."""
        for task in tasks:
            self.submit(task)
        self.supervise(0.0)

    def finish(self) -> None:
        """Supervise until no task is in flight, then run the degraded
        tasks in-process."""
        while self.futures:
            self.supervise(_TICK)
        for task in sorted(set(self.degraded)):
            _degrade_task(self.batch, task, self.attempts.get(task, 0), self.last_error.get(task))
        self.degraded.clear()

    def abandon(self) -> None:
        """Never leave a cached executor holding orphaned in-flight
        futures: a later call would reuse it and inherit the mess."""
        if self.futures:
            self.futures.clear()
            _kill_pool(self.workers)

    def submit(self, task: tuple[int, ...], new_attempt: bool = True) -> None:
        if new_attempt:
            self.attempts[task] = self.attempts.get(task, 0) + 1
        payload = (task, self.batch.task_specs(task), self.attempts[task])
        if self.pool is None:
            self.pool = _get_pool(self.workers)
        try:
            fut = self.pool.submit(_guarded_run_task, payload)
        except BrokenProcessPool:
            # The pool broke between supervision ticks (or was already
            # broken at submit time): replace it and resubmit at the
            # same attempt — no worker ever ran this task.  In-flight
            # futures from the dead pool resolve BrokenProcessPool and
            # are handled by the supervision loop as usual.
            _kill_pool(self.workers)
            self.rebuilds += 1
            _backoff_sleep(self.rebuilds)
            self.pool = _get_pool(self.workers)
            fut = self.pool.submit(_guarded_run_task, payload)
        self.futures[fut] = task
        fut.add_done_callback(self.done.put)

    def _failed(self, task: tuple[int, ...], exc: BaseException) -> bool:
        """Charge an attempt's failure; True → retry, False → degraded."""
        self.last_error[task] = exc
        if self.attempts[task] >= self.allowed:
            self.degraded.append(task)
            return False
        return True

    def supervise(self, timeout: float) -> None:
        """One tick: handle the finished tasks (waiting up to ``timeout``
        for the first), then hung workers, pool breakage and retries."""
        finished = _finished(self.done, timeout)
        now = time.monotonic()
        if self.opts.shard_timeout is not None:
            for fut in self.futures:
                if fut not in self.started and fut.running():
                    self.started[fut] = now

        pool_broken = False
        retries: list[tuple[int, ...]] = []
        for fut in finished:
            task = self.futures.pop(fut, None)
            if task is None:
                continue  # abandoned with a replaced pool
            self.started.pop(fut, None)
            try:
                _, counts = fut.result()
            except BrokenProcessPool as exc:
                pool_broken = True
                if self._failed(task, exc):
                    retries.append(task)
                continue
            except Exception as exc:
                if self._failed(task, exc):
                    retries.append(task)
                continue
            self.batch.record(task, counts)

        timed_out: set[tuple[int, ...]] = set()
        if self.opts.shard_timeout is not None:
            for fut, t0 in self.started.items():
                task = self.futures[fut]
                if now - t0 > len(task) * self.opts.shard_timeout:
                    timed_out.add(task)

        if pool_broken or timed_out:
            # The executor can neither cancel a running future nor
            # survive a dead worker: abandon in-flight futures, kill
            # and replace the pool, and resubmit everything unfinished.
            # Timed-out tasks are charged a failed attempt; innocent
            # in-flight tasks are resubmitted at their same attempt.
            survivors: list[tuple[int, ...]] = []
            for task in self.futures.values():
                if task in timed_out:
                    exc = ShardTimeout(task, self.attempts[task], self.opts.shard_timeout)
                    if self._failed(task, exc):
                        retries.append(task)
                else:
                    survivors.append(task)
            self.futures.clear()
            self.started.clear()
            _kill_pool(self.workers)
            self.rebuilds += 1
            _backoff_sleep(self.rebuilds)
            try:
                self.pool = _get_pool(self.workers)
            except Exception as exc:
                # Pool cannot be rebuilt (fd/memory exhaustion, ...):
                # degrade every unfinished task rather than lose the run.
                # A later run of the batch looks the pool up again.
                warnings.warn(
                    f"worker pool could not be rebuilt ({exc!r}); running "
                    f"{len(retries) + len(survivors)} remaining task(s) "
                    f"in-process",
                    RunDegraded,
                    stacklevel=2,
                )
                self.pool = None
                self.degraded.extend(retries)
                self.degraded.extend(survivors)
                return
            for task in survivors:
                self.submit(task, new_attempt=False)
            for task in retries:
                self.submit(task)
        elif retries:
            _backoff_sleep(max(self.attempts[task] for task in retries))
            for task in retries:
                self.submit(task)
