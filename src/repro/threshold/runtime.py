"""Resilient execution layer for the sharded Monte Carlo driver.

A Monte Carlo run has one path:
:func:`~repro.threshold.montecarlo.memory_experiment` (or
``code_capacity_memory``, or a sharded grid scan) → the sharded driver
(:mod:`repro.threshold.sharded`) → :func:`execute_batch` here →
:class:`~repro.threshold.journal.CheckpointJournal`.  The runtime
executes *batches* of runs: a single call is a batch of one, and a
sharded grid scan hands in every grid point as one batch.  Runs are drawn
lazily and each run's shards are submitted as soon as it arrives, so the
workers start on one point while the caller builds the next; there is no
barrier between runs, one supervision loop serves every shard in flight,
and one journal connection serves the whole batch.  Every finished
shard, whether from a worker, a retry, or in-process degradation, passes
through ``_Batch.record``: the one driver-side point where a count is
pooled and committed.

A plain ``pool.map`` is all-or-nothing: one crashed, hung, or OOM-killed
worker throws ``BrokenProcessPool`` through the whole scan and discards
every completed shard.  This module uses per-shard ``submit`` +
completion supervision instead.  Each future reports its completion into
one queue through a done-callback, so a finished shard costs the
supervisor O(1) however many shards are in flight:

* **per-shard timeouts** — a shard running longer than ``shard_timeout``
  is declared hung; the pool (which cannot cancel a running future) is
  killed and rebuilt, and the shard retries;
* **bounded retry with exponential backoff** — failed shards retry up to
  ``max_retries`` times; pool rebuilds back off exponentially
  (``_BACKOFF * 2**k``, capped) so a crash-looping environment is not
  hammered;
* **pool replacement on ``BrokenProcessPool``** — a dead worker evicts
  and replaces the cached executor instead of poisoning every later call;
* **graceful degradation** — a shard that keeps failing in workers (or a
  pool that cannot be rebuilt) runs in-process: the run finishes correct,
  with a :class:`RunDegraded` warning, and never loses completed work;
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
module looks up at call time: :func:`_guarded_run_shard`, which every
shard attempt runs through, and ``CheckpointJournal``.

Attempt accounting under ``BrokenProcessPool`` is deliberately
conservative: the executor cannot say *which* running shard killed the
worker, so every shard that was in flight when the pool broke is charged
an attempt.  An innocent bystander can therefore exhaust its retries
under sustained crashing — and then it degrades to in-process execution
and still finishes correct.
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
class ShardTimeout(RuntimeError):
    """A shard ran longer than ``shard_timeout`` — its worker is presumed
    hung and the pool is replaced.  When a shard hangs every attempt, it
    is the last error named in the :class:`RunDegraded` warning."""

    def __init__(self, shard_index: int, attempt: int, timeout: float) -> None:
        super().__init__(
            f"shard {shard_index} exceeded shard_timeout={timeout}s on "
            f"attempt {attempt}; presuming the worker hung"
        )
        self.shard_index = shard_index
        self.attempt = attempt
        self.timeout = timeout


class ShardRetryExhausted(RuntimeError):
    """A shard failed every allowed attempt (1 + ``max_retries``) and then
    its in-process fallback failed too.  Carries the fallback's error as
    ``last_error`` (and as ``__cause__``)."""

    def __init__(self, shard_index: int, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"shard {shard_index} failed {attempts} attempt(s); "
            f"last error: {last_error!r}"
        )
        self.shard_index = shard_index
        self.attempts = attempts
        self.last_error = last_error


class RunDegraded(UserWarning):
    """The run finished correct but not as planned: shards fell back to
    in-process execution after exhausting pool retries (or the pool could
    not be rebuilt).  Counts are unaffected — shards are pure functions
    of their specs."""


@dataclass(frozen=True)
class ResilienceOptions:
    """Knobs for :func:`execute_batch` (all Monte Carlo entry points
    thread these through as keyword arguments).

    ``max_retries`` bounds *re*-executions per shard (total attempts =
    ``1 + max_retries``); a shard that exhausts them runs in-process.
    ``shard_timeout=None`` disables hung-worker detection.  ``checkpoint``
    names the journal/result-cache database; ``resume=False`` clears any
    prior rows for this run key first.
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
def _guarded_run_shard(payload: tuple) -> tuple[int, int, int]:
    """One attempt at one shard, ``payload = (index, spec, attempt)``:
    the single entry that both the pool and :func:`_execute_serial` call.
    ``index`` is the shard's number in its batch (:class:`_Batch`).  The
    shard ignores ``index`` and ``attempt``; they are there so that a test
    can substitute a fake for this function that fails chosen attempts."""
    index, spec, _attempt = payload
    from repro.threshold.sharded import _run_shard

    shots, failures = _run_shard(spec)
    return index, shots, failures


# ----------------------------------------------------------------------
# Pool cache.  Spawned pools cost ~0.6 s to start, so they are cached per
# worker count and reused across calls — a grid scan pays the startup
# once.  A worker keeps only the last run's unpickled args between shards
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
def _run_shard_inprocess(spec: tuple) -> tuple[int, int]:
    from repro.threshold import sharded as _sharded

    return _sharded._run_shard(spec)


def _backoff_sleep(step: int) -> None:
    time.sleep(min(_BACKOFF * (2 ** max(step - 1, 0)), _BACKOFF_CAP))


class _Batch:
    """The shards of a batch's runs and their counts.

    Shards are numbered across the batch in the order the runs arrive:
    run ``r``'s shard ``i`` is batch shard ``k`` = (shards of the runs
    before ``r``) + ``i``, so a batch of one numbers shards as its run
    does.  With a checkpoint, the one journal connection opens when the
    first run arrives, and each run registers, resumes and records under
    its own run key.
    """

    def __init__(self, opts: ResilienceOptions) -> None:
        self.opts = opts
        self.specs: list[tuple] = []
        self._slots: list[tuple[int, int]] = []  # batch shard -> (run, shard)
        self._runs: list[tuple[str | None, int, dict[int, tuple[int, int]]]] = []
        self._journal: _ResilientJournal | None = None

    def add(self, specs: list[tuple], run_key: str | None) -> list[int]:
        """Take one run in; returns the batch shards left to compute.

        The store is consulted before computing: previously recorded
        shards (validated — checksummed, plan-checked; bad rows
        quarantined with :class:`CacheCorrupt` and recomputed) are
        replayed from disk when ``opts.resume``."""
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
        return [base + i for i in range(len(specs)) if i not in results]

    def record(self, k: int, shots: int, failures: int) -> None:
        """One finished shard, whether from a worker, a retry, or
        in-process degradation: pooled in memory, then committed to the
        journal (a no-op when the batch is uncheckpointed or the journal
        degraded)."""
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
    batch = _Batch(options or ResilienceOptions())
    pool = _PoolRunner(batch, workers) if workers > 1 else None
    try:
        try:
            for specs, run_key in runs:
                pending = batch.add(specs, run_key)
                if pool is None:
                    _execute_serial(batch, pending)
                else:
                    pool.start(pending)
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
        # Serial and degraded shards unpickled the runs' args here.
        from repro.threshold import sharded as _sharded

        _sharded._forget_args()
    return batch.counts()


def _degrade_shard(
    batch: _Batch, k: int, attempts: int, last_error: BaseException | None
) -> None:
    """Last resort: run the shard in-process, outside
    :func:`_guarded_run_shard` and the pool.  The result is exact — shards
    are pure — so the run finishes correct; only a fallback that fails too
    raises :class:`ShardRetryExhausted`."""
    warnings.warn(
        f"shard {k} failed {attempts} attempt(s) "
        f"(last error: {last_error!r}); degrading to in-process execution — "
        f"pooled counts are unaffected",
        RunDegraded,
        stacklevel=2,
    )
    try:
        shots, failures = _run_shard_inprocess(batch.specs[k])
    except Exception as exc:
        raise ShardRetryExhausted(k, attempts + 1, exc) from exc
    batch.record(k, shots, failures)


def _execute_serial(batch: _Batch, pending: list[int]) -> None:
    """In-process execution with the same retry/degradation accounting;
    every attempt runs through :func:`_guarded_run_shard`, the entry the
    pool submits."""
    allowed = 1 + batch.opts.max_retries
    for k in pending:
        last_error: BaseException | None = None
        for attempt in range(1, allowed + 1):
            try:
                _, shots, failures = _guarded_run_shard((k, batch.specs[k], attempt))
            except Exception as exc:
                last_error = exc
                if attempt < allowed:
                    _backoff_sleep(attempt)
                continue
            batch.record(k, shots, failures)
            break
        else:
            _degrade_shard(batch, k, allowed, last_error)


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
    """Supervises a batch's shards in the cached worker pool.

    Each submitted future reports its completion into one queue through a
    done-callback, so handling a finished shard costs O(1) however many
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
        self.attempts: dict[int, int] = {}
        self.last_error: dict[int, BaseException] = {}
        self.degraded: list[int] = []
        self.rebuilds = 0
        self.futures: dict[Future, int] = {}  # in flight -> batch shard
        self.started: dict[Future, float] = {}  # monotonic stamp when first seen running
        self.done: queue.SimpleQueue = queue.SimpleQueue()

    def start(self, pending: list[int]) -> None:
        """Submit a run's pending shards, then handle whatever finished
        meanwhile without waiting."""
        for k in pending:
            self.submit(k)
        self.supervise(0.0)

    def finish(self) -> None:
        """Supervise until no shard is in flight, then run the degraded
        shards in-process."""
        while self.futures:
            self.supervise(_TICK)
        for k in sorted(set(self.degraded)):
            _degrade_shard(self.batch, k, self.attempts.get(k, 0), self.last_error.get(k))
        self.degraded.clear()

    def abandon(self) -> None:
        """Never leave a cached executor holding orphaned in-flight
        futures: a later call would reuse it and inherit the mess."""
        if self.futures:
            self.futures.clear()
            _kill_pool(self.workers)

    def submit(self, k: int, new_attempt: bool = True) -> None:
        if new_attempt:
            self.attempts[k] = self.attempts.get(k, 0) + 1
        payload = (k, self.batch.specs[k], self.attempts[k])
        if self.pool is None:
            self.pool = _get_pool(self.workers)
        try:
            fut = self.pool.submit(_guarded_run_shard, payload)
        except BrokenProcessPool:
            # The pool broke between supervision ticks (or was already
            # broken at submit time): replace it and resubmit at the
            # same attempt — no worker ever ran this shard.  In-flight
            # futures from the dead pool resolve BrokenProcessPool and
            # are handled by the supervision loop as usual.
            _kill_pool(self.workers)
            self.rebuilds += 1
            _backoff_sleep(self.rebuilds)
            self.pool = _get_pool(self.workers)
            fut = self.pool.submit(_guarded_run_shard, payload)
        self.futures[fut] = k
        fut.add_done_callback(self.done.put)

    def _failed(self, k: int, exc: BaseException) -> bool:
        """Charge an attempt's failure; True → retry, False → degraded."""
        self.last_error[k] = exc
        if self.attempts[k] >= self.allowed:
            self.degraded.append(k)
            return False
        return True

    def supervise(self, timeout: float) -> None:
        """One tick: handle the finished shards (waiting up to ``timeout``
        for the first), then hung workers, pool breakage and retries."""
        finished = _finished(self.done, timeout)
        now = time.monotonic()
        if self.opts.shard_timeout is not None:
            for fut in self.futures:
                if fut not in self.started and fut.running():
                    self.started[fut] = now

        pool_broken = False
        retries: list[int] = []
        for fut in finished:
            k = self.futures.pop(fut, None)
            if k is None:
                continue  # abandoned with a replaced pool
            self.started.pop(fut, None)
            try:
                _, shots, failures = fut.result()
            except BrokenProcessPool as exc:
                pool_broken = True
                if self._failed(k, exc):
                    retries.append(k)
                continue
            except Exception as exc:
                if self._failed(k, exc):
                    retries.append(k)
                continue
            self.batch.record(k, shots, failures)

        timed_out: set[int] = set()
        if self.opts.shard_timeout is not None:
            for fut, t0 in self.started.items():
                if now - t0 > self.opts.shard_timeout:
                    timed_out.add(self.futures[fut])

        if pool_broken or timed_out:
            # The executor can neither cancel a running future nor
            # survive a dead worker: abandon in-flight futures, kill
            # and replace the pool, and resubmit everything unfinished.
            # Timed-out shards are charged a failed attempt; innocent
            # in-flight shards are resubmitted at their same attempt.
            survivors: list[int] = []
            for k in self.futures.values():
                if k in timed_out:
                    exc = ShardTimeout(k, self.attempts[k], self.opts.shard_timeout)
                    if self._failed(k, exc):
                        retries.append(k)
                else:
                    survivors.append(k)
            self.futures.clear()
            self.started.clear()
            _kill_pool(self.workers)
            self.rebuilds += 1
            _backoff_sleep(self.rebuilds)
            try:
                self.pool = _get_pool(self.workers)
            except Exception as exc:
                # Pool cannot be rebuilt (fd/memory exhaustion, ...):
                # degrade every unfinished shard rather than lose the run.
                # A later run of the batch looks the pool up again.
                warnings.warn(
                    f"worker pool could not be rebuilt ({exc!r}); running "
                    f"{len(retries) + len(survivors)} remaining shard(s) "
                    f"in-process",
                    RunDegraded,
                    stacklevel=2,
                )
                self.pool = None
                self.degraded.extend(retries)
                self.degraded.extend(survivors)
                return
            for k in survivors:
                self.submit(k, new_attempt=False)
            for k in retries:
                self.submit(k)
        elif retries:
            _backoff_sleep(max(self.attempts[k] for k in retries))
            for k in retries:
                self.submit(k)
