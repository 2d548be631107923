"""Resilient execution layer for the sharded Monte Carlo driver.

A Monte Carlo run has one path:
:func:`~repro.threshold.montecarlo.memory_experiment` (or
``code_capacity_memory``) → the sharded driver
(:mod:`repro.threshold.sharded`) → :func:`execute_shards` here →
:class:`~repro.threshold.journal.CheckpointJournal`.  Every finished
shard, whether from a worker, a retry, or in-process degradation, passes
through ``_record``: the one driver-side point where a count is pooled
and committed.

A plain ``pool.map`` is all-or-nothing: one crashed, hung, or OOM-killed
worker throws ``BrokenProcessPool`` through the whole scan and discards
every completed shard.  This module uses per-shard ``submit`` +
completion supervision instead:

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
  :class:`repro.threshold.journal.CheckpointJournal` and ``resume=True``
  replays finished shards from disk, re-executing only the remainder; a
  fully cached run returns its pooled counts without ever touching a
  worker pool;
* **a storage-fault firewall** — every journal open/read/write goes
  through :class:`_ResilientJournal`: transient lock contention gets a
  bounded retry with backoff, any other ``sqlite3`` / ``OSError`` fault
  (disk full, readonly filesystem, torn WAL, corrupt file) degrades the
  run to *uncheckpointed* execution with a
  :class:`~repro.threshold.journal.JournalDegraded` warning — storage
  faults may cost durability and cache reuse, never the run — and rows
  failing checksum/plan validation are quarantined
  (:class:`~repro.threshold.journal.CacheCorrupt`) and recomputed instead
  of replayed.

Correctness under all of this is free: each shard is a pure function of
its ``(kind, args, shard_shots, SeedSequence)`` spec, so a retried,
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
import sqlite3
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _fut_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

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
    "execute_shards",
]

# Supervision loop granularity: how often hung-worker detection runs and
# how long one wait() blocks when nothing completes.
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
    """Knobs for :func:`execute_shards` (all Monte Carlo entry points
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
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be an int >= 0, got {self.max_retries!r}"
            )
        # ``not > 0`` also refuses NaN, which would silently disable
        # hang detection (``elapsed > nan`` never holds).
        if self.shard_timeout is not None and not self.shard_timeout > 0:
            raise ValueError(
                f"shard_timeout must be positive (or None), got {self.shard_timeout!r}"
            )


# ----------------------------------------------------------------------
# Worker side.  Module-level so spawn can pickle it by qualified name; the
# sharded import is deferred to call time (worker process) to keep the
# sharded -> runtime import edge acyclic.
# ----------------------------------------------------------------------
def _guarded_run_shard(payload: tuple) -> tuple[int, int, int]:
    """One attempt at one shard, ``payload = (index, spec, attempt)``:
    the single entry that both the pool and :func:`_execute_serial` call.
    The shard ignores ``attempt``; it is there so that a test can
    substitute a fake for this function that fails chosen attempts."""
    index, spec, _attempt = payload
    from repro.threshold.sharded import _run_shard

    shots, failures = _run_shard(spec)
    return index, shots, failures


# ----------------------------------------------------------------------
# Pool cache.  Spawned pools cost ~0.6 s to start, so they are cached per
# worker count and reused across calls — a grid scan pays the startup
# once.  Workers are stateless between shards, so reuse cannot leak state.
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
    retry) or degrades the run to uncheckpointed execution with a
    :class:`JournalDegraded` warning — a storage fault may cost durability
    and cache reuse, never the run itself.

    After a hard fault the journal handle is dropped and every later
    operation is a silent no-op: the run was warned once, loudly, and then
    left alone to finish.
    """

    def __init__(self, checkpoint: str | Path, run_key: str) -> None:
        self._journal: CheckpointJournal | None = None
        self._run_key = run_key
        try:
            self._journal = CheckpointJournal(checkpoint)
        except JournalSchemaError:
            # Deliberate migration-or-refuse: an unknown schema is a user
            # decision (wrong file / newer writer), not a runtime fault.
            raise
        except (sqlite3.Error, OSError) as exc:
            self._degrade("opening", exc)

    @property
    def active(self) -> bool:
        return self._journal is not None

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

    def register(
        self, kind: str, shots: int, num_shards: int, physics_key: str | None
    ) -> None:
        def _do() -> None:
            try:
                self._journal.register_run(
                    self._run_key, kind, shots, num_shards, physics_key
                )
            except JournalMismatch as exc:
                # Same run key, contradictory metadata: definitionally
                # stale or corrupt (the key pins kind/shots/shard count).
                # Quarantine and start the run fresh instead of dying.
                warnings.warn(
                    f"cached metadata for run {self._run_key[:12]}… "
                    f"contradicts this run ({exc}); quarantining its rows "
                    f"and recomputing",
                    CacheCorrupt,
                    stacklevel=7,
                )
                self._journal.quarantine_run(self._run_key, "metadata mismatch")
                self._journal.register_run(
                    self._run_key, kind, shots, num_shards, physics_key
                )

        self._attempt("registering the run", _do)

    def resume_counts(self, sizes: list[int]) -> dict[int, tuple[int, int]]:
        counts = self._attempt(
            "reading completed shards",
            lambda: self._journal.completed_shards(self._run_key, expected_sizes=sizes),
        )
        return counts or {}

    def record(self, idx: int, shots: int, failures: int) -> None:
        self._attempt(
            "recording a finished shard",
            lambda: self._journal.record_shard(self._run_key, idx, shots, failures),
        )

    def clear(self) -> None:
        self._attempt(
            "clearing the run", lambda: self._journal.clear_run(self._run_key)
        )

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


def execute_shards(
    specs: list[tuple],
    workers: int,
    options: ResilienceOptions | None = None,
    run_key: str | None = None,
    physics_key: str | None = None,
) -> list[tuple[int, int]]:
    """Execute every shard spec, surviving worker *and* storage faults;
    returns ``(shots, failures)`` per shard, in shard order.

    ``workers == 1`` executes in-process (with the same retry accounting
    and journaling).  With ``options.checkpoint`` set, the store is
    consulted **before computing**: previously recorded shards (validated
    — checksummed, plan-checked; bad rows quarantined with
    :class:`CacheCorrupt` and recomputed) are replayed from disk when
    ``options.resume``, and a full hit returns without a worker pool ever
    being created.  Completed shards stream into the journal under
    ``run_key`` (tagged with ``physics_key`` for cross-run pooling), and
    every storage fault on the way degrades the run to uncheckpointed
    execution (:class:`JournalDegraded`) instead of killing it.
    """
    opts = options or ResilienceOptions()
    results: dict[int, tuple[int, int]] = {}
    pending = list(range(len(specs)))
    journal = None
    if opts.checkpoint is not None:
        if run_key is None:
            raise ValueError("checkpointed execution requires a run_key")
        journal = _ResilientJournal(opts.checkpoint, run_key)
        if journal.active:
            kind = specs[0][0] if specs else "?"
            total_shots = sum(spec[2] for spec in specs)
            if not opts.resume:
                journal.clear()
            journal.register(kind, total_shots, len(specs), physics_key)
            if opts.resume:
                sizes = [spec[2] for spec in specs]
                for idx, counts in journal.resume_counts(sizes).items():
                    results[idx] = counts
                pending = [i for i in pending if i not in results]
    try:
        if pending:
            if workers == 1:
                _execute_serial(specs, pending, results, journal, opts)
            else:
                _execute_pool(specs, pending, workers, results, journal, opts)
    finally:
        if journal is not None:
            journal.close()
    return [results[i] for i in range(len(specs))]


def _record(
    results: dict,
    journal: "_ResilientJournal | None",
    idx: int,
    shots: int,
    failures: int,
) -> None:
    """One finished shard: pooled in memory, then committed to the journal
    (a no-op when the run is uncheckpointed or the journal degraded)."""
    results[idx] = (shots, failures)
    if journal is not None:
        journal.record(idx, shots, failures)


def _degrade_shard(
    specs: list,
    idx: int,
    attempts: int,
    last_error: BaseException | None,
    results: dict,
    journal,
) -> None:
    """Last resort: run the shard in-process, outside
    :func:`_guarded_run_shard` and the pool.  The result is exact — shards
    are pure — so the run finishes correct; only a fallback that fails too
    raises :class:`ShardRetryExhausted`."""
    warnings.warn(
        f"shard {idx} failed {attempts} attempt(s) "
        f"(last error: {last_error!r}); degrading to in-process execution — "
        f"pooled counts are unaffected",
        RunDegraded,
        stacklevel=2,
    )
    try:
        shots, failures = _run_shard_inprocess(specs[idx])
    except Exception as exc:
        raise ShardRetryExhausted(idx, attempts + 1, exc) from exc
    _record(results, journal, idx, shots, failures)


def _execute_serial(
    specs: list,
    pending: list[int],
    results: dict,
    journal,
    opts: ResilienceOptions,
) -> None:
    """In-process execution with the same retry/degradation accounting;
    every attempt runs through :func:`_guarded_run_shard`, the entry the
    pool submits."""
    allowed = 1 + opts.max_retries
    for idx in pending:
        last_error: BaseException | None = None
        for attempt in range(1, allowed + 1):
            try:
                _, shots, failures = _guarded_run_shard((idx, specs[idx], attempt))
            except Exception as exc:
                last_error = exc
                if attempt < allowed:
                    _backoff_sleep(attempt)
                continue
            _record(results, journal, idx, shots, failures)
            break
        else:
            _degrade_shard(specs, idx, allowed, last_error, results, journal)


def _execute_pool(
    specs: list,
    pending: list[int],
    workers: int,
    results: dict,
    journal,
    opts: ResilienceOptions,
) -> None:
    allowed = 1 + opts.max_retries
    attempts = {i: 0 for i in pending}
    last_error: dict[int, BaseException] = {}
    degraded: list[int] = []
    rebuilds = 0
    futures: dict = {}  # Future -> shard index
    started: dict = {}  # Future -> monotonic stamp when first seen running

    try:
        pool = _get_pool(workers)

        def submit(idx: int, new_attempt: bool = True) -> None:
            nonlocal pool, rebuilds
            if new_attempt:
                attempts[idx] += 1
            payload = (idx, specs[idx], attempts[idx])
            try:
                fut = pool.submit(_guarded_run_shard, payload)
            except BrokenProcessPool:
                # The pool broke between supervision ticks (or was already
                # broken at submit time): replace it and resubmit at the
                # same attempt — no worker ever ran this shard.  In-flight
                # futures from the dead pool resolve BrokenProcessPool and
                # are handled by the supervision loop as usual.
                _kill_pool(workers)
                rebuilds += 1
                _backoff_sleep(rebuilds)
                pool = _get_pool(workers)
                fut = pool.submit(_guarded_run_shard, payload)
            futures[fut] = idx

        def on_failure(idx: int, exc: BaseException) -> bool:
            """Charge an attempt's failure; True → retry, False → degraded."""
            last_error[idx] = exc
            if attempts[idx] >= allowed:
                degraded.append(idx)
                return False
            return True

        for idx in pending:
            submit(idx)

        while futures:
            done, not_done = _fut_wait(
                set(futures), timeout=_TICK, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            for fut in not_done:
                if fut not in started and fut.running():
                    started[fut] = now

            pool_broken = False
            retries: list[int] = []
            for fut in done:
                idx = futures.pop(fut)
                started.pop(fut, None)
                try:
                    _, shots, failures = fut.result()
                except BrokenProcessPool as exc:
                    pool_broken = True
                    if on_failure(idx, exc):
                        retries.append(idx)
                    continue
                except Exception as exc:
                    if on_failure(idx, exc):
                        retries.append(idx)
                    continue
                _record(results, journal, idx, shots, failures)

            timed_out: set[int] = set()
            if opts.shard_timeout is not None:
                for fut, t0 in started.items():
                    if now - t0 > opts.shard_timeout:
                        timed_out.add(futures[fut])

            if pool_broken or timed_out:
                # The executor can neither cancel a running future nor
                # survive a dead worker: abandon in-flight futures, kill
                # and replace the pool, and resubmit everything unfinished.
                # Timed-out shards are charged a failed attempt; innocent
                # in-flight shards are resubmitted at their same attempt.
                survivors: list[int] = []
                for fut, idx in futures.items():
                    if idx in timed_out:
                        exc = ShardTimeout(idx, attempts[idx], opts.shard_timeout)
                        if on_failure(idx, exc):
                            retries.append(idx)
                    else:
                        survivors.append(idx)
                futures.clear()
                started.clear()
                _kill_pool(workers)
                rebuilds += 1
                _backoff_sleep(rebuilds)
                try:
                    pool = _get_pool(workers)
                except Exception as exc:
                    # Pool cannot be rebuilt (fd/memory exhaustion, ...):
                    # degrade every unfinished shard rather than lose the run.
                    warnings.warn(
                        f"worker pool could not be rebuilt ({exc!r}); running "
                        f"{len(retries) + len(survivors)} remaining shard(s) "
                        f"in-process",
                        RunDegraded,
                        stacklevel=2,
                    )
                    degraded.extend(retries)
                    degraded.extend(survivors)
                    break
                for idx in survivors:
                    submit(idx, new_attempt=False)
                for idx in retries:
                    submit(idx)
            elif retries:
                _backoff_sleep(max(attempts[i] for i in retries))
                for idx in retries:
                    submit(idx)
    except (KeyboardInterrupt, SystemExit):
        # Never leave a cached executor holding orphaned in-flight
        # futures: a later call would reuse it and inherit the mess.
        _kill_pool(workers)
        raise

    for idx in sorted(set(degraded)):
        _degrade_shard(specs, idx, attempts[idx], last_error.get(idx), results, journal)
