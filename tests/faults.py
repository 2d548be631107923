"""Deterministic fault injection for the resilient shard runtime's tests.

The chaos suites prove the retry/timeout/checkpoint machinery of
:mod:`repro.threshold.runtime` under fault load.  Nothing here is in the
library: each suite installs a fake with ``monkeypatch`` on one of the two
names the runtime looks up at call time, and nothing is random, so every
chaos test is exactly reproducible.

Worker faults: a :class:`ChaosPlan` instance stands in for
``runtime._guarded_run_shard``, which every shard attempt runs through
(pool workers and the serial path alike; the in-process fallback does
not), and injects the planned fault for the planned shard index on
attempts ``1..times``:

``"crash"``
    The worker calls ``os._exit`` mid-shard, which breaks the whole
    ``ProcessPoolExecutor`` (``BrokenProcessPool``).
``"hang"``
    The worker sleeps ``hang_seconds`` before running the shard, tripping
    the per-shard timeout and hung-worker replacement.
``"exception"``
    The worker raises :class:`ChaosError` instead of running the shard.
``"unpicklable"``
    The shard runs, but its return value refuses to pickle, so the result
    is lost on the way back and the runtime must re-run the shard.

In the main process (``workers=1``) every kind raises
:class:`ChaosError`: a real crash or hang would take down the test
process itself, and the retry bookkeeping under test is the same.  Spawn pickles
the plan by reference to this module; workers can import it because
pytest puts ``tests/`` on the parent's ``sys.path`` and spawn copies it.

Storage faults: :func:`chaos_journal` builds a stand-in for
``runtime.CheckpointJournal`` whose sqlite connection is a
:class:`ChaosConnection`, which consults an :class:`IOChaosPlan` on every
DML statement (INSERT/UPDATE/DELETE/REPLACE; reads and PRAGMAs are never
counted) by 1-based write ordinal:

``"io_error_on_write"`` / ``"disk_full"``
    The write raises ``sqlite3.OperationalError`` before it lands; the run
    must degrade to uncheckpointed execution (``JournalDegraded``).
``"lock_contention"``
    ``sqlite3.OperationalError("database is locked")``: the runtime's
    bounded retry should absorb a short burst.  A retry re-executes the
    statement and advances the counter, so a burst is a run of
    consecutive ordinals.
``"corrupt_row"``
    The write succeeds, but a ``shard_results`` insert stores a flipped
    ``failures`` value under its stale checksum; the next read must
    quarantine the row (``CacheCorrupt``).  A no-op on other statements.
"""

from __future__ import annotations

import multiprocessing
import os
import sqlite3
import time

from repro.threshold import runtime
from repro.threshold.journal import CheckpointJournal

# Captured before any test patches runtime._guarded_run_shard, or a plan
# standing in for it would call itself.
_run_attempt = runtime._guarded_run_shard
_CRASH_EXIT_CODE = 13


class ChaosError(RuntimeError):
    """Deterministically injected shard failure."""


class _UnpicklableResult:
    """Return-value poison: sending it back over the result queue raises,
    so the main process sees a failed shard although the shard ran."""

    def __reduce__(self):
        raise TypeError("chaos: deliberately unpicklable shard result")


class ChaosPlan:
    """Picklable stand-in for ``runtime._guarded_run_shard``: ``faults``
    maps shard index to fault kind, injected on attempts ``1..times``."""

    def __init__(
        self, faults: dict[int, str], times: int = 1, hang_seconds: float = 3600.0
    ) -> None:
        self.faults = dict(faults)
        self.times = times
        self.hang_seconds = hang_seconds

    def fault_for(self, shard_index: int, attempt: int) -> str | None:
        """Fault to inject for this ``(shard_index, attempt)``, or ``None``."""
        return self.faults.get(shard_index) if attempt <= self.times else None

    def __call__(self, payload: tuple) -> tuple[int, int, int]:
        index, _spec, attempt = payload
        fault = self.fault_for(index, attempt)
        if fault is not None and multiprocessing.parent_process() is None:
            raise ChaosError(
                f"injected {fault} (as exception, in-process): "
                f"shard {index} attempt {attempt}"
            )
        if fault == "crash":
            os._exit(_CRASH_EXIT_CODE)
        elif fault == "hang":
            time.sleep(self.hang_seconds)
        elif fault == "exception":
            raise ChaosError(f"injected exception: shard {index} attempt {attempt}")
        result = _run_attempt(payload)
        return _UnpicklableResult() if fault == "unpicklable" else result


class IOChaosPlan:
    """Storage faults by write ordinal.  The counter lives in the main
    process only, so a run's write sequence — run registration, then one
    insert per finished shard — is reproducible and ordinals address it."""

    def __init__(self, faults: dict[int, str]) -> None:
        self.faults = dict(faults)
        self.writes_seen = 0

    def next_write_fault(self) -> str | None:
        """Advance the write counter; fault planned for this write, if any."""
        self.writes_seen += 1
        return self.faults.get(self.writes_seen)


_WRITE_PREFIXES = ("INSERT", "UPDATE", "DELETE", "REPLACE")


def _tamper_shard_params(sql: str, parameters: tuple) -> tuple:
    """Flip the ``failures`` value of a shard-result insert, leaving its
    (now stale) checksum in place."""
    if "shard_results" not in sql or len(parameters) < 6:
        return parameters
    tampered = list(parameters)
    tampered[3] = int(tampered[3]) ^ 1
    return tuple(tampered)


class ChaosConnection:
    """Sqlite connection proxy that consults an :class:`IOChaosPlan` before
    each DML statement.  Injected errors are real
    ``sqlite3.OperationalError``\\ s, so the journal's callers hit exactly
    the handling a real disk fault would."""

    def __init__(self, conn: sqlite3.Connection, plan: IOChaosPlan) -> None:
        self._conn = conn
        self._plan = plan

    def execute(self, sql: str, parameters: tuple = ()):  # noqa: ANN201
        if sql.lstrip().upper().startswith(_WRITE_PREFIXES):
            fault = self._plan.next_write_fault()
            if fault == "io_error_on_write":
                raise sqlite3.OperationalError("chaos: disk I/O error")
            if fault == "disk_full":
                raise sqlite3.OperationalError("chaos: database or disk is full")
            if fault == "lock_contention":
                raise sqlite3.OperationalError("chaos: database is locked")
            if fault == "corrupt_row":
                parameters = _tamper_shard_params(sql, parameters)
        return self._conn.execute(sql, parameters)

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


def chaos_journal(plan: IOChaosPlan):
    """A stand-in for ``runtime.CheckpointJournal`` whose connection injects
    ``plan``'s faults.  Wrapping after ``__init__`` keeps every write
    ordinal: opening a journal executes no DML (only the v0 migration
    would, and no chaos test migrates)."""

    def open_journal(path) -> CheckpointJournal:
        journal = CheckpointJournal(path)
        journal._conn = ChaosConnection(journal._conn, plan)
        return journal

    return open_journal
