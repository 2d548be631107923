"""Deterministic fault injection for the resilient shard runtime.

The chaos harness exists so that the retry/timeout/checkpoint machinery in
:mod:`repro.threshold.runtime` is *proven* under fault load instead of
merely written: tests hand a :class:`ChaosPlan` to any sharded entry point
and the worker wrapper injects the planned fault for the planned shard
index on the planned attempts — nothing is random, so every chaos test is
exactly reproducible.

Fault kinds
-----------
``"crash"``
    The worker process calls ``os._exit`` mid-shard, which breaks the
    whole ``ProcessPoolExecutor`` (``BrokenProcessPool``) — the hardest
    fault the runtime must survive.
``"hang"``
    The worker sleeps for ``hang_seconds`` before running the shard,
    tripping the per-shard timeout and hung-worker replacement path.
``"exception"``
    The worker raises :class:`ChaosError` instead of running the shard —
    the plain retry path.
``"unpicklable"``
    The shard runs *successfully* but its return value refuses to pickle,
    so the result is lost on the way back — the runtime must re-run the
    shard (bit-for-bit identical, shards are pure functions of their spec).

Faults are injected for attempts ``1..times`` and vanish afterwards, so a
plan with ``times <= max_retries`` converges through retries while
``times > max_retries`` exercises retry exhaustion and in-process
degradation.

In-process (``workers=1``) execution maps every fault kind to
:class:`ChaosError`: a real crash or hang would take down the driver
process itself, but the retry bookkeeping being tested is identical.

I/O fault kinds
---------------
The persistence path (checkpoint journal / result cache) has its own
fault plane: :class:`IOChaosPlan` + :class:`ChaosConnection` wrap the
journal's sqlite connection and inject faults on planned *write ordinals*
(the 1-based count of DML statements — INSERT/UPDATE/DELETE/REPLACE —
executed through the connection; reads and PRAGMAs are never counted).

``"io_error_on_write"``
    The write raises ``sqlite3.OperationalError("disk I/O error")`` — a
    dying disk or yanked volume; the run must degrade to uncheckpointed
    execution (``JournalDegraded``), never die.
``"disk_full"``
    ``sqlite3.OperationalError("database or disk is full")`` — same
    contract as above, the classic overnight-scan killer.
``"lock_contention"``
    ``sqlite3.OperationalError("database is locked")`` — transient
    contention from a concurrent driver; the runtime's bounded retry
    should absorb a short burst and degrade only past the budget.
    Retries re-execute the statement and advance the write counter, so a
    burst is modelled as *consecutive* planned ordinals.
``"corrupt_row"``
    The nastiest: the write *succeeds* but the stored ``failures`` value
    is silently tampered while its checksum stays stale — bit rot /
    torn-write simulation.  Nothing fails now; the next run's checksum
    verification must quarantine the row (``CacheCorrupt``) and recompute
    the shard.  Only meaningful on ``shard_results`` inserts; planned on
    any other statement it is a no-op.
"""

from __future__ import annotations

import sqlite3

__all__ = [
    "ChaosConnection",
    "ChaosError",
    "ChaosPlan",
    "IOChaosPlan",
    "IO_FAULTS",
    "VALID_FAULTS",
]

VALID_FAULTS = frozenset({"crash", "hang", "exception", "unpicklable"})

IO_FAULTS = frozenset(
    {"io_error_on_write", "disk_full", "corrupt_row", "lock_contention"}
)


class ChaosError(RuntimeError):
    """Deterministically injected shard failure (never raised outside tests)."""


class ChaosPlan:
    """Picklable per-shard-index fault plan.

    Parameters
    ----------
    faults:
        Mapping of shard index → fault kind (one of :data:`VALID_FAULTS`).
    times:
        Inject on attempts ``1..times`` of the afflicted shard; later
        attempts run clean.  ``times`` larger than the runtime's
        ``max_retries`` forces exhaustion/degradation.
    hang_seconds:
        Sleep length for ``"hang"`` faults — pick it far above the
        runtime's ``shard_timeout`` so a hang never resolves by luck.
    """

    def __init__(
        self,
        faults: dict[int, str],
        times: int = 1,
        hang_seconds: float = 3600.0,
    ) -> None:
        bad = {kind for kind in faults.values() if kind not in VALID_FAULTS}
        if bad:
            raise ValueError(f"unknown fault kinds {sorted(bad)}; valid: {sorted(VALID_FAULTS)}")
        if times < 1:
            raise ValueError("times must be >= 1 (inject on at least the first attempt)")
        self.faults = {int(i): kind for i, kind in faults.items()}
        self.times = int(times)
        self.hang_seconds = float(hang_seconds)

    @classmethod
    def every(
        cls,
        stride: int,
        fault: str,
        num_shards: int,
        times: int = 1,
        hang_seconds: float = 3600.0,
    ) -> "ChaosPlan":
        """Fault every ``stride``-th shard: indices ``0, stride, 2*stride, ...``.

        ``ChaosPlan.every(4, "crash", 16)`` afflicts 25% of a 16-shard run —
        the fault density the acceptance criteria demand.
        """
        if stride < 1:
            raise ValueError("stride must be positive")
        return cls(
            {i: fault for i in range(0, num_shards, stride)},
            times=times,
            hang_seconds=hang_seconds,
        )

    def fault_for(self, shard_index: int, attempt: int) -> str | None:
        """Fault to inject for this ``(shard_index, attempt)``, or ``None``."""
        if attempt <= self.times:
            return self.faults.get(shard_index)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChaosPlan({self.faults!r}, times={self.times}, "
            f"hang_seconds={self.hang_seconds})"
        )


class IOChaosPlan:
    """Deterministic I/O fault plan for the journal/cache sqlite connection.

    Parameters
    ----------
    faults:
        Mapping of write ordinal (1-based, counted over DML statements the
        wrapped connection executes) → fault kind (one of
        :data:`IO_FAULTS`).  The counter is stateful and driver-side only:
        the plan is never shipped to workers, so a run's write sequence —
        run registration, then one insert per finished shard — is exactly
        reproducible and ordinals address it directly.
    """

    def __init__(self, faults: dict[int, str]) -> None:
        bad = {kind for kind in faults.values() if kind not in IO_FAULTS}
        if bad:
            raise ValueError(
                f"unknown I/O fault kinds {sorted(bad)}; valid: {sorted(IO_FAULTS)}"
            )
        if any(int(ordinal) < 1 for ordinal in faults):
            raise ValueError("write ordinals are 1-based")
        self.faults = {int(ordinal): kind for ordinal, kind in faults.items()}
        self.writes_seen = 0

    def next_write_fault(self) -> str | None:
        """Advance the write counter; fault planned for this write, if any."""
        self.writes_seen += 1
        return self.faults.get(self.writes_seen)

    def reset(self) -> None:
        """Rewind the counter (reuse one plan across independent tests)."""
        self.writes_seen = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IOChaosPlan({self.faults!r}, writes_seen={self.writes_seen})"


_WRITE_PREFIXES = ("INSERT", "UPDATE", "DELETE", "REPLACE")


def _tamper_shard_params(sql: str, parameters: tuple) -> tuple:
    """Flip the ``failures`` value of a shard-result insert while leaving
    its (now stale) checksum in place — the persisted row is silently
    wrong, exactly like bit rot, and only checksum verification on the
    next read can catch it."""
    if "shard_results" not in sql or len(parameters) < 6:
        return parameters
    tampered = list(parameters)
    tampered[3] = int(tampered[3]) ^ 1
    return tuple(tampered)


class ChaosConnection:
    """Fault-wrapping sqlite connection proxy (I/O chaos injection).

    Delegates everything to the real connection, but consults the
    :class:`IOChaosPlan` before executing each DML statement.  Injected
    errors are real ``sqlite3.OperationalError``s, so the journal's
    callers exercise exactly the handling a real disk fault would hit.
    """

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

    def executescript(self, script: str):  # noqa: ANN201
        return self._conn.executescript(script)

    def commit(self) -> None:
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


class _UnpicklableResult:
    """Return-value poison: pickling it (to send the worker's result back
    over the result queue) raises, so the driver sees a failed shard even
    though the shard itself ran to completion."""

    def __init__(self, value: object) -> None:
        self.value = value

    def __reduce__(self):
        raise TypeError("chaos: deliberately unpicklable shard result")
