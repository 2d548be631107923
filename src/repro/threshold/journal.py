"""Corruption-resilient checkpoint journal, which is also the result cache.

Resolving 10⁻⁵–10⁻⁶ logical failure rates means hours-long scans; losing
every completed shard to one crashed worker (or a Ctrl-C, or an OOM kill)
is not acceptable — and neither is silently *wrong* persisted data.  The
journal persists each finished shard's ``(shots, failures)`` into sqlite
the moment it completes — WAL mode, one commit per shard, so a hard kill
at any instant loses at most the shards still in flight — and a restarted
run replays finished shards from disk, re-executing only the remainder.

Content-addressed run keys
--------------------------
A journal row is only replayable if it provably belongs to *this* run, so
rows are keyed by :func:`compute_run_key`: a SHA-256 over the exact inputs
the sharded driver makes deterministic — ``(kind, shots, seed entropy +
spawn key, resolved shard count)`` and the payload bytes every shard
receives, which pickle each protocol by its constructor arguments and so
name the run's inputs and nothing a run leaves behind.  Because every
shard is a pure function of its spec, a replayed shard is bit-for-bit
what re-executing it would produce; resuming is therefore exactly as
correct as a clean run.  Any input change — one more shot, a different
seed, a different noise rate — changes the key and the run starts fresh.

``seed=None`` runs draw fresh OS entropy, so their key never matches a
previous run's: an irreproducible run is (correctly) never resumed.  Pass
an explicit seed to make a scan resumable.

The read API
------------
There is no separate cache layer; the journal's own reads are the API:

* :meth:`CheckpointJournal.completed_shards` with ``expected_sizes`` (the
  shard plan) is the run-key lookup the runtime does before computing.
  Every planned shard present is a full hit (no worker pool is created),
  some is a partial hit (resume re-executes only the remainder), none is
  a miss;
* :meth:`CheckpointJournal.stats` and :meth:`CheckpointJournal.gc` back
  the ``scripts_run_full.py cache stats|gc`` subcommands.

Integrity: trust nothing you did not verify
-------------------------------------------
Persisted counts feed threshold claims, so a corrupted row must never
replay silently:

* every shard row carries a :func:`row_checksum` over
  ``(run_key, shard_index, shots, failures)``; rows failing verification
  are **quarantined** (moved to a ``quarantine`` table, with a
  :class:`CacheCorrupt` warning) and the shard is recomputed — bit-for-bit
  identical, shards are pure functions of their specs;
* the schema carries a ``PRAGMA user_version``: a new store's tables and
  stamp are written in one transaction, and any layout other than the one
  this code writes is refused (:class:`JournalSchemaError`) rather than
  guessed at;
* ``PRAGMA integrity_check`` runs on every open, so a torn WAL or
  bit-rotted page surfaces as a :class:`sqlite3.DatabaseError` at open
  time (which the runtime degrades on) instead of as garbage counts;
* :meth:`register_run` validates pre-existing metadata under the same run
  key and raises :class:`JournalMismatch` on conflict instead of silently
  keeping stale rows.

This layer *raises* on storage faults; the policy of surviving them
(bounded lock retry, degrade-to-uncheckpointed with a ``JournalDegraded``
warning) lives with the rest of the resilience policy in
:mod:`repro.threshold.runtime`.  The runtime opens journals through its
module-level ``CheckpointJournal`` name, so the storage-fault tests
substitute one whose connection fails on planned writes
(``tests/faults.py``); nothing here knows about fault injection.
"""

from __future__ import annotations

import hashlib
import pickle
import sqlite3
import time
import warnings
from pathlib import Path

__all__ = [
    "CacheCorrupt",
    "CheckpointJournal",
    "JournalDegraded",
    "JournalMismatch",
    "JournalSchemaError",
    "compute_run_key",
    "row_checksum",
]

# Bump when the key payload layout changes so stale journals never replay
# into a new layout (version 2 hashes the shipped payload bytes).
_KEY_VERSION = 2

# PRAGMA user_version stamped into every journal this code writes; any
# other version, or an unversioned file that already holds tables, is
# refused.  Stores created with an extra ``runs.physics_key`` column and
# its index carry this version too; no query reads that column.
_SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE runs (
    run_key      TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    shots        INTEGER NOT NULL,
    num_shards   INTEGER NOT NULL,
    created_unix REAL NOT NULL
);
CREATE TABLE shard_results (
    run_key       TEXT NOT NULL,
    shard_index   INTEGER NOT NULL,
    shots         INTEGER NOT NULL,
    failures      INTEGER NOT NULL,
    checksum      TEXT,
    recorded_unix REAL NOT NULL,
    PRIMARY KEY (run_key, shard_index)
);
CREATE TABLE quarantine (
    run_key          TEXT NOT NULL,
    shard_index      INTEGER NOT NULL,
    shots            INTEGER,
    failures         INTEGER,
    checksum         TEXT,
    reason           TEXT NOT NULL,
    quarantined_unix REAL NOT NULL
);
"""


class JournalMismatch(RuntimeError):
    """A journal row contradicts the run it claims to belong to (stale or
    conflicting run metadata under the same key) — the journal is corrupt
    or a run-key collision occurred; refusing to treat it as this run's."""


class JournalSchemaError(RuntimeError):
    """The journal file carries an unknown ``PRAGMA user_version``, or none
    and tables already (other code wrote it, or it is not a journal at
    all).  Explicitly refused — use the code that created it, or point at
    a fresh path."""


class CacheCorrupt(UserWarning):
    """A cached shard row failed validation (checksum mismatch, impossible
    shard index, or a shard size that contradicts the run's plan).  The row
    is quarantined and the shard recomputed — pooled counts stay exactly
    what a clean run would produce; only the cached work is lost."""


class JournalDegraded(UserWarning):
    """The checkpoint journal/result cache became unavailable (disk full,
    readonly filesystem, I/O error, lock contention beyond the retry
    budget) and the run continues *uncheckpointed*.  Results are
    unaffected — only crash-resume durability and cache reuse are lost."""


def compute_run_key(
    kind: str,
    payload: bytes,
    shots: int,
    seed_fingerprint: tuple,
    num_shards: int,
) -> str:
    """Content-addressed key over everything that determines the pooled counts.

    ``payload`` is the pickle of the run args (protocol/code/noise/rounds)
    that :func:`repro.threshold.sharded._build_specs` makes once and ships
    to every worker; its bytes are hashed as they are.  ``seed_fingerprint``
    is the normalized ``(entropy, spawn_key)`` identity of the root
    ``SeedSequence`` (see ``sharded._seed_fingerprint``), and
    ``num_shards`` is the *resolved* shard count, so the key pins the
    shard plan itself.
    """
    header = pickle.dumps(
        (_KEY_VERSION, kind, int(shots), int(num_shards), seed_fingerprint), protocol=4
    )
    # The header pickle ends at its STOP opcode, so header + payload parses
    # one way only.
    digest = hashlib.sha256(header)
    digest.update(payload)
    return digest.hexdigest()


def row_checksum(run_key: str, shard_index: int, shots: int, failures: int) -> str:
    """Integrity checksum binding a shard row's counts to its identity.

    Covers exactly the values that feed pooled counts; a flipped bit in
    any of them (bit rot, a torn write, a buggy external edit) fails
    verification and quarantines the row instead of polluting a threshold
    estimate.
    """
    payload = f"{run_key}|{int(shard_index)}|{int(shots)}|{int(failures)}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class CheckpointJournal:
    """Sqlite/WAL journal of completed shards, one commit per shard.

    Single-writer by construction: only the driver process records
    results (workers stream counts back over the pool's result queue),
    so there is no lock contention in the common case; ``timeout=30``
    covers concurrent *separate* driver processes sharing one journal
    file, which WAL serializes safely
    (``tests/test_threshold_journal.py`` proves it with two live driver
    processes).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._closed = False
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        self._conn = conn
        try:
            # A torn WAL or bit-rotted page must surface here, at open, as
            # a DatabaseError the runtime can degrade on — never later as
            # garbage counts.  (On a corrupt file this either reports the
            # damage or raises "file is not a database" itself.)
            status = self._conn.execute("PRAGMA integrity_check").fetchone()[0]
            if status != "ok":
                raise sqlite3.DatabaseError(
                    f"integrity_check failed for {self.path}: {status}"
                )
            self._ensure_schema()
            # WAL keeps readers unblocked during the per-shard commits and
            # makes a mid-commit kill recoverable; NORMAL sync is durable to
            # application crash (the case we defend against) without fsync
            # per shard.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.commit()
        except BaseException:
            self._closed = True
            try:
                conn.close()
            except (sqlite3.Error, OSError):
                # Cleanup on the failure path: the original open/schema
                # error is already propagating and is the observable fault;
                # a close error on a broken handle adds nothing.
                pass
            raise

    def __getstate__(self) -> None:
        """Sqlite connections are process-local: a journal that rode a
        worker payload across the spawn boundary would arrive as a dead
        handle.  Refuse at pickle time, where the mistake is visible —
        workers never journal; only the driver process records results."""
        raise TypeError(
            "CheckpointJournal holds a process-local sqlite connection and "
            "cannot be pickled; pass the journal *path* and reopen in the "
            "receiving process instead"
        )

    # -- schema --------------------------------------------------------
    def _ensure_schema(self) -> None:
        """Create a new store or accept this code's layout; refuse anything
        else — never guess at a layout."""
        version = int(self._conn.execute("PRAGMA user_version").fetchone()[0])
        if version == _SCHEMA_VERSION:
            return
        has_tables = self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table'"
        ).fetchone()
        if version != 0 or has_tables:
            raise JournalSchemaError(
                f"{self.path} has schema user_version={version} and "
                f"{'holds' if has_tables else 'no'} tables; this code writes "
                f"version {_SCHEMA_VERSION} and refuses to guess at an "
                f"unknown layout — use the code that created it, or point "
                f"at a fresh path"
            )
        # One transaction, so a failure before the stamp leaves no tables
        # and the next open creates the store afresh.
        self._conn.executescript(
            f"BEGIN; {_SCHEMA} PRAGMA user_version = {_SCHEMA_VERSION}; COMMIT;"
        )

    # -- recording -----------------------------------------------------
    def register_run(self, run_key: str, kind: str, shots: int, num_shards: int) -> None:
        """Note the run's shape; validate it if already present.

        Re-registering with identical metadata is a no-op.  Conflicting
        metadata under the same key means the stored row is stale or
        corrupt — raise :class:`JournalMismatch` instead of silently
        keeping it, as ``INSERT OR IGNORE`` used to.
        """
        row = self._conn.execute(
            "SELECT kind, shots, num_shards FROM runs WHERE run_key = ?",
            (run_key,),
        ).fetchone()
        if row is not None:
            if (row[0], int(row[1]), int(row[2])) != (kind, int(shots), int(num_shards)):
                raise JournalMismatch(
                    f"run {run_key[:12]}… is already registered as "
                    f"(kind={row[0]!r}, shots={row[1]}, num_shards={row[2]}) "
                    f"but this run is (kind={kind!r}, shots={shots}, "
                    f"num_shards={num_shards}) — the stored metadata is "
                    f"stale or corrupt"
                )
            return
        self._conn.execute(
            "INSERT INTO runs (run_key, kind, shots, num_shards, created_unix) "
            "VALUES (?, ?, ?, ?, ?)",
            (run_key, kind, int(shots), int(num_shards), time.time()),
        )
        self._conn.commit()

    def record_shard(
        self, run_key: str, shard_index: int, shots: int, failures: int
    ) -> None:
        """Persist one finished shard — committed immediately (crash-safe),
        checksummed so a later corruption can never replay silently."""
        self._conn.execute(
            "INSERT OR REPLACE INTO shard_results "
            "(run_key, shard_index, shots, failures, checksum, recorded_unix) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                run_key,
                int(shard_index),
                int(shots),
                int(failures),
                row_checksum(run_key, shard_index, shots, failures),
                time.time(),
            ),
        )
        self._conn.commit()

    # -- quarantine ----------------------------------------------------
    def quarantine_shard(self, run_key: str, shard_index: int, reason: str) -> None:
        """Move one shard row out of the replay path, preserving it for
        forensics; the shard will be recomputed on the next run."""
        self._conn.execute(
            "INSERT INTO quarantine (run_key, shard_index, shots, failures, "
            "checksum, reason, quarantined_unix) "
            "SELECT run_key, shard_index, shots, failures, checksum, ?, ? "
            "FROM shard_results WHERE run_key = ? AND shard_index = ?",
            (reason, time.time(), run_key, int(shard_index)),
        )
        self._conn.execute(
            "DELETE FROM shard_results WHERE run_key = ? AND shard_index = ?",
            (run_key, int(shard_index)),
        )
        self._conn.commit()

    def quarantine_run(self, run_key: str, reason: str) -> None:
        """Quarantine every shard row of a run and drop its registration
        (used when the run *metadata* itself fails validation)."""
        self._conn.execute(
            "INSERT INTO quarantine (run_key, shard_index, shots, failures, "
            "checksum, reason, quarantined_unix) "
            "SELECT run_key, shard_index, shots, failures, checksum, ?, ? "
            "FROM shard_results WHERE run_key = ?",
            (reason, time.time(), run_key),
        )
        self._conn.execute(
            "DELETE FROM shard_results WHERE run_key = ?", (run_key,)
        )
        self._conn.execute("DELETE FROM runs WHERE run_key = ?", (run_key,))
        self._conn.commit()

    # -- replay / cache reads ------------------------------------------
    def completed_shards(
        self, run_key: str, expected_sizes: list[int] | None = None
    ) -> dict[int, tuple[int, int]]:
        """Verified ``{shard_index: (shots, failures)}`` recorded for this run.

        Every row is checksum-verified, and — when ``expected_sizes`` (the
        run's shard plan) is given — validated against the plan: the index
        must exist in it and the recorded shots must match it.  Invalid
        rows are quarantined with a :class:`CacheCorrupt` warning and
        simply *absent* from the result, so the caller recomputes them;
        corruption can cost cached work, never correctness.
        """
        rows = self._conn.execute(
            "SELECT shard_index, shots, failures, checksum FROM shard_results "
            "WHERE run_key = ?",
            (run_key,),
        ).fetchall()
        clean: dict[int, tuple[int, int]] = {}
        for idx, shots, failures, checksum in rows:
            idx, shots, failures = int(idx), int(shots), int(failures)
            reason = None
            if checksum != row_checksum(run_key, idx, shots, failures):
                reason = "checksum mismatch"
            elif expected_sizes is not None:
                if not 0 <= idx < len(expected_sizes):
                    reason = f"shard index {idx} outside the {len(expected_sizes)}-shard plan"
                elif shots != int(expected_sizes[idx]):
                    reason = f"recorded shots {shots} != planned {expected_sizes[idx]}"
            if reason is not None:
                self.quarantine_shard(run_key, idx, reason)
                warnings.warn(
                    f"cached shard (run {run_key[:12]}…, shard {idx}) failed "
                    f"validation ({reason}); quarantined — the shard will be "
                    f"recomputed, pooled counts are unaffected",
                    CacheCorrupt,
                    stacklevel=3,
                )
                continue
            clean[idx] = (shots, failures)
        return clean

    def clear_run(self, run_key: str) -> None:
        """Drop a run's shards (``resume=False`` starts it from scratch)."""
        self._conn.execute(
            "DELETE FROM shard_results WHERE run_key = ?", (run_key,)
        )
        self._conn.execute("DELETE FROM runs WHERE run_key = ?", (run_key,))
        self._conn.commit()

    def runs(self) -> list[tuple[str, str, int, int]]:
        """All registered runs as ``(run_key, kind, shots, num_shards)``."""
        return [
            (k, kind, int(s), int(n))
            for k, kind, s, n in self._conn.execute(
                "SELECT run_key, kind, shots, num_shards FROM runs "
                "ORDER BY created_unix"
            )
        ]

    # -- introspection / maintenance -----------------------------------
    def stats(self) -> dict:
        """Cache health summary (the ``cache stats`` CLI subcommand)."""
        one = lambda sql: int(self._conn.execute(sql).fetchone()[0])  # noqa: E731
        return {
            "path": str(self.path),
            "schema_version": _SCHEMA_VERSION,
            "runs": one("SELECT COUNT(*) FROM runs"),
            "complete_runs": one(
                "SELECT COUNT(*) FROM runs r WHERE r.num_shards = "
                "(SELECT COUNT(*) FROM shard_results s WHERE s.run_key = r.run_key)"
            ),
            "shard_rows": one("SELECT COUNT(*) FROM shard_results"),
            "quarantined_rows": one("SELECT COUNT(*) FROM quarantine"),
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    def gc(self, grace_seconds: float = 3600.0) -> dict:
        """Reclaim space: drop *stale* incomplete runs, purge the
        quarantine, drop orphaned shard rows, and VACUUM.  Returns a
        report of what was removed.

        An incomplete run is only collectible when it is provably
        abandoned, not merely unfinished: WAL lets a gc run concurrently
        with a live scan writing the same journal, and collecting the live
        run's rows mid-write would silently recompute every one of its
        finished shards.  So a run whose newest row (or registration) is
        younger than ``grace_seconds`` is presumed in flight and skipped.
        """
        now = time.time()
        incomplete: list[str] = []
        live_skipped = 0
        for run_key, _, _, num_shards in self.runs():
            recorded = int(
                self._conn.execute(
                    "SELECT COUNT(*) FROM shard_results WHERE run_key = ?",
                    (run_key,),
                ).fetchone()[0]
            )
            if recorded == num_shards:
                continue
            newest = self._conn.execute(
                "SELECT MAX(recorded_unix) FROM shard_results WHERE run_key = ?",
                (run_key,),
            ).fetchone()[0]
            created = self._conn.execute(
                "SELECT created_unix FROM runs WHERE run_key = ?", (run_key,)
            ).fetchone()[0]
            last_activity = max(float(created or 0.0), float(newest or 0.0))
            if now - last_activity < grace_seconds:
                live_skipped += 1
                continue
            incomplete.append(run_key)
        for run_key in incomplete:
            self.clear_run(run_key)
        quarantined = self._conn.execute("DELETE FROM quarantine").rowcount
        orphans = self._conn.execute(
            "DELETE FROM shard_results WHERE run_key NOT IN "
            "(SELECT run_key FROM runs)"
        ).rowcount
        self._conn.commit()
        self._conn.execute("VACUUM")
        return {
            "incomplete_runs_dropped": len(incomplete),
            "live_runs_skipped": live_skipped,
            "quarantined_rows_purged": int(quarantined),
            "orphan_rows_dropped": int(orphans),
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Idempotent close; checkpoints and truncates the WAL first so a
        cleanly closed journal leaves no ``-wal``/``-shm`` litter behind."""
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            pass  # best effort — close must never raise over WAL hygiene
        try:
            self._conn.close()
        except sqlite3.Error:
            pass

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
