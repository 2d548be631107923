"""Content-addressed Monte Carlo result cache (the user-facing API).

The ROADMAP's threshold-as-a-service north star: never recompute a
``(protocol, code, noise, shots, seed, num_shards)`` point twice.  The
storage substrate is :mod:`repro.threshold.journal` (sqlite/WAL, per-row
checksums, quarantine); this module is the read side:

* **run-key lookup** — :meth:`ResultCache.lookup` classifies a run key as
  a full hit (every shard recorded and verified — the sharded driver
  returns these pooled counts without creating a worker pool), a partial
  hit (resume re-executes only the remainder), or a miss;
* **cross-run pooling** — :meth:`ResultCache.pooled_counts` merges every
  *completed* run that shares a physics fingerprint
  (:func:`~repro.threshold.journal.compute_physics_key`: seed, shots, and
  shard plan excluded) into one higher-shot ``(shots, failures)`` answer,
  and :meth:`ResultCache.pooled_result` wraps it in a
  :class:`~repro.threshold.montecarlo.MemoryResult` with Wilson bounds
  recomputed on the pooled counts.  Pooling independent seeds is
  statistically legitimate by construction: every shard stream is an
  independent ``SeedSequence`` child, so the union of two runs is simply
  one larger experiment;
* **maintenance** — :meth:`ResultCache.stats` and :meth:`ResultCache.gc`
  back the ``scripts_run_full.py cache stats|gc`` subcommands.

Every read is verified (checksums + shard-plan validation); corrupt rows
are quarantined with a :class:`~repro.threshold.journal.CacheCorrupt`
warning and simply excluded, so a cache can get *smaller* under
corruption but never *wrong*.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.threshold.journal import (
    CheckpointJournal,
    compute_physics_key,
)

__all__ = ["CacheLookup", "ResultCache"]


@dataclass(frozen=True)
class CacheLookup:
    """Outcome of a run-key lookup.

    ``status`` is ``"full"`` (every planned shard recorded and verified),
    ``"partial"`` (some), or ``"miss"`` (none); ``counts`` maps shard
    index to its recorded ``(shots, failures)``; ``shots``/``failures``
    are the pooled totals over the recorded shards.
    """

    status: str
    counts: dict[int, tuple[int, int]]
    shots: int
    failures: int


class ResultCache:
    """Verified read/maintenance API over a checkpoint journal file.

    Usable as a context manager; the underlying journal connection is the
    same sqlite/WAL store the sharded driver writes through, so a cache
    handle can watch a live scan fill in.
    """

    def __init__(self, path: str | Path, io_chaos=None) -> None:
        self._journal = CheckpointJournal(path, io_chaos=io_chaos)

    @property
    def path(self) -> Path:
        return self._journal.path

    @property
    def journal(self) -> CheckpointJournal:
        return self._journal

    # -- lookup --------------------------------------------------------
    def lookup(self, run_key: str, shard_sizes: list[int]) -> CacheLookup:
        """Classify ``run_key`` against its shard plan (validated read)."""
        counts = self._journal.completed_shards(
            run_key, expected_sizes=list(shard_sizes)
        )
        if not counts:
            status = "miss"
        elif len(counts) == len(shard_sizes):
            status = "full"
        else:
            status = "partial"
        return CacheLookup(
            status=status,
            counts=counts,
            shots=sum(s for s, _ in counts.values()),
            failures=sum(f for _, f in counts.values()),
        )

    # -- cross-run pooling ---------------------------------------------
    def pooled_counts(self, kind: str, args: tuple) -> tuple[int, int]:
        """Pooled ``(shots, failures)`` over every completed run of this
        physics — seeds and shot budgets differ, the physics does not.

        ``kind``/``args`` are exactly what the sharded driver hashes:
        ``("memory", (protocol, code, rounds))`` or
        ``("capacity", (code, eps, rounds))``.
        """
        shots, failures, _ = self._journal.pooled_physics_counts(
            compute_physics_key(kind, args)
        )
        return shots, failures

    def pooled_runs(self, kind: str, args: tuple) -> list[str]:
        """Run keys of the completed runs that :meth:`pooled_counts` merged."""
        return self._journal.pooled_physics_counts(
            compute_physics_key(kind, args)
        )[2]

    def pooled_result(self, kind: str, args: tuple, rounds: int):
        """Cross-run pooled :class:`~repro.threshold.montecarlo.MemoryResult`
        with Wilson bounds recomputed on the merged counts, or ``None``
        when no completed run of this physics is cached."""
        from repro.threshold.montecarlo import MemoryResult

        shots, failures = self.pooled_counts(kind, args)
        if shots == 0:
            return None
        return MemoryResult.from_counts(rounds, shots, failures)

    # -- maintenance ---------------------------------------------------
    def stats(self) -> dict:
        return self._journal.stats()

    def gc(
        self,
        grace_seconds: float = 3600.0,
        protected_keys: "set[str] | frozenset[str] | tuple | list" = (),
    ) -> dict:
        """Compact the store — safely alongside live runs.

        Incomplete runs are only dropped when provably abandoned: rows
        younger than ``grace_seconds`` mark a run as in flight, and
        ``protected_keys`` (e.g. a scan queue's
        :meth:`~repro.threshold.scheduler.ScanQueue.active_run_keys`)
        are never collected regardless of age — see
        :meth:`~repro.threshold.journal.CheckpointJournal.gc`.
        """
        return self._journal.gc(
            grace_seconds=grace_seconds, protected_keys=protected_keys
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
