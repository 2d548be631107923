"""Multiprocess shot-sharded Monte Carlo driver (perf follow-on to PR 4).

Resolving failure rates near 10⁻⁴–10⁻⁵ needs orders of magnitude more
shots than one core delivers even with the compiled packed engine, so the
driver here shards any ``memory_experiment``-shaped workload across worker
processes and merges the per-shard failure counts into one pooled
:class:`~repro.threshold.montecarlo.MemoryResult` (Wilson bounds recomputed
on the pooled counts).

Determinism contract
--------------------
* The **shard plan** is a function of ``shots`` and ``num_shards`` only —
  never of ``workers`` — and every shard draws from an independent child
  stream of ``np.random.SeedSequence(seed)`` via ``spawn``.  A fixed
  ``(seed, shots, num_shards)`` therefore yields identical pooled counts
  for *any* worker count, including ``workers=1`` run in-process.
* ``workers=1`` with the default ``num_shards=None`` takes the unsharded
  single-process path and reproduces :func:`memory_experiment` /
  :func:`code_capacity_memory` bit-for-bit (same seed → same failures).
* Because each shard is a **pure function of its spec**, the resilient
  runtime's retries, degradations, and journal resumes are bit-for-bit
  identical to a clean run — faults can cost time, never correctness.

A Monte Carlo run has one path: ``memory_experiment`` (or
``code_capacity_memory``) builds the run's
:class:`~repro.threshold.runtime.ResilienceOptions` here
(:func:`_resilience_options`) and hands any sharded call to
:func:`_run_sharded`, which plans the shards and passes them to
:func:`repro.threshold.runtime.execute_shards`.  The runtime supervises
them (per-shard timeouts, bounded retry with backoff, pool replacement on
``BrokenProcessPool``, in-process degradation) and, with ``checkpoint=``,
journals them in :class:`repro.threshold.journal.CheckpointJournal` under
a content-addressed run key: the store is consulted *before* computing,
so a repeated identical run replays its pooled counts without spawning a
pool, a killed scan resumes from disk re-executing only unfinished
shards, and corrupted rows are quarantined and recomputed rather than
replayed (cross-run pooling is
:meth:`~repro.threshold.journal.CheckpointJournal.pooled_physics_counts`).
The four resilience knobs (``max_retries``, ``shard_timeout``,
``checkpoint``, ``resume``) are keyword arguments on both entry points
here and are threaded through every Monte Carlo caller; the two entry
points here are those callers with the knobs spelled out.

Workers are spawned (``multiprocessing`` spawn context, the portable and
thread-safe choice); spawn's preparation data carries the parent's
``sys.path``, so each worker re-imports ``repro`` wherever the parent
found it.  Payloads travel by pickle, so protocols must be picklable (the
compiled programs, codes, and noise models all are).
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from repro.threshold.journal import compute_physics_key, compute_run_key
from repro.threshold.runtime import ResilienceOptions, execute_shards

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "shard_sizes",
    "spawn_shard_seeds",
    "sharded_memory_experiment",
    "sharded_code_capacity_memory",
]

# Fixed default so the shard plan — and hence the pooled result — does not
# depend on how many workers happen to execute it.  16 keeps shards large
# enough for the packed engine while feeding up to 16 cores; runs with more
# workers than shards warn and should pass num_shards explicitly.
DEFAULT_NUM_SHARDS = 16

# Shard streams spawned from a caller-supplied SeedSequence live under this
# reserved spawn-key branch, far above any realistic n_children_spawned, so
# they can neither mutate the caller's sequence nor collide with children
# the caller spawns from it.
_SHARD_SPAWN_DOMAIN = 2**32 - 1


def shard_sizes(shots: int, num_shards: int | None = None) -> list[int]:
    """Deterministic shard plan: ``shots`` split into near-equal shards.

    Depends only on ``(shots, num_shards)`` so that results are invariant
    under the worker count.  The first ``shots % n`` shards are one shot
    larger; no shard is empty.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    n = DEFAULT_NUM_SHARDS if num_shards is None else num_shards
    if n < 1:
        raise ValueError("num_shards must be positive")
    n = min(n, shots)
    base, rem = divmod(shots, n)
    return [base + 1 if i < rem else base for i in range(n)]


def spawn_shard_seeds(
    seed: int | np.random.SeedSequence | None, n: int
) -> list[np.random.SeedSequence]:
    """``n`` independent child streams of ``SeedSequence(seed)``.

    This is the one place shard (and grid-point) streams come from: spawned
    children never collide across roots, unlike the old ``seed + i``
    arithmetic where run ``s`` point ``i`` reused run ``s+1`` point ``i−1``.
    A caller-supplied ``SeedSequence`` is never mutated, and the children
    live under a reserved spawn-key branch — repeated calls with the same
    sequence yield the same children, and none of them collide with
    children the caller spawns from that sequence directly.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = np.random.SeedSequence(
            seed.entropy,
            spawn_key=tuple(seed.spawn_key) + (_SHARD_SPAWN_DOMAIN,),
            pool_size=seed.pool_size,
        )
        return root.spawn(n)
    if seed is not None and not isinstance(seed, (int, np.integer)):
        raise TypeError(
            "sharded runs derive per-shard streams from SeedSequence.spawn; "
            "pass an int seed, a SeedSequence, or None — not a Generator"
        )
    return np.random.SeedSequence(seed).spawn(n)


def _seed_fingerprint(seed: int | np.random.SeedSequence) -> tuple:
    """Normalized seed identity for the content-addressed run key.

    The two ``spawn_shard_seeds`` branches derive *different* shard
    streams (an int spawns children directly; a ``SeedSequence`` spawns
    them under the reserved domain branch), so an int seed and the
    equivalent ``SeedSequence`` deliberately fingerprint differently.  A
    spawned/derived sequence carries its entropy *and* spawn key, so
    sibling grid points never share a run key.
    """
    if isinstance(seed, np.random.SeedSequence):
        return (
            "seedseq",
            seed.entropy,
            tuple(seed.spawn_key),
            seed.pool_size,
        )
    return ("int", int(seed))


# ----------------------------------------------------------------------
# Worker side.  Module-level functions only (spawn pickles them by name;
# spawn's preparation data carries the parent's sys.path, so the child can
# re-import repro wherever the parent found it).
# ----------------------------------------------------------------------
def _run_shard(spec: tuple) -> tuple[int, int]:
    """Run one shard; returns ``(shots, failures)`` for pooling."""
    kind, args, shard_shots, seed_seq = spec
    from repro.threshold.montecarlo import code_capacity_memory, memory_experiment

    if kind == "memory":
        protocol, code, rounds = args
        res = memory_experiment(protocol, code, rounds, shard_shots, seed=seed_seq)
    elif kind == "capacity":
        code, eps, rounds = args
        res = code_capacity_memory(code, eps, rounds, shard_shots, seed=seed_seq)
    else:  # pragma: no cover - specs are built in this module
        raise ValueError(f"unknown shard kind {kind!r}")
    return res.shots, res.failures


# ----------------------------------------------------------------------
# Driver side.
# ----------------------------------------------------------------------
def _build_specs(
    kind: str,
    args: tuple,
    shots: int,
    seed: int | np.random.SeedSequence | None,
    num_shards: int | None,
) -> tuple[list[tuple], tuple]:
    """Shard specs plus the seed fingerprint for run-key computation.

    ``seed=None`` is materialized into a fresh-entropy ``SeedSequence``
    here so even an OS-seeded run has a *knowable* identity — its run key
    simply never matches a previous run's (an irreproducible run is,
    correctly, never resumed).
    """
    sizes = shard_sizes(shots, num_shards)
    if seed is None:
        seed = np.random.SeedSequence()
    seeds = spawn_shard_seeds(seed, len(sizes))
    specs = [(kind, args, size, ss) for size, ss in zip(sizes, seeds)]
    return specs, _seed_fingerprint(seed)


def _execute(
    specs: list[tuple],
    workers: int,
    options: ResilienceOptions | None = None,
    run_key: str | None = None,
    physics_key: str | None = None,
) -> list[tuple[int, int]]:
    if workers > len(specs):
        warnings.warn(
            f"only {len(specs)} shards for {workers} workers — parallelism is "
            f"capped at the shard count; pass num_shards >= workers",
            stacklevel=3,
        )
        workers = len(specs)
    return execute_shards(
        specs, workers, options=options, run_key=run_key, physics_key=physics_key
    )


def _pooled_result(counts: list[tuple[int, int]], rounds: int):
    from repro.threshold.montecarlo import MemoryResult

    return MemoryResult.from_counts(
        rounds, sum(s for s, _ in counts), sum(f for _, f in counts)
    )


def _resilience_options(
    *,
    max_retries: int | None = None,
    shard_timeout: float | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = True,
) -> ResilienceOptions:
    """The run's options from a Monte Carlo entry point's keywords, built
    before any shard is planned or any round runs: an unknown name raises
    ``TypeError`` and a bad value ``ValueError`` on every path."""
    return ResilienceOptions(
        max_retries=ResilienceOptions.max_retries if max_retries is None else max_retries,
        shard_timeout=shard_timeout,
        checkpoint=checkpoint,
        resume=resume,
    )


def _run_sharded(
    kind: str,
    args: tuple,
    rounds: int,
    shots: int,
    seed,
    workers: int,
    num_shards: int | None,
    options: ResilienceOptions,
):
    if workers < 1:
        raise ValueError("workers must be positive")
    specs, fingerprint = _build_specs(kind, args, shots, seed, num_shards)
    run_key = physics_key = None
    if options.checkpoint is not None:
        run_key = compute_run_key(kind, args, shots, fingerprint, len(specs))
        physics_key = compute_physics_key(kind, args)
    return _pooled_result(
        _execute(specs, workers, options, run_key, physics_key), rounds
    )


def sharded_memory_experiment(
    protocol,
    code,
    rounds: int,
    shots: int,
    seed: int | np.random.SeedSequence | None = None,
    workers: int = 1,
    num_shards: int | None = None,
    *,
    max_retries: int | None = None,
    shard_timeout: float | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = True,
):
    """Shot-sharded :func:`~repro.threshold.montecarlo.memory_experiment`.

    ``workers=1`` with ``num_shards=None`` (and no checkpoint) is the
    unsharded single-process path (bit-for-bit identical to
    ``memory_experiment``); any explicit ``num_shards`` activates the
    sharded plan, executed in-process when ``workers=1`` and across
    spawned processes otherwise — with identical pooled counts either way.

    Resilience knobs (see :class:`repro.threshold.runtime.ResilienceOptions`):
    ``max_retries`` bounds shard retries before a shard falls back to
    in-process execution, and ``shard_timeout`` declares a running shard
    hung.

    ``checkpoint=`` names the sqlite **result cache**: the store is
    consulted by content-addressed run key *before* computing — a repeated
    identical run replays its pooled counts from disk without creating a
    worker pool, a partial run resumes re-executing only unfinished
    shards, and every finished shard commits immediately (crash-safe).
    Rows failing checksum/plan validation are quarantined
    (``CacheCorrupt``) and recomputed; storage faults degrade the run to
    uncheckpointed execution (``JournalDegraded``) instead of killing it.
    ``resume=False`` clears this run's rows first.  Completed runs over
    the same physics pool across seeds via
    :meth:`repro.threshold.journal.CheckpointJournal.pooled_physics_counts`.
    """
    from repro.threshold.montecarlo import memory_experiment

    return memory_experiment(
        protocol, code, rounds, shots, seed, workers, num_shards,
        max_retries=max_retries, shard_timeout=shard_timeout,
        checkpoint=checkpoint, resume=resume,
    )


def sharded_code_capacity_memory(
    code,
    eps: float,
    rounds: int,
    shots: int,
    seed: int | np.random.SeedSequence | None = None,
    workers: int = 1,
    num_shards: int | None = None,
    *,
    max_retries: int | None = None,
    shard_timeout: float | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = True,
):
    """Shot-sharded :func:`~repro.threshold.montecarlo.code_capacity_memory`.

    Same contract, resilience knobs, and result-cache semantics as
    :func:`sharded_memory_experiment`.
    """
    from repro.threshold.montecarlo import code_capacity_memory

    return code_capacity_memory(
        code, eps, rounds, shots, seed, workers, num_shards,
        max_retries=max_retries, shard_timeout=shard_timeout,
        checkpoint=checkpoint, resume=resume,
    )
