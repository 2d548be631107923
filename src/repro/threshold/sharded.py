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
found it.  A run's ``args`` (protocol, code, rounds) are pickled once, in
:func:`_build_specs`, and every shard spec carries the same bytes, so
protocols must be picklable (the compiled programs, codes, and noise
models all are).  Each process keeps the last payload it unpickled
(:func:`_shard_args`): a worker's later shards of the run reuse that
protocol together with its warm packed buffers, and
:func:`~repro.threshold.runtime.execute_shards` drops the calling
process's copy when it returns.  Run keys hash the caller's ``args``,
not the payload, so a run's key does not depend on how it is shipped.
"""

from __future__ import annotations

import pickle
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


def _check_count(name: str, value: int) -> None:
    """Reject a count that is not a positive integer: ``TypeError`` for
    anything but a Python or NumPy integer (``bool`` included), and
    ``ValueError`` below 1.  A float count would otherwise size arrays or
    split shots as floats, and ``True`` would run as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def shard_sizes(shots: int, num_shards: int | None = None) -> list[int]:
    """Deterministic shard plan: ``shots`` split into near-equal shards.

    Depends only on ``(shots, num_shards)`` so that results are invariant
    under the worker count.  The first ``shots % n`` shards are one shot
    larger; no shard is empty.
    """
    n = DEFAULT_NUM_SHARDS if num_shards is None else num_shards
    _check_count("shots", shots)
    _check_count("num_shards", n)
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
# The last payload this process unpickled, and its args.  One entry is
# enough: a worker receives a run's shards together.
_args_cache: tuple[bytes, tuple] | None = None


def _shard_args(payload: bytes) -> tuple:
    """The run args that ``payload`` pickles, from the cache when it holds
    equal bytes, so a worker's later shards of a run reuse its protocol
    with warm packed buffers (each round overwrites them).  Any other
    payload releases the cached args before it is unpickled, so a process
    never holds two runs' protocols."""
    global _args_cache
    cached = _args_cache  # one read: another thread may release the entry
    if cached is not None and cached[0] == payload:
        return cached[1]
    _args_cache = cached = None  # both references, or the old args outlive the unpickle
    args = pickle.loads(payload)
    _args_cache = (payload, args)
    return args


def _forget_args() -> None:
    """Release the cached args: ``execute_shards`` calls this as a run
    ends, so the calling process keeps no copy."""
    global _args_cache
    _args_cache = None


def _run_shard(spec: tuple) -> tuple[int, int]:
    """Run one shard; returns ``(shots, failures)`` for pooling."""
    kind, payload, shard_shots, seed_seq = spec
    from repro.threshold.montecarlo import code_capacity_memory, memory_experiment

    args = _shard_args(payload)
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
    """Shard specs ``(kind, payload, shard_shots, seed_seq)`` plus the seed
    fingerprint for run-key computation.

    ``args`` are pickled once here, and every spec holds the same
    ``payload`` bytes: the pool ships bytes per shard instead of pickling
    the protocol again, and a worker unpickles each run once
    (:func:`_shard_args`).  ``seed=None`` is materialized into a
    fresh-entropy ``SeedSequence`` here so even an OS-seeded run has a
    *knowable* identity — its run key simply never matches a previous
    run's (an irreproducible run is, correctly, never resumed).
    """
    sizes = shard_sizes(shots, num_shards)
    if seed is None:
        seed = np.random.SeedSequence()
    seeds = spawn_shard_seeds(seed, len(sizes))
    payload = pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
    specs = [(kind, payload, size, ss) for size, ss in zip(sizes, seeds)]
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
