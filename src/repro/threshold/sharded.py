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
* ``workers=1`` with the default ``num_shards=None`` and no checkpoint
  never reaches this module: the entry points run such a call unsharded,
  in-process.
* Because each shard is a **pure function of its spec**, the resilient
  runtime's retries, degradations, and journal resumes are bit-for-bit
  identical to a clean run — faults can cost time, never correctness.
* Workers run **tasks**, consecutive pending shards of one run
  (:func:`task_groups`), as one round over a lane plan: each shard keeps
  its own stream, makes exactly the RNG calls it makes alone and counts
  its own failures, so a task changes how long a run takes, never its
  counts, journal rows, run key or shard plan.  A task holds at most
  :data:`TASK_SHOTS` shots and each worker gets at least one.

A Monte Carlo run has one path: ``memory_experiment`` (or
``code_capacity_memory``) builds the run's
:class:`~repro.threshold.runtime.ResilienceOptions` here
(:func:`_resilience_options`) and hands any sharded call to
:func:`_run_sharded`, a batch of one.  A sharded grid scan hands every
grid point to :func:`_run_batch` as one batch.  The batch plans each run
as it is drawn and passes it to
:func:`repro.threshold.runtime.execute_batch`, which submits that run's
shards before the next run is built.  The runtime supervises them
(per-task timeouts of ``shard_timeout`` per shard, bounded retry with
backoff, pool replacement on ``BrokenProcessPool``, in-process
degradation) and, with ``checkpoint=``,
journals them in :class:`repro.threshold.journal.CheckpointJournal`, one
connection per batch, each run under its own content-addressed run key:
the store is consulted *before* computing, so a repeated identical run
replays its pooled counts without spawning a pool, a killed scan resumes
from disk re-executing only each point's unfinished shards, and
corrupted rows are quarantined and recomputed rather than replayed.  The
four resilience knobs (``max_retries``, ``shard_timeout``,
``checkpoint``, ``resume``) are keyword arguments of both entry points and
are threaded through every grid scan.

Workers are spawned (``multiprocessing`` spawn context, the portable and
thread-safe choice); spawn's preparation data carries the parent's
``sys.path``, so each worker re-imports ``repro`` wherever the parent
found it.  A run's ``args`` (protocol, code, rounds) are pickled once, in
:func:`_build_specs`, and every shard spec carries the same bytes.  A
protocol pickles only its constructor arguments and is rebuilt through
its constructor in the worker, so the payload holds the run's inputs and
nothing a round leaves behind: it round-trips byte for byte, and the run
key hashes it (:func:`~repro.threshold.journal.compute_run_key`).  A
task's specs share one payload object, so its message carries the bytes
once.  Each process keeps the last payload it unpickled
(:func:`_shard_args`): a worker's later tasks of the run reuse that
protocol, every protocol of its shape shares warm packed buffers, and
:func:`~repro.threshold.runtime.execute_batch` drops the calling
process's copy when it returns.
"""

from __future__ import annotations

import pickle
import warnings
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.threshold.journal import compute_run_key
from repro.threshold.runtime import ResilienceOptions, _check_count, execute_batch

__all__ = ["DEFAULT_NUM_SHARDS", "TASK_SHOTS", "shard_sizes", "spawn_shard_seeds", "task_groups"]

# Fixed default so the shard plan — and hence the pooled result — does not
# depend on how many workers happen to execute it.  16 keeps shards large
# enough for the packed engine while feeding up to 16 cores; runs with more
# workers than shards warn and should pass num_shards explicitly.
DEFAULT_NUM_SHARDS = 16

# Shots one task may hold (:func:`task_groups`).  Memory bounds it: a
# process running one-round Steane-EC calls peaks at about 46 MiB at 62.5k
# shots, 51 at 125k, 61 at 250k and 81 at 500k, so tasks of two 62.5k-shot
# shards add about 7% to a two-worker scan's resident memory, and tasks of
# four would add about 19%.
TASK_SHOTS = 2**17

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
    n = DEFAULT_NUM_SHARDS if num_shards is None else num_shards
    _check_count("shots", shots)
    _check_count("num_shards", n)
    n = min(n, shots)
    base, rem = divmod(shots, n)
    return [base + 1 if i < rem else base for i in range(n)]


def task_groups(sizes: list[int], workers: int) -> list[list[int]]:
    """A run's pending shards, of ``sizes`` shots, split into consecutive
    tasks: positions into ``sizes``, each task run as one round.

    A task holds at most ``g = max(1, min(TASK_SHOTS // max(sizes),
    ceil(len(sizes) / workers)))`` shards, so every worker gets a task and
    no task of several shards outgrows :data:`TASK_SHOTS`; the shards are
    split into ``ceil(len(sizes) / g)`` near-equal tasks, the first ones a
    shard larger.  Tasks change only how shards are run, never what each
    computes.
    """
    if not sizes:
        return []
    group = max(1, min(TASK_SHOTS // max(sizes), -(-len(sizes) // workers)))
    tasks, at = [], 0
    for length in shard_sizes(len(sizes), -(-len(sizes) // group)):
        tasks.append(list(range(at, at + length)))
        at += length
    return tasks


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
# enough: a worker receives a run's tasks together, and a batch's runs one
# after another.
_args_cache: tuple[bytes, tuple] | None = None


def _shard_args(payload: bytes) -> tuple:
    """The run args that ``payload`` pickles, from the cache when it holds
    equal bytes, so a worker's later tasks of a run reuse its protocol
    (whose shape's packed buffers stay warm across runs).  Any other
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
    """Release the cached args: ``execute_batch`` calls this as a batch
    ends, so the calling process keeps no copy."""
    global _args_cache
    _args_cache = None


def _run_task(specs: list[tuple]) -> list[tuple[int, int]]:
    """Run a task, consecutive shards of one run; returns each shard's
    ``(shots, failures)`` for pooling.

    Memory shards run as one multi-stream round
    (:func:`~repro.threshold.montecarlo._run_plan`): each keeps its own
    stream and counts its own failures, exactly as it would alone, and
    the round's fixed work is paid once.  Capacity shards run one after
    another."""
    from repro.threshold.montecarlo import _run_plan, code_capacity_memory

    kind, payload = specs[0][:2]
    sizes = [spec[2] for spec in specs]
    args = _shard_args(payload)
    if kind == "memory":
        protocol, code, rounds = args
        failures = _run_plan(protocol, code, rounds, sizes, [spec[3] for spec in specs])
    elif kind == "capacity":
        code, eps, rounds = args
        failures = [
            code_capacity_memory(code, eps, rounds, spec[2], seed=spec[3]).failures
            for spec in specs
        ]
    else:  # pragma: no cover - specs are built in this module
        raise ValueError(f"unknown shard kind {kind!r}")
    return list(zip(sizes, failures))


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
    the protocol again, a worker unpickles each run once
    (:func:`_shard_args`), and the run key hashes the same bytes.
    ``seed=None`` is materialized into a fresh-entropy ``SeedSequence``
    here so even an OS-seeded run has a *knowable* identity — its run key
    simply never matches a previous run's (an irreproducible run is,
    correctly, never resumed).
    """
    sizes = shard_sizes(shots, num_shards)
    if seed is None:
        seed = np.random.SeedSequence()
    seeds = spawn_shard_seeds(seed, len(sizes))
    payload = pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
    specs = [(kind, payload, size, ss) for size, ss in zip(sizes, seeds)]
    return specs, _seed_fingerprint(seed)


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


def _run_batch(
    kind: str,
    points: Iterable[tuple[tuple, object]],
    rounds: int,
    shots: int,
    workers: int,
    num_shards: int | None,
    options: ResilienceOptions,
) -> list:
    """Plan, execute and pool a batch of runs of one ``kind`` and size.

    ``points`` yields each run's ``(args, seed)``.  It is drawn lazily:
    each run is planned (specs, and a run key when checkpointed) as it is
    drawn and handed to :func:`execute_batch`, which submits its shards
    before the next run is built.  Each run keeps its own shard plan,
    payload and run key, and its pooled result comes from its own shards.
    """
    n = len(shard_sizes(shots, num_shards))
    if workers > n:
        warnings.warn(
            f"only {n} shards for {workers} workers — parallelism is "
            f"capped at the shard count; pass num_shards >= workers",
            stacklevel=3,
        )
        workers = n

    def runs():
        for args, seed in points:
            specs, fingerprint = _build_specs(kind, args, shots, seed, num_shards)
            run_key = None
            if options.checkpoint is not None:
                run_key = compute_run_key(kind, specs[0][1], shots, fingerprint, len(specs))
            yield specs, run_key

    return [_pooled_result(counts, rounds) for counts in execute_batch(runs(), workers, options)]


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
    """One sharded run: a batch of one."""
    return _run_batch(kind, [(args, seed)], rounds, shots, workers, num_shards, options)[0]
