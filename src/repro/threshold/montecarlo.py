"""Monte Carlo threshold experiments (paper §5).

Direct stochastic simulation of the EC protocols with the Pauli-frame
engine: repeated-round memory experiments, the quadratic level-1 fit
p_round = A·ε² that instantiates Eq. (33)'s coefficient, and the
pseudo-threshold crossing where encoding stops helping.

Every entry point takes a ``workers`` count: ``workers=1`` is the exact
single-process path, ``workers>1`` shards shots across spawned processes
via :mod:`repro.threshold.sharded` (pooled counts are invariant under the
worker count).  The resilience keywords (``max_retries``,
``shard_timeout``, ``checkpoint``, ``resume``) are checked at the entry
on both paths, before any round runs, by
``sharded._resilience_options``; ``checkpoint`` also routes a
``workers=1`` call through the sharded path, since journaling needs a
shard plan.  Grid scans derive one independent child stream per grid
point from ``np.random.SeedSequence(seed).spawn`` — the same plumbing
:mod:`repro.threshold.sharded` uses per shard — so scans with nearby
integer seeds never share streams.  A sharded grid scan runs as one batch
of runs, one per point, with one journal connection: point i's shards
run while point i+1 is built, and each point's counts equal those of a
lone ``memory_experiment`` call on its child stream.

One function runs the EC rounds, :func:`_run_plan`: ``rounds`` rounds and
the final count over a plan of segments, each a shot count on its own
stream.  An unsharded ``memory_experiment`` is a plan of one segment, and
a worker runs each task (consecutive shards of one run) as one plan, so
the round's fixed work is paid once per task while every segment counts
what a lone call on its stream counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.codes.stabilizer_code import StabilizerCode
from repro.pauliframe.compiled import LanePlan
from repro.pauliframe.packing import WORD_BITS, pack_shot_major
from repro.threshold.runtime import _check_count
from repro.threshold.sharded import (
    _resilience_options,
    _run_batch,
    _run_sharded,
    spawn_shard_seeds,
)
from repro.util.rng import as_rng
from repro.util.stats import binomial_confidence, fit_power_law, logical_error_per_round

__all__ = [
    "MemoryResult",
    "PseudoThresholdNotBracketed",
    "PseudoThresholdWarning",
    "code_capacity_memory",
    "crossing_from_curve",
    "memory_experiment",
    "fit_level1_coefficient",
    "pseudo_threshold",
]


@dataclass
class MemoryResult:
    """Outcome of a repeated-EC memory experiment.

    Attributes
    ----------
    rounds: EC rounds simulated.
    shots: Monte Carlo samples.
    failures: shots whose final ideal decode shows any logical action.
    failure_rate / low / high: estimate with Wilson 95% bounds.
    per_round_rate: 1 − (1 − p)^(1/rounds) conversion.
    """

    rounds: int
    shots: int
    failures: int
    failure_rate: float
    low: float
    high: float
    per_round_rate: float

    @classmethod
    def from_counts(cls, rounds: int, shots: int, failures: int) -> "MemoryResult":
        """The estimate, Wilson bounds and per-round rate of a count."""
        est, low, high = binomial_confidence(failures, shots)
        return cls(rounds, shots, failures, est, low, high, logical_error_per_round(est, rounds))


class PseudoThresholdWarning(UserWarning):
    """A pseudo-threshold grid never bracketed the crossing."""


class PseudoThresholdNotBracketed(RuntimeError):
    """Raised (in ``on_unbracketed="raise"`` mode) when no grid pair
    brackets the p(ε) = ε crossing; carries the measured ``curve``."""

    def __init__(self, message: str, curve: list[tuple[float, float]]) -> None:
        super().__init__(message)
        self.curve = curve


def _check_run_size(shots: int, rounds: int, workers: int, num_shards: int | None) -> None:
    """Reject a run size that is not a positive integer at the entry point,
    before any shard is planned or any round runs: inside a shard a bad
    size would look like a worker fault and be retried, and unsharded a
    float dies in NumPy while ``True`` runs as one shot.  Python and NumPy
    integers pass; ``bool`` does not."""
    sizes = {"shots": shots, "rounds": rounds, "workers": workers}
    if num_shards is not None:
        sizes["num_shards"] = num_shards
    for name, value in sizes.items():
        _check_count(name, value)


def _check_data_block(protocol, code: StabilizerCode) -> None:
    """Reject a protocol whose data block is not the judged code's before
    any round or shard runs: the mismatch would otherwise surface only in
    the ideal decode after the last round, and inside a shard as a worker
    fault that is retried and degraded."""
    n = getattr(protocol, "data_qubits", code.n)
    if n != code.n:
        raise ValueError(f"protocol acts on {n} data qubits but the code has n = {code.n}")


def _check_rate(eps: float) -> None:
    """Reject a depolarizing rate outside [0, 1] (NaN included) before any
    shard is planned: the sampler would not fail on one, it would return a
    silently wrong count."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")


def _count_failures(
    code: StabilizerCode, fx: np.ndarray, fz: np.ndarray, plan: LanePlan
) -> list[int]:
    """Each segment's shots whose packed ``(n, words)`` residual frames
    fail the ideal decode, counted by popcount over the segment's live
    lanes only: lanes past a segment's shots in its last word may hold
    simulated junk."""
    failed = code.logical_failure_plane(fx, fz)
    at = plan.word_bounds
    tails = np.array(plan.sizes, dtype=np.uint64) % np.uint64(WORD_BITS)
    last = at[1:][tails > 0] - 1
    failed[last] &= (np.uint64(1) << tails[tails > 0]) - np.uint64(1)
    return np.add.reduceat(np.bitwise_count(failed), at[:-1], dtype=np.int64).tolist()


def _run_plan(
    protocol, code: StabilizerCode, rounds: int, sizes: list[int], seeds: list
) -> list[int]:
    """``rounds`` EC rounds and the ideal decode over a plan of segments,
    segment ``j`` of ``sizes[j]`` shots on the stream of ``seeds[j]``;
    returns each segment's failures, exactly as a lone call on that
    segment counts them.

    Protocols exposing the packed entry (``run_round_packed`` on a
    compiled engine) run every segment in one round
    (:class:`~repro.pauliframe.compiled.LanePlan`): the data frames stay
    bit-packed for the whole round loop, one pair of ``(n, words)`` uint64
    buffers allocated up front and carried across rounds.  Any other
    protocol runs its segments one after another, and its frames are
    packed once to share the final count.
    """
    rngs = [as_rng(seed) for seed in seeds]
    if getattr(protocol, "engine", None) == "compiled" and hasattr(
        protocol, "run_round_packed"
    ):
        plan = LanePlan(tuple(sizes))
        dfx = np.zeros((code.n, plan.words), dtype=np.uint64)
        dfz = np.zeros((code.n, plan.words), dtype=np.uint64)
        for _ in range(rounds):
            protocol.run_round_packed(plan, rngs, dfx, dfz)
        return _count_failures(code, dfx, dfz, plan)
    failures = []
    for shots, rng in zip(sizes, rngs):
        fx = fz = None
        for _ in range(rounds):
            fx, fz = protocol.run_round(shots, rng, data_fx=fx, data_fz=fz)
        failures += _count_failures(
            code, pack_shot_major(fx), pack_shot_major(fz), LanePlan((shots,))
        )
    return failures


def code_capacity_memory(
    code: StabilizerCode,
    eps: float,
    rounds: int,
    shots: int,
    seed: int | np.random.Generator | np.random.SeedSequence | None = None,
    workers: int = 1,
    num_shards: int | None = None,
    **resilience,
) -> MemoryResult:
    """§2's setting: storage depolarizing noise + *flawless* recovery.

    Each round every qubit depolarizes with probability ε, then an ideal
    decoder corrects; failure = accumulated logical action.  Reproduces the
    F = 1 − O(ε²) claim (Eq. 14) against the unencoded 1 − ε baseline.

    ``**resilience`` (``max_retries``, ``shard_timeout``, ``checkpoint``,
    ``resume``) configures the sharded run; passing ``checkpoint``
    shards even at ``workers=1`` (in-process sharded execution —
    journaling needs a shard plan).
    """
    _check_run_size(shots, rounds, workers, num_shards)
    _check_rate(eps)
    options = _resilience_options(**resilience)
    if workers != 1 or num_shards is not None or options.checkpoint is not None:
        return _run_sharded(
            "capacity", (code, eps, rounds), rounds, shots, seed, workers,
            num_shards, options,
        )
    rng = as_rng(seed)
    n = code.n
    fx = np.zeros((shots, n), dtype=np.uint8)
    fz = np.zeros((shots, n), dtype=np.uint8)
    logical_fx = np.zeros(shots, dtype=np.uint8)
    logical_fz = np.zeros(shots, dtype=np.uint8)
    for _ in range(rounds):
        hit = rng.random((shots, n)) < eps
        kind = rng.integers(0, 3, size=(shots, n))
        fx ^= (hit & (kind != 2)).astype(np.uint8)
        fz ^= (hit & (kind != 0)).astype(np.uint8)
        fx, fz = code.correct_frame(fx, fz)
        action = code.logical_action_of_frame(fx, fz)
        # Ideal recovery returns the state to the code space; any logical
        # component is absorbed into the running logical frame.
        logical_fx ^= action[:, 0]
        logical_fz ^= action[:, 1]
        fx[:] = 0
        fz[:] = 0
    return MemoryResult.from_counts(rounds, shots, int((logical_fx | logical_fz).sum()))


def memory_experiment(
    protocol,
    code: StabilizerCode,
    rounds: int,
    shots: int,
    seed: int | np.random.Generator | np.random.SeedSequence | None = None,
    workers: int = 1,
    num_shards: int | None = None,
    **resilience,
) -> MemoryResult:
    """Circuit-level memory: ``rounds`` noisy EC rounds, then ideal decode.

    ``protocol`` is a :class:`repro.ft.SteaneECProtocol`-like object with
    ``run_round(shots, seed, data_fx, data_fz)``.  An unsharded call is a
    plan of one segment (:func:`_run_plan`): protocols exposing the packed
    entry keep the data frames bit-packed for the whole round loop.

    ``workers>1`` (or an explicit ``num_shards``) shards the shots across
    processes; see :mod:`repro.threshold.sharded`.  ``**resilience``
    (``max_retries``, ``shard_timeout``, ``checkpoint``, ``resume``)
    configures the sharded run; ``checkpoint`` shards even at
    ``workers=1``.  A checkpoint names the sqlite result cache: a repeated
    identical run replays its counts from disk without creating a worker
    pool, a partial one resumes only its unfinished shards, rows failing
    validation are quarantined (``CacheCorrupt``) and recomputed, and
    storage faults degrade the run to uncheckpointed execution
    (``JournalDegraded``).

    After the last round the ideal decode runs on packed planes
    (:meth:`~repro.codes.StabilizerCode.logical_failure_plane`) and
    failures are counted by popcount.
    """
    _check_run_size(shots, rounds, workers, num_shards)
    _check_data_block(protocol, code)
    options = _resilience_options(**resilience)
    if workers != 1 or num_shards is not None or options.checkpoint is not None:
        return _run_sharded(
            "memory", (protocol, code, rounds), rounds, shots, seed, workers,
            num_shards, options,
        )
    (failures,) = _run_plan(protocol, code, rounds, [shots], [seed])
    return MemoryResult.from_counts(rounds, shots, failures)


def _one_round_rates(
    protocol_factory: Callable[[float], object],
    code: StabilizerCode,
    eps_grid: np.ndarray,
    shots: int,
    seed: int,
    workers: int,
    num_shards: int | None,
    resilience: dict,
) -> list[float]:
    """One-round failure rate at each grid point, floored at 10⁻¹² so a
    point without failures stays on a log scale.  Each point runs on its
    own child stream of ``seed`` (never ``seed + i``).

    A sharded scan is one batch (:func:`~repro.threshold.sharded._run_batch`):
    each point is built, planned and keyed as the batch draws it, and its
    shards run while the next point is built.  Each point keeps the shard
    plan, payload and run key a lone ``memory_experiment`` call gives it.
    An unsharded scan calls ``memory_experiment`` per point."""
    point_seeds = spawn_shard_seeds(seed, len(eps_grid))
    _check_run_size(shots, 1, workers, num_shards)
    options = _resilience_options(**resilience)
    if workers != 1 or num_shards is not None or options.checkpoint is not None:

        def points():
            for eps, point_seed in zip(eps_grid, point_seeds):
                protocol = protocol_factory(float(eps))
                _check_data_block(protocol, code)
                yield (protocol, code, 1), point_seed

        results = _run_batch("memory", points(), 1, shots, workers, num_shards, options)
    else:
        results = [
            memory_experiment(protocol_factory(float(eps)), code, rounds=1, shots=shots, seed=s)
            for eps, s in zip(eps_grid, point_seeds)
        ]
    return [max(result.failure_rate, 1e-12) for result in results]


def fit_level1_coefficient(
    protocol_factory: Callable[[float], object],
    code: StabilizerCode,
    eps_grid: np.ndarray,
    shots: int = 20_000,
    seed: int = 0,
    workers: int = 1,
    num_shards: int | None = None,
    **resilience,
) -> tuple[float, float]:
    """Fit p_round = A·ε^k on a grid of physical rates.

    Returns ``(A, k)``; fault tolerance demands k ≈ 2 (Eq. 33's quadratic
    suppression), and 1/A is the level-1 pseudo-threshold estimate.

    ``**resilience`` applies to every grid point; with ``checkpoint=``
    set, each point journals under its own content-addressed run key (the
    protocol embeds ε), so a killed scan resumes mid-grid.  A sharded scan
    runs as one batch (see :func:`_one_round_rates`).
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    rates = _one_round_rates(
        protocol_factory, code, eps_grid, shots, seed, workers, num_shards, resilience
    )
    return fit_power_law(eps_grid, np.asarray(rates))


def crossing_from_curve(curve: list[tuple[float, float]]) -> float:
    """Crossing of p(ε) = ε from a measured ``[(ε, p), ...]`` curve.

    An exact crossing *at* a grid point (p == ε) is returned as that grid
    point; otherwise the first sign change of p(ε) − ε is log-linearly
    interpolated.  Returns NaN when no grid pair brackets a crossing —
    callers decide whether that warns or raises.
    """
    residuals = [p - e for e, p in curve]
    prev_nonzero = None
    for i, f1 in enumerate(residuals):
        if f1 == 0.0:
            # Exact crossing at a grid point — the old `f1 < 0 <= f2` scan
            # skipped this pair and the next one could no longer bracket.
            # It only counts as a crossing on a genuine below→above
            # transition: a lucky Monte Carlo touch inside an all-above
            # curve is not a pseudo-threshold.
            nxt = next((g for g in residuals[i + 1 :] if g != 0.0), None)
            if (prev_nonzero is not None and prev_nonzero < 0.0) or (
                prev_nonzero is None and nxt is not None and nxt > 0.0
            ):
                return float(curve[i][0])
            continue
        if i > 0 and residuals[i - 1] < 0.0 < f1:
            # Log-linear interpolation of the sign change of p(ε) − ε.
            (e1, _), (e2, _) = curve[i - 1], curve[i]
            t = residuals[i - 1] / (residuals[i - 1] - f1)
            return float(np.exp(np.log(e1) + t * (np.log(e2) - np.log(e1))))
        prev_nonzero = f1
    return float("nan")


def pseudo_threshold(
    protocol_factory: Callable[[float], object],
    code: StabilizerCode,
    eps_grid: np.ndarray,
    shots: int = 20_000,
    seed: int = 0,
    workers: int = 1,
    on_unbracketed: str = "warn",
    num_shards: int | None = None,
    **resilience,
) -> tuple[float, list[tuple[float, float]]]:
    """Crossing point where the encoded per-round failure equals ε.

    Below the crossing, one level of encoding *helps* (p_L1 < ε); above it
    coding "will make things worse instead of better" (§5).  Returns the
    log-interpolated crossing and the (ε, p_L1) curve.  When no grid pair
    brackets a crossing, ``on_unbracketed="warn"`` (default) emits a
    :class:`PseudoThresholdWarning` and returns NaN with the curve;
    ``"raise"`` raises :class:`PseudoThresholdNotBracketed` with the curve
    attached.

    ``**resilience`` applies to every grid point; with ``checkpoint=``
    set, a killed scan resumes mid-grid (each point has its own run key).
    A sharded scan runs as one batch (see :func:`_one_round_rates`).
    """
    if on_unbracketed not in ("warn", "raise"):
        raise ValueError("on_unbracketed must be 'warn' or 'raise'")
    eps_grid = np.asarray(sorted(eps_grid), dtype=float)
    rates = _one_round_rates(
        protocol_factory, code, eps_grid, shots, seed, workers, num_shards, resilience
    )
    curve = [(float(eps), rate) for eps, rate in zip(eps_grid, rates)]
    crossing = crossing_from_curve(curve)
    if np.isnan(crossing):
        message = (
            "pseudo-threshold grid never brackets the p(eps) = eps crossing; "
            f"widen the grid or raise the shot count; curve = {curve}"
        )
        if on_unbracketed == "raise":
            raise PseudoThresholdNotBracketed(message, curve)
        warnings.warn(message, PseudoThresholdWarning, stacklevel=2)
    return crossing, curve
