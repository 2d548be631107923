"""One benchmark workload, run as a child process of ``perfbench/run.py``.

    python3 perfbench/workloads.py --workload steane_memory --seed 1 \\
        --seconds 10 --trace 0 --scratch DIR --result FILE [--setup-only] [--tiny]

run.py puts the checkout's ``src`` on ``PYTHONPATH`` and reaps every process
this one leaves behind.  The result file holds the monotonic time at which
set-up ended, the operations attempted and failed, the measured values by
metric name, and the environment stamp.

Spawned pool workers re-import this file as ``__mp_main__``: nothing runs
outside the ``__main__`` guard, and the library is imported inside
:func:`run` so that its import time can be measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import socket
import statistics
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from proctree import descendants, peak_rss_mib
from tracing import Tracer

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

EPS = 1e-3  # circuit-level noise of the two memory workloads
GRID = (5e-5, 1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3)  # E08's Monte Carlo grid
SHARDS = 16  # the sharded driver's default plan
# Agreement bound against the legacy-engine reference, in standard
# deviations: wide enough to hold at any seed, narrow enough that a decoder
# that stops correcting or noise that stops firing fails every call.
Z_MAX = 7.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """``kind="memory"`` times one ``memory_experiment`` per call;
    ``kind="scan"`` times one ``pseudo_threshold`` over :data:`GRID`, and
    ``shots`` is then per grid point."""

    kind: str
    protocol: str  # "steane" or "shor"
    shots: int
    rounds: int
    workers: int = 1
    tiny_shots: int = 0  # shots under --tiny (the self-tests)


WORKLOADS = {
    "steane_memory": Workload("memory", "steane", 100_000, 10, tiny_shots=2_000),
    "shor_memory": Workload("memory", "shor", 50_000, 10, tiny_shots=1_000),
    "threshold_scan": Workload("scan", "steane", 1_000_000, 1, workers=2, tiny_shots=20_000),
}

# Span layer -> per-layer metric of its self seconds per traced call.
LAYER_SECONDS = {
    "pauliframe.sample": "pauliframe.sample_s",
    "pauliframe.propagate": "pauliframe.propagate_s",
    "ft.decode": "ft.decode_s",
    "ft.glue": "ft.glue_s",
    "threshold.finalize": "threshold.finalize_s",
    "journal.open": "journal.open_s",
    "journal.commit": "journal.commit_s",
    "journal.close": "journal.close_s",
}
# Per-layer metric of a share of traced wall time -> the span layers it sums.
LAYER_SHARES = {
    "pauliframe.compile_share": ("pauliframe.compile",),
    "pauliframe.sample_share": ("pauliframe.sample",),
    "pauliframe.propagate_share": ("pauliframe.propagate",),
    "ft.decode_share": ("ft.decode",),
    "ft.glue_share": ("ft.glue",),
    "threshold.finalize_share": ("threshold.finalize",),
    "journal.share": ("journal.open", "journal.commit", "journal.close"),
}


def layer_points() -> list[tuple[str, object, str]]:
    """The library entry points the traced run wraps, by layer."""
    from repro.ft import exrec, shor_ec, steane_ec
    from repro.pauliframe.compiled import CompiledFrameProgram
    from repro.threshold import montecarlo
    from repro.threshold.journal import CheckpointJournal

    return [
        ("pauliframe.compile", CompiledFrameProgram, "__init__"),
        ("pauliframe.sample", CompiledFrameProgram, "_sample_planes"),
        ("pauliframe.propagate", CompiledFrameProgram, "_execute"),
        ("ft.decode", steane_ec.SteaneAncillaPrep, "parse_packed"),
        ("ft.decode", steane_ec.SteaneSyndromeExtraction, "parse_syndromes_packed"),
        ("ft.decode", exrec.SteaneECProtocol, "_corrections_packed"),
        ("ft.decode", shor_ec.ShorSyndromeExtraction, "parse_syndromes"),
        ("ft.decode", exrec.ShorECProtocol, "_corrections"),
        ("ft.glue", exrec.SteaneECProtocol, "run_round_packed"),
        ("ft.glue", exrec.ShorECProtocol, "run_round_packed"),
        ("ft.glue", exrec.ShorECProtocol, "_cat_batch_packed"),
        ("threshold.finalize", montecarlo, "memory_experiment"),
        ("journal.open", CheckpointJournal, "__init__"),
        ("journal.commit", CheckpointJournal, "record_shard"),
        ("journal.close", CheckpointJournal, "close"),
    ]


def build_protocol(protocol: str, eps: float, engine: str = "compiled"):
    from repro.codes import SteaneCode
    from repro.ft import ShorECProtocol, SteaneECProtocol
    from repro.noise import circuit_level

    if protocol == "steane":
        return SteaneECProtocol(circuit_level(eps), engine=engine)
    return ShorECProtocol(SteaneCode(), circuit_level(eps), engine=engine)


def compiled_programs(protocol) -> list:
    """The distinct compiled programs a protocol holds."""
    from repro.pauliframe.compiled import CompiledFrameProgram

    found = {}
    for value in vars(protocol).values():
        for item in value.values() if isinstance(value, dict) else (value,):
            if isinstance(item, CompiledFrameProgram):
                found[id(item)] = item
    return list(found.values())


def derive_seed(seed: int, *path: int) -> int:
    """Independent 32-bit seed for one call, derived from the workload seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def agrees(failures: int, shots: int, ref_failures: int, ref_shots: int) -> bool:
    """Two-proportion check of a failure count against the reference.

    Given the pooled count ``k``, equal rates make ``failures`` binomial in
    ``k`` with success probability ``shots / (shots + ref_shots)``; the
    count agrees when it lies within :data:`Z_MAX` standard deviations of
    that mean, after a continuity correction.
    """
    k = failures + ref_failures
    q = shots / (shots + ref_shots)
    return abs(failures - k * q) - 0.5 <= Z_MAX * math.sqrt(k * q * (1.0 - q))


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "host": f"{socket.gethostname()}|{len(os.sched_getaffinity(0))}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def upper_decile(values: list[float]) -> float:
    """90th percentile of per-call throughput.

    On a shared host, neighbours slow every call by up to a third for
    stretches of seconds to minutes.  A run's median follows whichever state
    held most of the run; the upper decile follows the calls the code ran
    outside those stretches, so runs agree far more closely.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def timed_calls(seconds: float, minimum: int = 1):
    """Call indices until ``seconds`` have passed and ``minimum`` ran."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < minimum or time.perf_counter() < deadline:
        yield i
        i += 1


class Measurement:
    """What one workload run accumulates."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.rates: list[float] = []  # shot-rounds/s of each untraced timed call
        self.untraced_walls: list[float] = []  # untraced twins of the traced calls
        self.traced: list[dict[str, float]] = []  # per traced call: metric -> value
        self.values: dict[str, float] = {}  # per-layer values measured once
        self.failures: int | None = None  # logical failures of the first call

    def operation(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def raised(self, operations: int = 1) -> None:
        traceback.print_exc()
        for _ in range(operations):
            self.operation(False)

    def setup_trace(self, build) -> object:
        """Build a protocol under the tracer: compile time and instructions."""
        start = len(self.tracer.spans)
        with self.tracer.active():
            protocol = build()
        self_time, _, _ = self.tracer.profile(start)
        self.values["pauliframe.compile_s"] = self_time.get("pauliframe.compile", 0.0)
        self.values["pauliframe.instructions"] = sum(
            len(p._instructions) for p in compiled_programs(protocol)
        )
        return protocol

    def record_traced(self, start: int, wall: float) -> None:
        self_time, calls, covered = self.tracer.profile(start)
        record = {m: self_time.get(layer, 0.0) for layer, m in LAYER_SECONDS.items()}
        for metric, layers in LAYER_SHARES.items():
            record[metric] = sum(self_time.get(layer, 0.0) for layer in layers) / wall
        record["trace.unattributed_frac"] = 1.0 - covered / wall
        record["journal.rows"] = calls["journal.commit"]
        record["wall"] = wall
        self.traced.append(record)


def _memory(w: Workload, ref: dict, seed: int, seconds: float, trace: bool,
            setup_only: bool, m: Measurement) -> float:
    from repro.codes import SteaneCode
    from repro.threshold import montecarlo

    code = SteaneCode()
    build = lambda: build_protocol(w.protocol, EPS)  # noqa: E731
    protocol = m.setup_trace(build) if trace else build()
    # Warm-up at full size allocates the protocol's packed buffers.
    montecarlo.memory_experiment(protocol, code, rounds=1, shots=w.shots, seed=derive_seed(seed, 1))
    ready = time.monotonic()
    if setup_only:
        return ready
    m.values.update({"sharded.pool_start_s": 0.0, "sharded.spec_bytes": 0,
                     "sharded.speedup": 0.0, "journal.replay_s": 0.0})
    # In the traced run, untraced and traced calls alternate so that both
    # see the same machine state; only untraced calls give throughput.
    for i in timed_calls(seconds, minimum=2 if trace else 1):
        traced = trace and i % 2 == 1
        start = len(m.tracer.spans)
        try:
            with m.tracer.active() if traced else nullcontext():
                t0 = time.perf_counter()
                res = montecarlo.memory_experiment(
                    protocol, code, rounds=w.rounds, shots=w.shots, seed=derive_seed(seed, 0, i)
                )
                wall = time.perf_counter() - t0
        except Exception:
            m.raised()
            continue
        m.operation(res.shots == w.shots
                    and agrees(res.failures, res.shots, ref["failures"], ref["shots"]))
        if m.failures is None:
            m.failures = res.failures
        if traced:
            m.record_traced(start, wall)
        else:
            m.untraced_walls.append(wall)
            m.rates.append(w.shots * w.rounds / wall)
    return ready


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def _scan(w: Workload, ref: dict, seed: int, seconds: float, trace: bool,
          setup_only: bool, m: Measurement, scratch: Path) -> float:
    from multiprocessing.reduction import ForkingPickler

    from repro.codes import SteaneCode
    from repro.threshold import montecarlo, sharded

    code = SteaneCode()
    build = lambda: build_protocol(w.protocol, GRID[-1])  # noqa: E731
    protocol = m.setup_trace(build) if trace else build()
    # A cold tiny sharded call starts the worker pool; a warm one does not.
    tiny = dict(rounds=1, shots=64, seed=derive_seed(seed, 1), workers=w.workers,
                num_shards=w.workers)
    t0 = time.perf_counter()
    montecarlo.memory_experiment(protocol, code, **tiny)
    t1 = time.perf_counter()
    montecarlo.memory_experiment(protocol, code, **tiny)
    t2 = time.perf_counter()
    ready = time.monotonic()
    if setup_only:
        return ready
    m.values["sharded.pool_start_s"] = (t1 - t0) - (t2 - t1)
    specs, _ = sharded._build_specs("memory", (protocol, code, w.rounds), w.shots, 0, None)
    m.values["sharded.spec_bytes"] = len(ForkingPickler.dumps(specs[0]))
    ref_points = ref["points"]

    def scan(scan_seed: int, workers: int, store: Path) -> tuple[float, list[int]]:
        """One pseudo_threshold over a fresh or replayed store: wall, counts."""
        t = time.perf_counter()
        _, curve = montecarlo.pseudo_threshold(
            lambda eps: build_protocol(w.protocol, eps), code, GRID, shots=w.shots,
            seed=scan_seed, workers=workers, num_shards=SHARDS, checkpoint=store,
        )
        # The curve holds max(failures / shots, 1e-12): rounding recovers
        # the pooled counts exactly.
        return time.perf_counter() - t, [round(p * w.shots) for _, p in curve]

    replay_walls, speedups = [], []
    for i in timed_calls(seconds):
        scan_seed = derive_seed(seed, 0, i)
        stores = [scratch / f"scan-{i}-{tag}.sqlite" for tag in ("pool", "inproc", "traced")]
        try:
            wall, counts = scan(scan_seed, w.workers, stores[0])
            t = time.perf_counter()
            _, replayed = scan(scan_seed, w.workers, stores[0])
            replay_walls.append(time.perf_counter() - t)
            twins = [replayed]
            if trace:
                # Workers re-import the library unwrapped, so the engine and
                # finalize split comes from the same shard plan in-process.
                inproc_wall, inproc = scan(scan_seed, 1, stores[1])
                start = len(m.tracer.spans)
                with m.tracer.active():
                    traced_wall, traced = scan(scan_seed, 1, stores[2])
                twins += [inproc, traced]
        except Exception:
            m.raised(len(GRID))
            continue
        finally:
            for store in stores:
                _remove_store(store)
        for j, point in enumerate(ref_points):
            same = all(twin[j] == counts[j] for twin in twins)
            m.operation(same and agrees(counts[j], w.shots, point["failures"], point["shots"]))
        if m.failures is None:
            m.failures = sum(counts)
        m.rates.append(len(GRID) * w.shots * w.rounds / wall)
        if trace:
            m.untraced_walls.append(inproc_wall)
            m.record_traced(start, traced_wall)
            speedups.append(inproc_wall / wall)
    if trace:
        m.values["journal.replay_s"] = statistics.median(replay_walls)
        m.values["sharded.speedup"] = statistics.median(speedups)
    return ready


def run(name: str, w: Workload, seed: int, seconds: float, trace: bool,
        setup_only: bool, scratch: Path) -> dict:
    import numpy  # noqa: F401  -- numpy's own import is not the library's

    t0 = time.perf_counter()
    import repro.ft  # noqa: F401
    import repro.threshold  # noqa: F401

    import_s = time.perf_counter() - t0
    ref = json.loads(REFERENCE_PATH.read_text())[name]
    m = Measurement(Tracer(layer_points()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if w.kind == "memory":
            ready = _memory(w, ref, seed, seconds, trace, setup_only, m)
        else:
            ready = _scan(w, ref, seed, seconds, trace, setup_only, m, scratch)
    for message in sorted({f"{c.category.__name__}: {c.message}" for c in caught}):
        print(message, file=sys.stderr)
    if setup_only:
        return {"ready": ready}
    if trace:
        values = {
            metric: statistics.median(r[metric] for r in m.traced)
            for metric in m.traced[0] if metric != "wall"
        }
        values.update(m.values)
        categories = [c.category.__name__ for c in caught]
        values.update({
            "setup.import_s": import_s,
            "threshold.failures": m.failures,
            "sharded.degraded": categories.count("RunDegraded"),
            "journal.degraded": categories.count("JournalDegraded")
            + categories.count("CacheCorrupt"),
            "trace.overhead_frac": statistics.median(r["wall"] for r in m.traced)
            / statistics.median(m.untraced_walls) - 1.0,
            "failed_frac": m.failed / m.attempted,
        })
    else:
        values = {
            "shot_rounds_per_s": upper_decile(m.rates),
            # Pool workers are still alive here: the runtime caches its pool.
            "peak_rss_mb": peak_rss_mib([os.getpid(), *descendants(os.getpid())]),
        }
    return {"ready": ready, "attempted": m.attempted, "failed": m.failed,
            "values": values, "env": environment(seed)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = replace(w, shots=w.tiny_shots)
    result = run(args.workload, w, args.seed, args.seconds, bool(args.trace),
                 args.setup_only, args.scratch)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
