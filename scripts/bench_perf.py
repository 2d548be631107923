"""Perf-trajectory harness: compiled bit-packed frame engine vs legacy.

Runs an E01-style encoded-memory experiment (Steane code, circuit-level
noise, repeated EC rounds) on both engines, records wall time and
throughput, and writes the perf datapoint to ``BENCH_pauliframe.json``.
With ``--workers N`` (N > 1) it additionally times the multiprocess
shot-sharded driver and records the parallel-scaling datapoint.  See
PERF.md for the protocol and schema.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py            # full (10k shots)
    PYTHONPATH=src python scripts/bench_perf.py --quick    # CI-sized
    PYTHONPATH=src python scripts/bench_perf.py --check    # guard only
    PYTHONPATH=src python scripts/bench_perf.py --workers 4  # + sharded run

The JSON is refused (exit 2) when the new compiled throughput regresses
more than ``REGRESSION_TOLERANCE`` against the recorded baseline, so the
file can only ratchet forward (or be updated deliberately with --force).
The guard compares like-for-like: the single-process ``compiled`` entry is
always checked against the stored single-process entry, and the sharded
entry only against a stored sharded entry with the *same* worker count —
a multi-core datapoint can never mask a single-core regression.

Since schema v5 the file keys one baseline record per
``(hostname, cpu_count)`` host — ``"vm|1cpu"`` — so a run on unlike
hardware starts its own ratchet instead of silently skipping the guard
(the v4 behavior, which left multi-core runs permanently unguarded
against the committed single-core record).  Records from v4 files are
migrated under their own host key on first load.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.codes import SteaneCode  # noqa: E402
from repro.ft import SteaneECProtocol  # noqa: E402
from repro.noise import circuit_level  # noqa: E402
from repro.threshold import memory_experiment  # noqa: E402
from repro.threshold.sharded import DEFAULT_NUM_SHARDS  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_pauliframe.json"
# v3 adds the optional cache_hit entry; v4 added a queue entry, no longer
# written; v5 keys one record per (hostname, cpu_count) host under
# "host_baselines".
SCHEMA_VERSION = 5
REGRESSION_TOLERANCE = 0.20  # refuse overwrite when >20% slower


# The sharded datapoint runs a 400x-shots workload: the single-process pass
# finishes the default 10k x 10 experiment in ~25 ms and pool startup costs
# ~0.6 s, so parallel scaling is only measurable on a workload sized in
# seconds (~9 s single-core at the default).  The factor keeps --quick runs
# proportionally small.
SHARDED_SHOT_FACTOR = 400


def _time_engine(
    engine: str, shots: int, rounds: int, eps: float, seed: int, workers: int = 1
) -> dict:
    code = SteaneCode()
    protocol = SteaneECProtocol(circuit_level(eps), engine=engine)
    # Warm-up run compiles programs and allocates packed buffers so the
    # measured pass times steady-state throughput.
    memory_experiment(protocol, code, rounds=1, shots=min(shots, 256), seed=seed)
    # The default shard plan would cap parallelism at 16 shards; size it to
    # the worker count so the recorded datapoint really used N workers.
    num_shards = None if workers == 1 else max(DEFAULT_NUM_SHARDS, workers)
    t0 = time.perf_counter()
    result = memory_experiment(
        protocol, code, rounds=rounds, shots=shots, seed=seed, workers=workers,
        num_shards=num_shards,
    )
    elapsed = time.perf_counter() - t0
    shot_rounds = shots * rounds
    record = {
        "engine": engine,
        "seconds": round(elapsed, 4),
        "shots_per_sec": round(shots / elapsed, 1),
        "shot_rounds_per_sec": round(shot_rounds / elapsed, 1),
        "failure_rate": result.failure_rate,
        "failures": result.failures,
    }
    if workers != 1:
        record["workers"] = workers
        record["shots"] = shots
        record["num_shards"] = num_shards
    return record


def _time_cache(shots: int, rounds: int, eps: float, seed: int) -> dict:
    """Time the result cache: one cold run (compute + journal every shard)
    against one warm run (full hit replayed from sqlite, no pool, no
    shards executed) of the identical experiment in a scratch store."""
    code = SteaneCode()
    protocol = SteaneECProtocol(circuit_level(eps), engine="compiled")
    memory_experiment(protocol, code, rounds=1, shots=min(shots, 256), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "bench_cache.sqlite"
        t0 = time.perf_counter()
        cold = memory_experiment(
            protocol, code, rounds=rounds, shots=shots, seed=seed,
            checkpoint=cache,
        )
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = memory_experiment(
            protocol, code, rounds=rounds, shots=shots, seed=seed,
            checkpoint=cache,
        )
        warm_s = time.perf_counter() - t0
    assert warm == cold, "cache replay diverged from the computed result"
    return {
        "miss_seconds": round(cold_s, 4),
        "hit_seconds": round(warm_s, 4),
        "hit_speedup": round(cold_s / warm_s, 1),
        "hit_shot_rounds_per_sec": round(shots * rounds / warm_s, 1),
    }


def run_benchmark(
    shots: int = 10_000,
    rounds: int = 10,
    eps: float = 1e-3,
    seed: int = 2026,
    workers: int = 1,
    cache_bench: bool = False,
) -> dict:
    """Measure both engines on the same experiment; returns the record.

    ``workers > 1`` adds a ``sharded`` entry: the same compiled experiment
    run through the multiprocess shot-sharded driver, with its scaling
    against the single-process compiled pass.  Process spawn and pickling
    overhead is included in the measured time — it is part of the protocol.
    """
    legacy = _time_engine("legacy", shots, rounds, eps, seed)
    compiled = _time_engine("compiled", shots, rounds, eps, seed)
    record = {
        "bench": "p01_frame_engine",
        "schema_version": SCHEMA_VERSION,
        "recorded_unix": int(time.time()),
        "config": {
            "experiment": "E01-style Steane encoded memory",
            "code": "steane_7_1_3",
            "noise": f"circuit_level({eps})",
            "shots": shots,
            "rounds": rounds,
            "seed": seed,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "hostname": socket.gethostname(),
        },
        "legacy": legacy,
        "compiled": compiled,
        "speedup": round(legacy["seconds"] / compiled["seconds"], 2),
    }
    if workers > 1:
        sharded = _time_engine(
            "compiled", shots * SHARDED_SHOT_FACTOR, rounds, eps, seed, workers=workers
        )
        sharded["scaling_vs_compiled"] = round(
            sharded["shot_rounds_per_sec"] / compiled["shot_rounds_per_sec"], 2
        )
        record["sharded"] = sharded
    if cache_bench:
        record["cache_hit"] = _time_cache(shots, rounds, eps, seed)
    return record


def _rate_regression(new: dict, old: dict, label: str) -> str | None:
    old_rate = old.get("shot_rounds_per_sec")
    new_rate = new.get("shot_rounds_per_sec")
    if not old_rate or not new_rate:
        return None
    if new_rate < (1.0 - REGRESSION_TOLERANCE) * old_rate:
        return (
            f"{label} throughput regressed {100 * (1 - new_rate / old_rate):.1f}% "
            f"({new_rate:.0f} vs baseline {old_rate:.0f} shot-rounds/sec); "
            f"refusing to overwrite {BENCH_PATH.name} (use --force to accept)"
        )
    return None


def _protocol_key(record: dict) -> tuple:
    config = record.get("config", {})
    return (config.get("shots"), config.get("rounds"), config.get("noise"))


def _host_key(record: dict) -> str:
    """Baseline key: one ratchet per (hostname, cpu_count) host.

    Throughput across unlike hardware says nothing about the code, so each
    host carries its own record — the fix for the v4 behavior where a core
    -count mismatch *skipped* the guard entirely, leaving every run on new
    hardware permanently unguarded against the committed record.
    """
    config = record.get("config", {})
    return f"{config.get('hostname', 'unknown')}|{config.get('cpu_count', 0)}cpu"


class BaselineFileError(ValueError):
    """The baseline file exists but is not a baseline this script reads."""


def _baseline_problem(data) -> str | None:
    """What makes parsed baseline JSON unreadable here, or ``None``."""
    if not isinstance(data, dict):
        return f"top level is a JSON {type(data).__name__}, not an object"
    version = data.get("schema_version", 0)
    if type(version) is not int or version > SCHEMA_VERSION:
        return (
            f"schema_version {version!r} is not one this script reads "
            f"(it writes {SCHEMA_VERSION})"
        )
    if "host_baselines" in data:
        hosts = data["host_baselines"]
        if not isinstance(hosts, dict) or not all(
            isinstance(r, dict) for r in hosts.values()
        ):
            return "host_baselines is not an object of host records"
    elif not isinstance(data.get("config", {}), dict):
        return "config is not an object"
    return None


def load_baselines(path: Path) -> dict[str, dict]:
    """Stored baselines as a ``host key -> record`` map.

    A v<=4 file (one bare record at the top level) is migrated under its
    own host key, so pre-existing baselines keep guarding the host that
    recorded them.  A file that is not valid JSON, has the wrong shape,
    or carries a newer ``schema_version`` raises
    :class:`BaselineFileError` naming the file and the problem; it is
    never guessed at, and so never rewritten.
    """
    if not Path(path).exists():
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        problem = f"not valid JSON ({exc})"
    else:
        problem = _baseline_problem(data)
    if problem is not None:
        raise BaselineFileError(
            f"{path}: {problem}; refusing to compare against or overwrite "
            f"it (fix or remove the file)"
        )
    if "host_baselines" in data:
        return dict(data["host_baselines"])
    return {_host_key(data): data}


def check_regression(new: dict, old: dict) -> str | None:
    """Error string when ``new`` regresses >tolerance against ``old``.

    Comparisons are strictly like-for-like: records measured under a
    different protocol (shots/rounds/noise — e.g. a --quick run against the
    full-size baseline) compare nothing, the single-process ``compiled``
    entries are always compared for same-protocol records, and ``sharded``
    entries only when both records carry one with the same ``workers`` — a
    multi-core datapoint can never mask a single-core regression.  Unlike
    *hardware* never meets here at all: baselines are keyed per
    (hostname, cpu_count) host, so a run on a new host starts a fresh
    ratchet instead of being compared against (or excused by) a record
    from different silicon.
    """
    if _protocol_key(new) != _protocol_key(old):
        return None
    err = _rate_regression(new.get("compiled", {}), old.get("compiled", {}), "compiled")
    if err:
        return err
    new_sh, old_sh = new.get("sharded", {}), old.get("sharded", {})
    if new_sh and old_sh and new_sh.get("workers") == old_sh.get("workers"):
        return _rate_regression(
            new_sh, old_sh, f"sharded (workers={new_sh.get('workers')})"
        )
    return None


def _dump_baselines(baselines: dict[str, dict], path: Path) -> None:
    payload = {
        "bench": "p01_frame_engine",
        "schema_version": SCHEMA_VERSION,
        "comment": (
            "One baseline record per (hostname, cpu_count) host; the "
            "regression guard only ever compares a run against its own "
            "host's record.  See PERF.md."
        ),
        "host_baselines": {key: baselines[key] for key in sorted(baselines)},
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def write_guarded(record: dict, path: Path = BENCH_PATH, force: bool = False) -> int:
    """Write the record unless it regresses against this host's baseline.

    Baselines are keyed per (hostname, cpu_count); only the record under
    this host's key is compared or replaced — other hosts' records always
    survive the write untouched.  A host with no stored record writes
    fresh (a new ratchet starts), never skips.  Against the same host's
    record: a different protocol (e.g. --quick vs the full-size baseline)
    is refused rather than silently replacing it, a stored sharded /
    cache_hit datapoint missing from this run is carried forward
    rather than silently dropped, a sharded run at a *different* worker
    count is refused (nothing to compare it against), and a >tolerance
    throughput regression is refused.  --force bypasses the refusals for
    this host's record only.
    """
    baselines = load_baselines(path)
    key = _host_key(record)
    old = baselines.get(key)
    if old is not None and not force:
        if _protocol_key(record) != _protocol_key(old):
            print(
                f"NOT COMPARABLE: stored baseline for host {key} was "
                f"measured at shots/rounds/noise = {_protocol_key(old)}, "
                f"this run at {_protocol_key(record)}; refusing to "
                f"overwrite {path.name} (use --force to replace the "
                f"protocol)",
                file=sys.stderr,
            )
            return 2
        old_sh = old.get("sharded")
        new_sh = record.get("sharded")
        if old_sh and new_sh and new_sh.get("workers") != old_sh.get("workers"):
            print(
                f"NOT COMPARABLE: stored sharded baseline for host {key} "
                f"used workers={old_sh.get('workers')}, this run "
                f"workers={new_sh.get('workers')}; re-run with the stored "
                f"worker count or --force to replace it",
                file=sys.stderr,
            )
            return 2
        if old_sh and not new_sh:
            # Keep the multi-worker baseline alive, flagged as coming from
            # an earlier run: its scaling_vs_compiled refers to *that*
            # run's compiled rate, not the one written alongside it here.
            # Copy rather than mutate — the caller's record must keep
            # matching what was actually measured.
            record = {**record, "sharded": {**old_sh, "carried_forward": True}}
        if old.get("cache_hit") and not record.get("cache_hit"):
            # Same courtesy for the cache-hit datapoint: a run without
            # --cache-bench must not silently drop it.
            record = {
                **record,
                "cache_hit": {**old["cache_hit"], "carried_forward": True},
            }
        err = check_regression(record, old)
        if err:
            print(f"REGRESSION: {err}", file=sys.stderr)
            return 2
    baselines[key] = record
    _dump_baselines(baselines, path)
    print(f"wrote {path} ({key})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shots", type=int, default=10_000)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--eps", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="also time the multiprocess shot-sharded driver with this many "
        "worker processes and record the parallel-scaling datapoint",
    )
    parser.add_argument(
        "--cache-bench", action="store_true",
        help="also time the result cache: a cold journaled run vs a full "
        "cache hit (replayed from sqlite without executing a shard)",
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized run (2k shots, 3 rounds)")
    parser.add_argument("--force", action="store_true", help="overwrite even on regression")
    parser.add_argument(
        "--check", action="store_true",
        help="measure and compare against the stored baseline without writing",
    )
    parser.add_argument("--out", type=Path, default=BENCH_PATH)
    args = parser.parse_args(argv)
    if args.quick:
        args.shots, args.rounds = 2_000, 3
    if args.shots < 1 or args.rounds < 1:
        parser.error("--shots and --rounds must be positive")
    if args.workers < 1:
        parser.error("--workers must be positive")
    # Read the stored baselines before measuring: an unreadable file fails
    # in milliseconds, not after the benchmark, and is left untouched.
    try:
        baselines = load_baselines(args.out)
    except BaselineFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = run_benchmark(
        args.shots, args.rounds, args.eps, args.seed, args.workers,
        cache_bench=args.cache_bench,
    )
    print(
        f"legacy:   {record['legacy']['seconds']:8.3f}s "
        f"({record['legacy']['shot_rounds_per_sec']:>12,.0f} shot-rounds/sec)"
    )
    print(
        f"compiled: {record['compiled']['seconds']:8.3f}s "
        f"({record['compiled']['shot_rounds_per_sec']:>12,.0f} shot-rounds/sec)"
    )
    print(f"speedup:  {record['speedup']:.1f}x")
    if "sharded" in record:
        sh = record["sharded"]
        print(
            f"sharded:  {sh['seconds']:8.3f}s "
            f"({sh['shot_rounds_per_sec']:>12,.0f} shot-rounds/sec, "
            f"workers={sh['workers']}, {sh['scaling_vs_compiled']:.2f}x vs compiled "
            f"on {record['config']['cpu_count']} cpu(s))"
        )
    if "cache_hit" in record:
        ch = record["cache_hit"]
        print(
            f"cache:    miss {ch['miss_seconds']:.3f}s -> hit "
            f"{ch['hit_seconds']:.3f}s ({ch['hit_speedup']:.0f}x)"
        )

    if args.check:
        old = baselines.get(_host_key(record))
        if old is None:
            print(
                f"no stored baseline for host {_host_key(record)}; "
                f"nothing to compare (a guarded write would start a "
                f"fresh ratchet for this host)"
            )
        elif _protocol_key(record) != _protocol_key(old):
            print("stored baseline uses a different protocol; nothing to compare")
        else:
            err = check_regression(record, old)
            if err:
                print(f"REGRESSION: {err}", file=sys.stderr)
                return 2
            print("no regression against stored baseline")
        return 0
    return write_guarded(record, args.out, force=args.force)


if __name__ == "__main__":
    raise SystemExit(main())
