"""Run every experiment at full statistics and dump JSON for EXPERIMENTS.md.

Exit status is meaningful for CI: non-zero when any experiment raises,
``--bench`` runs the perf harness (``scripts/bench_perf.py``), refusing to
overwrite ``BENCH_*.json`` on a >20% throughput regression, and ``--tests``
runs the tier-1 pytest suite (with the per-test watchdog from
``tests/conftest.py`` active, so an injected hang can never wedge it;
``--tests --quick`` skips the ``slow_mp`` multiprocess/chaos tests), and
``--lint`` runs the in-repo static-analysis pass (``python -m
repro.analysis``; see ANALYSIS.md).

Resilience: Monte Carlo experiments run on the crash-safe sharded runtime
(`repro.threshold.runtime`).  ``--checkpoint PATH`` journals every finished
shard into a sqlite file keyed by content-addressed run keys, and
``--resume`` replays finished shards after a crash or Ctrl-C, re-executing
only the remainder; ``--shard-timeout`` / ``--max-retries`` bound hung and
failing workers.

The journal doubles as a content-addressed **result cache**: ``--cache
[PATH]`` (default ``full_results.checkpoint.sqlite``) makes every Monte
Carlo run consult the store before computing — a repeat of an
already-completed run replays its pooled counts from disk without spawning
a worker pool; corrupted rows are quarantined and recomputed
(``CacheCorrupt``); storage faults degrade to uncheckpointed execution
(``JournalDegraded``) instead of killing the run.  ``--no-cache`` forces
recomputation even when a cache path is configured.  ``cache stats`` and
``cache gc`` inspect and compact the store.

Every Monte Carlo run takes one path: the experiment calls
``memory_experiment`` (or ``code_capacity_memory``, or a grid scan such as
``pseudo_threshold``), which hands sharded or checkpointed work to the
sharded driver as a batch of runs — one for a single call, one per grid
point for a scan; ``runtime.execute_batch`` supervises every shard of the
batch and commits each one to the batch's one ``CheckpointJournal``
connection.
"""

import argparse
import inspect
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent
DEFAULT_CHECKPOINT = str(REPO_ROOT / "full_results.checkpoint.sqlite")


def run_experiments(output_path: str, workers: int = 1, **resilience) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    results = {}
    failed = []
    for name, runner in ALL_EXPERIMENTS.items():
        params = inspect.signature(runner).parameters
        kwargs = {"quick": False}
        if workers != 1 and "workers" in params:
            kwargs["workers"] = workers
        for knob, value in resilience.items():
            if value is not None and knob in params:
                kwargs[knob] = value
        t0 = time.time()
        try:
            results[name] = runner(**kwargs)
        except Exception:
            failed.append(name)
            results[name] = {"_error": traceback.format_exc()}
            print(f"{name} FAILED", flush=True)
            continue
        results[name]["_runtime_seconds"] = round(time.time() - t0, 1)
        print(f"{name} done in {results[name]['_runtime_seconds']}s", flush=True)
    with open(output_path, "w") as fh:
        json.dump(results, fh, indent=1, default=str)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("ALL DONE")
    return 0


def run_bench(quick: bool, workers: int = 1) -> int:
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    from bench_perf import main as bench_main

    # Quick runs are smoke runs only: CI-sized rates are overhead-dominated
    # and were never comparable to the full-size baseline (the old guarded
    # write refused them 100% of the time as a spurious "regression").  The
    # real regression guard engages on the full protocol, i.e. --bench
    # without --quick.
    argv = ["--quick", "--check"] if quick else ["--cache-bench"]
    if workers != 1:
        argv += ["--workers", str(workers)]
    return bench_main(argv)


def run_tests(quick: bool) -> int:
    """Tier-1 suite under the per-test watchdog (tests/conftest.py): a
    hung multiprocess test raises instead of wedging the run.  ``--quick``
    deselects the ``slow_mp``-marked multiprocess/chaos tests."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q"]
    if quick:
        cmd += ["-m", "not slow_mp"]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.call(cmd, cwd=str(REPO_ROOT), env=env)


def run_lint() -> int:
    """Static-analysis pass: the RPL rule catalog over src/scripts/tests
    (``python -m repro.analysis``); any finding no inline suppression
    covers exits 1.  See ANALYSIS.md for the catalog and the suppression
    syntax."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.analysis.__main__ import main as lint_main

    return lint_main(["--root", str(REPO_ROOT)])


def run_cache_command(command: list[str], cache_path: str) -> int:
    """``cache stats`` / ``cache gc`` — inspect or compact the result cache.

    ``gc`` only collects *stale* incomplete runs (grace window): a gc
    racing a live scan must not eat its checkpointed shards mid-write.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.threshold import CheckpointJournal

    sub = command[1] if len(command) > 1 else "stats"
    if sub not in ("stats", "gc"):
        print(f"unknown cache subcommand {sub!r}; use 'stats' or 'gc'", file=sys.stderr)
        return 2
    if not Path(cache_path).exists():
        print(f"no cache at {cache_path}", file=sys.stderr)
        return 1
    with CheckpointJournal(cache_path) as journal:
        report = journal.stats() if sub == "stats" else journal.gc()
    print(json.dumps(report, indent=1))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "command", nargs="*", default=[],
        help="optional subcommand: 'cache stats' (health summary) or "
        "'cache gc' (drop stale incomplete runs, purge quarantine, VACUUM)",
    )
    parser.add_argument(
        "--bench", action="store_true",
        help="run the perf harness instead of the experiments (guarded "
        "BENCH_*.json update: a >20%% regression refuses to overwrite)",
    )
    parser.add_argument(
        "--tests", action="store_true",
        help="run the tier-1 pytest suite under the per-test watchdog "
        "(--quick skips slow_mp multiprocess/chaos tests)",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="run the in-repo static-analysis pass (repro.analysis: "
        "RPL determinism/picklability/concurrency rules; a finding fails "
        "unless suppressed inline with a reason, see ANALYSIS.md)",
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized bench/tests run")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="shot-shard Monte Carlo workloads across this many worker "
        "processes (experiments that support it, and the bench's sharded "
        "datapoint)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal finished Monte Carlo shards into this sqlite file "
        "(crash-safe; implied by --resume at "
        f"{Path(DEFAULT_CHECKPOINT).name})",
    )
    parser.add_argument(
        "--cache", nargs="?", const=DEFAULT_CHECKPOINT, default=None,
        metavar="PATH",
        help="use the journal as a content-addressed result cache (read "
        "before compute + checkpoint + resume); PATH defaults to "
        f"{Path(DEFAULT_CHECKPOINT).name}",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="force recomputation: ignore --cache/--checkpoint entirely",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay shards already recorded in the checkpoint journal and "
        "re-execute only the remainder (run keys are content-addressed, so "
        "a stale journal can never corrupt results)",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="declare a Monte Carlo shard hung after this long and replace "
        "its worker (default: no timeout)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None,
        help="re-executions allowed per failing shard before it degrades "
        "to in-process execution (default 2)",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "full_results.json"),
        help="experiments output JSON (the bench always writes BENCH_*.json)",
    )
    args = parser.parse_args()
    if args.command:
        if args.command[0] == "cache":
            return run_cache_command(
                args.command, args.cache or args.checkpoint or DEFAULT_CHECKPOINT
            )
        print(f"unknown command {args.command[0]!r}", file=sys.stderr)
        return 2
    if args.bench:
        return run_bench(args.quick, args.workers)
    if args.tests:
        return run_tests(args.quick)
    if args.lint:
        return run_lint()
    # --cache is checkpoint + resume under its result-cache reading; an
    # explicit --checkpoint still works, and --no-cache wins over both.
    checkpoint = args.cache or args.checkpoint
    if args.resume and checkpoint is None:
        checkpoint = DEFAULT_CHECKPOINT
    if args.no_cache:
        checkpoint = None
    resume = args.resume or args.cache is not None
    return run_experiments(
        args.out,
        args.workers,
        checkpoint=checkpoint,
        resume=resume if checkpoint is not None else None,
        shard_timeout=args.shard_timeout,
        max_retries=args.max_retries,
    )


if __name__ == "__main__":
    raise SystemExit(main())
