"""Benchmark driver: run one workload, or all of them, and print the result.

    python3 perfbench/run.py --workload steane_memory --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric of BENCHMARK.json with ``--trace 0``,
every per-layer metric with ``--trace 1``.  The lines before it give the
environment stamp and one metric per line.  ``--workload all`` runs every
workload in turn and ends with their sum, metric names prefixed by the
workload.  ``--tiny`` shrinks every call for the self-tests.

This process marks itself child subreaper, runs each workload in child
processes, and reaps every descendant before it prints.  Spawn-pool workers
and multiprocessing's resource tracker outlive the workload process; as
orphans they would otherwise pass to PID 1, which need not reap them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from proctree import descendants

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steane_memory", "shor_memory", "threshold_scan")
# setup_s is the median over this many set-up-only children plus the
# measured child: imports, compiles and pool starts vary from one process
# to the next.
SETUP_CHILDREN = 5
# How long a workload child may run beyond --seconds before it is killed.
CHILD_SLACK_S = 120.0
PR_SET_CHILD_SUBREAPER = 36


class ChildFailed(RuntimeError):
    """A workload child exited non-zero, timed out, or reported a metric
    set that does not match BENCHMARK.json."""


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def kill_descendants() -> None:
    for pid in descendants(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def reap_all(grace: float) -> None:
    """Wait for every child, orphans adopted as subreaper included; kill
    whatever is still alive after ``grace`` seconds."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid:
            continue
        if time.monotonic() >= deadline:
            kill_descendants()
        time.sleep(0.01)


def run_child(args: argparse.Namespace, workload: str, scratch: Path,
              deadline: float, setup_only: bool) -> dict:
    """One workload process; returns its result with ``setup_s`` added."""
    result_path = scratch / f"result-{workload}-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scratch", str(scratch),
        "--result", str(result_path),
    ]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    env = dict(os.environ)  # BLAS thread settings stay whatever the user has
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(scratch)
    spawned = time.monotonic()
    # The child's standard output goes to this process's standard error, so
    # that the result stays the last line of standard output.
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=2, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{workload} did not finish in time") from None
    finally:
        reap_all(grace=10.0)
    if code != 0:
        raise ChildFailed(f"{workload} exited with code {code}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def measure(args: argparse.Namespace, workload: str, spec: dict, scratch: Path) -> tuple[dict, dict]:
    """Run one workload; returns its result object and environment stamp."""
    deadline = time.monotonic() + args.seconds + CHILD_SLACK_S
    setups = [
        run_child(args, workload, scratch, deadline, setup_only=True)["setup_s"]
        for _ in range(0 if args.trace else SETUP_CHILDREN)
    ]
    child = run_child(args, workload, scratch, deadline, setup_only=False)
    values = child["values"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups + [child["setup_s"]])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise ChildFailed(f"{workload} reported metrics {sorted(values)}, not those of BENCHMARK.json")
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, child["env"]


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    become_subreaper()
    signal.signal(signal.SIGTERM, _terminate)
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            results[workload] = measure(args, workload, spec, scratch)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        kill_descendants()
        reap_all(grace=0.0)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    for workload, (result, env) in results.items():
        print("env", json.dumps({"workload": workload, **env}))
        for name, metric in result["metrics"].items():
            print(f"{workload:15} {name:28} {metric['value']:>14.6g} {metric['unit']}")
    if args.workload != "all":
        print(json.dumps(results[args.workload][0]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": {f"{w}.{name}": metric for w, (r, _) in results.items()
                    for name, metric in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
