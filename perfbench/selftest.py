"""Self-tests of the benchmark: every workload and the traced run at tiny
sizes, the correctness checks, and process hygiene.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's default test
collection: each one starts real workload processes and takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from proctree import process_table  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_tmp" / "selftest"


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, str, str, list]:
    """Run the benchmark command in its own session; return its exit code,
    output, errors, and every process of that session still in the table."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    out, err = proc.communicate(timeout=170)
    leftover = [(pid, state) for pid, (state, _, session) in process_table().items()
                if session == proc.pid]
    return proc.returncode, out, err, leftover


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(workload: str, trace: int) -> None:
    code, out, err, leftover = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"
    )
    assert code == 0, err
    assert leftover == [], "processes survived the command"
    assert "resource_tracker" not in err
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["pauliframe.instructions"] > 0
        assert values["pauliframe.sample_s"] > 0 and values["ft.decode_s"] > 0
        assert values["failed_frac"] == 0
        if workload == "threshold_scan":
            assert values["journal.rows"] == len(workloads.GRID) * workloads.SHARDS
            assert values["sharded.speedup"] > 0 and values["sharded.spec_bytes"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_all_workloads_in_one_command() -> None:
    code, out, err, leftover = run_bench("--workload", "all", "--seed", "4", "--seconds", "0.5", "--tiny")
    assert code == 0, err
    assert leftover == []
    result = json.loads(out.splitlines()[-1])
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == {f"{w}.{n}" for w in workloads.WORKLOADS for n in names}
    assert result["correct"]


def test_refuses_without_library_source() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, out, _, leftover = run_bench(
            "--workload", "steane_memory", "--seed", "1", "--seconds", "1", cwd=bare
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and out == "" and leftover == []


@pytest.fixture(autouse=True)
def _clean_scratch():
    yield
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()
    except OSError:
        pass  # a benchmark run's scratch is still there


def _tiny_run(name: str, **changes) -> dict:
    w = replace(workloads.WORKLOADS[name], shots=workloads.WORKLOADS[name].tiny_shots, **changes)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return workloads.run(name, w, seed=5, seconds=0.3, trace=False, setup_only=False,
                         scratch=SCRATCH)


@pytest.mark.parametrize("name", ["steane_memory", "shor_memory"])
def test_tampered_memory_count_fails(name: str, monkeypatch) -> None:
    from repro.threshold import montecarlo

    real = montecarlo.memory_experiment

    def tampered(*args, **kwargs):
        res = real(*args, **kwargs)
        return replace(res, failures=res.shots // 2)

    monkeypatch.setattr(montecarlo, "memory_experiment", tampered)
    result = _tiny_run(name)
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


def test_tampered_replay_count_fails(monkeypatch) -> None:
    from repro.threshold import montecarlo

    real = montecarlo.pseudo_threshold
    calls = []

    def tampered(*args, **kwargs):
        crossing, curve = real(*args, **kwargs)
        calls.append(kwargs["checkpoint"])
        if calls.count(kwargs["checkpoint"]) == 2:  # the replay of a store
            eps, rate = curve[0]
            curve = [(eps, rate + 1.0 / kwargs["shots"])] + curve[1:]
        return crossing, curve

    monkeypatch.setattr(montecarlo, "pseudo_threshold", tampered)
    # One in-process worker keeps the test free of a process pool.
    result = _tiny_run("threshold_scan", workers=1)
    scans = result["attempted"] // len(workloads.GRID)
    assert scans >= 1 and result["failed"] == scans


def test_agreement_bound() -> None:
    ref = json.loads(workloads.REFERENCE_PATH.read_text())["steane_memory"]
    assert workloads.agrees(ref["failures"] // 5, ref["shots"] // 5, ref["failures"], ref["shots"])
    assert not workloads.agrees(0, 100_000, ref["failures"], ref["shots"])
    assert not workloads.agrees(ref["failures"] // 2, ref["shots"] // 5, ref["failures"], ref["shots"])
    assert workloads.agrees(0, 1_000, 0, 1_000_000)


class _Toy:
    def outer(self):
        return self.inner() + _Toy.helper()

    def inner(self):
        return 1

    @staticmethod
    def helper():
        return 2


def test_tracer_self_time_and_restore() -> None:
    tracer = Tracer([("a", _Toy, "outer"), ("b", _Toy, "inner"), ("b", _Toy, "helper")])
    originals = dict(vars(_Toy))
    with tracer.active():
        assert _Toy().outer() == 3
    assert {k: vars(_Toy)[k] for k in ("outer", "inner", "helper")} == {
        k: originals[k] for k in ("outer", "inner", "helper")
    }
    self_time, calls, covered = tracer.profile(0)
    assert calls == {"a": 1, "b": 2}
    (_, t0, t1, _), *children = tracer.spans
    assert [parent for *_, parent in children] == [0, 0]
    assert covered == pytest.approx(t1 - t0)
    assert self_time["a"] + self_time["b"] == pytest.approx(t1 - t0)
