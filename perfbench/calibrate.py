"""Measure the legacy-engine reference failure counts into reference.json.

    PYTHONPATH=src python3 perfbench/calibrate.py

The benchmark checks every compiled-engine call against these counts (see
``agrees`` in workloads.py).  The legacy ``FrameSimulator`` interpreter
shares no sampling or propagation code with the compiled engine, so the
reference is an independent oracle, not an earlier run of the code under
test.  Each workload's counts pool several independently seeded calls.
Takes a few minutes on one core; rerun only when the physics of a workload
changes.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import EPS, GRID, REFERENCE_PATH, WORKLOADS, build_protocol, derive_seed

CALIBRATION_SEED = 20021
CHUNK = 50_000
MEMORY_SHOTS = {"steane_memory": 500_000, "shor_memory": 250_000}
SCAN_SHOTS = 1_000_000


def legacy_counts(protocol: str, eps: float, rounds: int, shots: int, *path: int) -> dict:
    from repro.codes import SteaneCode
    from repro.threshold import memory_experiment

    proto = build_protocol(protocol, eps, engine="legacy")
    failures = 0
    for c, start in enumerate(range(0, shots, CHUNK)):
        n = min(CHUNK, shots - start)
        res = memory_experiment(proto, SteaneCode(), rounds=rounds, shots=n,
                                seed=derive_seed(CALIBRATION_SEED, *path, c))
        failures += res.failures
    return {"eps": eps, "rounds": rounds, "shots": shots, "failures": failures}


def main() -> int:
    reference = {"engine": "legacy", "seed": CALIBRATION_SEED}
    for index, (name, w) in enumerate(WORKLOADS.items()):
        t0 = time.perf_counter()
        if w.kind == "memory":
            reference[name] = legacy_counts(w.protocol, EPS, w.rounds, MEMORY_SHOTS[name], index)
        else:
            reference[name] = {"points": [
                legacy_counts(w.protocol, eps, w.rounds, SCAN_SHOTS, index, j)
                for j, eps in enumerate(GRID)
            ]}
        print(f"{name}: {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
