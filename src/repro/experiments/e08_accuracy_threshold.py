"""E08 — The accuracy threshold: ε₀ ≈ 6·10⁻⁴ (Eqs. 34–35).

Paper claims (§5): following the Fig. 9 circuit and equating the per-qubit
error accumulation p₀ to 1/21 gives ε_gate,0 ~ 6·10⁻⁴ and ε_store,0 ~
6·10⁻⁴; "a more thorough analysis shows ... somewhat lower", with a
conservative guess that the final thresholds "will exceed 10⁻⁴".

Two independent estimates here:
* **counting** — exhaustive single-fault-path enumeration over the
  Steane-EC protocol's own factory and extraction circuits, weighted as
  ``circuit_level(ε)`` draws each fault (the paper's own methodology,
  mechanized), giving ε₀ = 1/(21·c);
* **Monte Carlo** — the pseudo-threshold crossing where the encoded
  per-round failure equals ε under the pessimistic §6 model.
The paper's band [1e-4, 1e-3] should contain (or closely bracket) both.
"""

from __future__ import annotations

import numpy as np

from repro.codes import SteaneCode
from repro.ft import SteaneECProtocol
from repro.noise import circuit_level
from repro.threshold import count_fault_paths, pseudo_threshold, threshold_from_counting

__all__ = ["run"]


def run(
    quick: bool = False,
    workers: int = 1,
    checkpoint=None,
    resume: bool = True,
    shard_timeout: float | None = None,
    max_retries: int | None = None,
) -> dict:
    """Resilience knobs thread into the Monte Carlo scan: with
    ``checkpoint`` set, each grid point journals under its own
    content-addressed run key (the protocol embeds ε), so a killed scan
    resumes mid-grid re-executing only unfinished shards.  The journal
    doubles as a content-addressed result cache, so re-running a completed
    scan replays every grid point from disk without spawning workers."""
    resilience = {}
    if checkpoint is not None:
        resilience = {"checkpoint": checkpoint, "resume": resume}
    if shard_timeout is not None:
        resilience["shard_timeout"] = shard_timeout
    if max_retries is not None:
        resilience["max_retries"] = max_retries
    report = count_fault_paths()
    eps0_counting = threshold_from_counting(report)

    shots = 20_000 if quick else 150_000
    grid = np.array([5e-5, 1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3])
    code = SteaneCode()
    crossing, curve = pseudo_threshold(
        lambda eps: SteaneECProtocol(circuit_level(eps)),
        code,
        grid,
        shots=shots,
        seed=8,
        workers=workers,
        **resilience,
    )
    return {
        "experiment": "E08",
        "claim": "accuracy threshold ~6e-4 (crude), >1e-4 (conservative)",
        "paper_crude_estimate": 6e-4,
        "paper_conservative_floor": 1e-4,
        "counting_threshold": eps0_counting,
        "counting_fault_cases": report.total_fault_cases,
        "counting_single_fault_logical_failures": report.logical_failures,
        "mc_pseudothreshold": crossing,
        "mc_curve": curve,
        "both_in_band": (1e-5 < crossing < 3e-3) and (1e-4 < eps0_counting < 3e-3),
    }


if __name__ == "__main__":  # pragma: no cover
    import json

    print(json.dumps(run(quick=True), indent=2))
