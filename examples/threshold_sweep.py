"""Threshold sweep: locate the pseudo-threshold of Steane-method EC.

Sweeps the physical error rate, runs one noisy EC round per point, and
prints the encoded-vs-physical crossing — the operational meaning of §5's
"once our hardware meets a specified standard of accuracy ... arbitrarily
long quantum computations".  At the default shots it takes about half a
second in one process on a 2-cpu VM.  ``--workers 2`` runs the grid as one
sharded batch through two spawned workers and takes about 1.2 s there,
most of it starting the worker pool.
"""

import argparse

import numpy as np

from repro.codes import SteaneCode
from repro.ft import SteaneECProtocol
from repro.noise import circuit_level
from repro.threshold import pseudo_threshold


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=1,
        help="shard each grid point's shots across this many processes",
    )
    args = parser.parse_args()
    grid = np.array([5e-5, 1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3])
    crossing, curve = pseudo_threshold(
        lambda eps: SteaneECProtocol(circuit_level(eps)),
        SteaneCode(),
        grid,
        shots=60_000,
        seed=42,
        workers=args.workers,
    )
    print(f"{'eps':>10} | {'p_logical':>11} | encoding")
    print("-" * 38)
    for eps, p in curve:
        verdict = "helps" if p < eps else "hurts"
        print(f"{eps:10.1e} | {p:11.2e} | {verdict}")
    print("-" * 38)
    print(f"pseudo-threshold crossing ~ {crossing:.1e}")
    print("(paper's crude circuit-counting estimate: 6e-4; conservative floor: 1e-4)")


if __name__ == "__main__":
    main()
