"""Logical-qubit memory experiments — the user-facing façade.

Example
-------
>>> from repro.core import LogicalMemory
>>> mem = LogicalMemory(code="steane", method="steane", eps=1e-3)
>>> result = mem.run(rounds=3, shots=5000, seed=7)
>>> result.failure_rate           # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.five_qubit import FiveQubitCode
from repro.codes.shor9 import ShorNineCode
from repro.codes.steane import SteaneCode
from repro.ft.exrec import ShorECProtocol, SteaneECProtocol
from repro.noise.models import NoiseModel, circuit_level
from repro.threshold.montecarlo import (
    MemoryResult,
    code_capacity_memory,
    memory_experiment,
)
from repro.util.rng import as_rng

__all__ = ["LogicalMemory", "UnencodedMemory"]

_CODES = {
    "steane": SteaneCode,
    "five_qubit": FiveQubitCode,
    "shor9": ShorNineCode,
}


class LogicalMemory:
    """One logical qubit protected by a chosen code and EC method.

    Parameters
    ----------
    code: ``"steane"``, ``"five_qubit"``, or ``"shor9"``.
    method: ``"steane"`` (Fig. 9 extraction; Steane code only), ``"shor"``
        (cat-state extraction; any code), or ``"ideal"`` (code-capacity:
        flawless recovery, §2's setting).
    eps: shorthand for a uniform circuit-level error rate; ignored when an
        explicit ``noise`` model is given.
    """

    def __init__(
        self,
        code: str = "steane",
        method: str = "steane",
        eps: float = 1e-3,
        noise: NoiseModel | None = None,
        repetitions: int = 2,
        policy: str = "paper",
    ) -> None:
        if code not in _CODES:
            raise ValueError(f"unknown code {code!r}; choose from {sorted(_CODES)}")
        if method not in ("steane", "shor", "ideal"):
            raise ValueError("method must be 'steane', 'shor', or 'ideal'")
        if method == "steane" and code != "steane":
            raise ValueError("the Steane extraction method applies to the Steane code")
        self.code = _CODES[code]()
        self.method = method
        self.eps = eps
        self.noise = noise if noise is not None else circuit_level(eps)
        self.repetitions = repetitions
        self.policy = policy
        self._protocol = self._build_protocol()

    def _build_protocol(self):
        if self.method == "steane":
            return SteaneECProtocol(
                self.noise, repetitions=self.repetitions, policy=self.policy, code=self.code
            )
        if self.method == "shor":
            return ShorECProtocol(
                self.code, self.noise, repetitions=self.repetitions, policy=self.policy
            )
        return None

    # ------------------------------------------------------------------
    def run(
        self, rounds: int, shots: int, seed: int | None = None, workers: int = 1
    ) -> MemoryResult:
        """Simulate ``rounds`` EC rounds over ``shots`` Monte Carlo samples.

        ``workers>1`` shards the shots across processes (see
        :mod:`repro.threshold.sharded`); ``workers=1`` is the exact
        single-process path.
        """
        if self.method == "ideal":
            return code_capacity_memory(
                self.code, self.noise.eps_store, rounds, shots, seed,
                workers=workers,
            )
        return memory_experiment(
            self._protocol, self.code, rounds, shots, seed, workers=workers
        )

    def logical_error_per_round(self, shots: int = 20_000, seed: int | None = 0) -> float:
        """Convenience: one-round failure rate."""
        return self.run(1, shots, seed).failure_rate

    def breakeven(self, shots: int = 20_000, seed: int | None = 0) -> bool:
        """Does encoding beat the bare qubit at this noise level?  The bare
        qubit sees the storage rate of the model the encoded one runs
        under, which is ``eps`` unless an explicit ``noise`` was given."""
        bare = UnencodedMemory(self.noise.eps_store).run(1, shots, seed).failure_rate
        return self.logical_error_per_round(shots, seed) < bare


class UnencodedMemory:
    """The baseline: one bare qubit exposed to the same storage noise.

    Its fidelity after one step is F = 1 − ε (Eq. 14) — the number the
    encoded memory must beat.
    """

    def __init__(self, eps: float) -> None:
        if not 0 <= eps <= 1:
            raise ValueError("eps must be a probability")
        self.eps = eps

    def run(self, rounds: int, shots: int, seed: int | None = None) -> MemoryResult:
        rng = as_rng(seed)
        hit = rng.random((shots, rounds)) < self.eps
        kind = rng.integers(0, 3, size=(shots, rounds))
        fx = np.bitwise_xor.reduce(hit & (kind != 2), axis=1)
        fz = np.bitwise_xor.reduce(hit & (kind != 0), axis=1)
        return MemoryResult.from_counts(rounds, shots, int((fx | fz).sum()))
