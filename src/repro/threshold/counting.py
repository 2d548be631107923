"""Threshold estimation by exhaustive fault-path counting (paper §5).

"To estimate the accuracy threshold, we follow the circuit Fig. 9 and add
up the contributions to p₀ due to errors ... that have not already been
eliminated in a previous error correction cycle.  We obtain an expression
for p₀ in terms of the gate error and storage error probabilities that we
can equate to 1/21 to find the threshold."

We do exactly that, mechanically, on the circuits the Monte Carlo runs:
the ancilla factory and the extraction circuit of
:class:`~repro.ft.exrec.SteaneECProtocol`.  Under ``circuit_level(ε)``
every location the compiled sampler draws fails with probability ε, split
over its outcomes the way the sampler splits it:

* X, Y or Z at ε/3 after a one-qubit gate, and on every qubit at a TICK;
* each of the nine Pauli pairs at ε/9 after a two-qubit gate
  (``both_damaged``);
* a record flip at ε on M or MX;
* X at ε after R.

Each outcome runs alone through a noiseless legacy-interpreter pass.  A
factory fault goes through the verification fix-up and then enters each
extraction layout as that layout's ancilla frame; an extraction fault
starts from clean ancillas.  The protocol's own unpacked classical steps
(syndrome parse, §3.4 policy, decode) then leave the residual data
frames.  The weighted per-qubit path count is c = Σ w·|support| / 7 over
the raw residual support, so p₀ = c·ε and ε₀ = 1/(21·c).

A fault-tolerance *certificate* falls out for free: no single fault may
leave a logical error after ideal decoding, which the test suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.codes.steane import SteaneCode
from repro.ft.exrec import SteaneECProtocol
from repro.noise.models import NoiseModel, circuit_level
from repro.pauliframe.engine import FrameSimulator
from repro.threshold.flow import CONCATENATION_COEFFICIENT

__all__ = ["count_fault_paths", "threshold_from_counting", "FaultPathReport"]

_PAULIS = ("X", "Y", "Z")


@dataclass
class FaultPathReport:
    """Result of exhaustive single-fault counting.

    Attributes
    ----------
    total_fault_cases: single-fault outcomes enumerated, over every
        location of the factory (once per ancilla layout) and extraction.
    benign: cases leaving no residual data error.
    residual_one: cases leaving an error on exactly one data qubit (the
        contributions to next round's p₀).
    residual_multi: cases leaving errors on two or more data qubits.  The
        raw support counts every qubit a stabilizer factor touches, so a
        residual that is a stabilizer, or a stabilizer times one Pauli,
        lands here too.
    logical_failures: cases whose residual is a logical operator (must be 0).
    per_qubit_paths: the weighted path count c per data qubit, in units
        of ε, with p₀ = c·ε.
    """

    total_fault_cases: int
    benign: int
    residual_one: int
    residual_multi: int
    logical_failures: int
    per_qubit_paths: float


def _components(circuit: Circuit) -> list[tuple[float, list, int | None]]:
    """Every outcome of every noise location of ``circuit`` under
    ``circuit_level(ε)``, in program order: its weight in units of ε, the
    injections that place it, and the cbit it flips (or ``None``)."""
    out: list[tuple[float, list, int | None]] = []
    for i, op in enumerate(circuit):
        if op.gate == "TICK":
            out += [(1 / 3, [(i, q, p)], None) for q in range(circuit.num_qubits) for p in _PAULIS]
        elif op.gate in ("M", "MX"):
            out.append((1.0, [], op.cbits[0]))
        elif op.gate == "R":
            out.append((1.0, [(i, op.qubits[0], "X")], None))
        elif len(op.qubits) == 2:
            a, b = op.qubits
            out += [(1 / 9, [(i, a, pa), (i, b, pb)], None) for pa in _PAULIS for pb in _PAULIS]
        else:
            out += [(1 / 3, [(i, op.qubits[0], p)], None) for p in _PAULIS]
    return out


def _run(circuit: Circuit, cases: list, initial_fx=None, initial_fz=None):
    """One noiseless legacy run, one shot per case: ``(flips, fx, fz)``.
    A record flip is a unit row of the flips."""
    res = FrameSimulator(circuit, NoiseModel(), backend="legacy").run(
        len(cases),
        initial_fx=initial_fx,
        initial_fz=initial_fz,
        fault_injections=[injections for _, injections, _ in cases],
    )
    for shot, (_, _, cbit) in enumerate(cases):
        if cbit is not None:
            res.meas_flips[shot, cbit] ^= 1
    return res.meas_flips, res.fx, res.fz


def _single_fault_residuals(policy: str = "paper") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(weights, fx, fz)``: each single fault's weight in units of ε and
    the data frames one Steane-EC round leaves, before ideal decoding."""
    # Any ε > 0 gives every location; the weights are in units of ε.
    protocol = SteaneECProtocol(circuit_level(1e-3), policy=policy)
    prep, extraction = protocol.prep, protocol.extraction
    factory = _components(prep.circuit())
    flips, fx, fz = _run(prep.circuit(), factory)
    ancilla_fx = prep.apply_fixups(fx[:, :7], prep.parse(flips))
    ancilla_fz = fz[:, :7]

    circuit = extraction.extraction_circuit()
    layouts = extraction.layouts
    cases = [(w, [], None) for w, _, _ in factory] * len(layouts) + _components(circuit)
    init_fx = np.zeros((len(cases), circuit.num_qubits), dtype=np.uint8)
    init_fz = np.zeros_like(init_fx)
    for k, layout in enumerate(layouts):
        rows = slice(k * len(factory), (k + 1) * len(factory))
        init_fx[rows, list(layout.anc_qubits)] = ancilla_fx
        init_fz[rows, list(layout.anc_qubits)] = ancilla_fz
    flips, fx, fz = _run(circuit, cases, init_fx, init_fz)
    x_syn, z_syn = extraction.parse_syndromes(flips)
    fx = fx[:, :7] ^ protocol._corrections(x_syn)
    fz = fz[:, :7] ^ protocol._corrections(z_syn)
    return np.array([w for w, _, _ in cases]), fx, fz


def count_fault_paths(policy: str = "paper") -> FaultPathReport:
    """Enumerate every single fault of one Steane-EC round and classify it."""
    weights, fx, fz = _single_fault_residuals(policy)
    code = SteaneCode()
    cfx, cfz = code.correct_frame(fx, fz)
    logical = code.logical_action_of_frame(cfx, cfz).any(axis=1)
    # "Residual error" counting uses the pre-ideal-EC frames: these are the
    # errors present when the next cycle begins.
    support = (fx | fz).sum(axis=1)
    return FaultPathReport(
        total_fault_cases=len(weights),
        benign=int((support == 0).sum()),
        residual_one=int((support == 1).sum()),
        residual_multi=int((support >= 2).sum()),
        logical_failures=int(logical.sum()),
        per_qubit_paths=float(weights @ support / code.n),
    )


def threshold_from_counting(report: FaultPathReport) -> float:
    """ε₀ from the paper's method: p₀ = c·ε equals 1/21 at threshold, so
    ε₀ = 1 / (21 · per_qubit_paths) (``CONCATENATION_COEFFICIENT`` = 21)."""
    if report.per_qubit_paths <= 0:
        raise ValueError("no fault paths reach the data; counting is vacuous")
    return 1.0 / (CONCATENATION_COEFFICIENT * report.per_qubit_paths)
