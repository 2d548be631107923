"""Fault-injection audit: certify a circuit fault-tolerant by enumeration.

The strongest statement in the library: enumerate EVERY possible single
fault (every location × every outcome the noise model draws) in the
Fig. 9 error-correction round the Monte Carlo runs — ancilla encoding,
two-block verification, transversal extraction, repeated syndromes,
classical post-processing — and verify that none causes a logical error.
Then derive the threshold the way §5 does, by adding up the surviving
fault paths.
"""

from repro.ft import SteaneECProtocol
from repro.ft.cat import CatStatePrep
from repro.noise import NoiseModel, circuit_level
from repro.pauliframe import FrameSimulator
from repro.threshold import count_fault_paths, threshold_from_counting


def main() -> None:
    protocol = SteaneECProtocol(circuit_level(1e-3))
    factory = protocol.prep.circuit()
    extraction = protocol.extraction.extraction_circuit()
    blocks = len(protocol.extraction.layouts)
    print("=== The Fig. 9 round the Monte Carlo runs ===")
    print(f"ancilla factory: {factory.num_qubits} qubits, "
          f"{len(factory.operations)} operations, run once for each of {blocks} ancilla blocks")
    print(f"extraction: {extraction.num_qubits} qubits (7 data + {blocks} ancilla "
          f"blocks x 7), {len(extraction.operations)} operations")

    report = count_fault_paths()
    print("\n=== Exhaustive single-fault audit ===")
    print(f"fault cases enumerated:  {report.total_fault_cases}")
    print(f"benign (no residual):    {report.benign}")
    print(f"one residual error:      {report.residual_one}")
    print(f"multi-qubit residual:    {report.residual_multi} "
          f"(a stabilizer, or a stabilizer times one Pauli; none logical)")
    print(f"LOGICAL FAILURES:        {report.logical_failures}   <- must be 0")
    assert report.logical_failures == 0, "fault tolerance violated!"

    print("\n=== Threshold by fault-path counting (the §5 method) ===")
    print(f"weighted fault paths per data qubit: c = {report.per_qubit_paths:.2f}")
    eps0 = threshold_from_counting(report)
    print(f"estimated threshold eps0 = 1/(21 x c) = {eps0:.2e}")
    print("paper's crude estimate: 6e-4; conservative floor: 1e-4")

    print("\n=== Contrast: a single fault CAN break an unverified cat ===")
    prep = CatStatePrep((0, 1, 2, 3))  # no verification
    circuit = prep.circuit(4, 0)
    sim = FrameSimulator(circuit, NoiseModel())
    chain_link = [i for i, op in enumerate(circuit) if op.gate == "CNOT"][1]
    res = sim.run(1, seed=0, fault_injections=[(chain_link, 2, "X")])
    print(f"X fault mid-chain leaves {int(res.fx[0].sum())} correlated bit flips "
          f"in the cat -> two phase errors in the Shor state (the Fig. 8 danger).")


if __name__ == "__main__":
    main()
