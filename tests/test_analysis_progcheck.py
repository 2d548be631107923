"""Packed-program verifier: corrupted instruction streams raise distinct
typed diagnostics, every shipped experiment's compiled program verifies
clean, and the verifier actually runs at build time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.progcheck import (
    BadOpcode,
    BufferAliasError,
    NoiseCoverageError,
    NoiseRangeError,
    OperandRangeError,
    ProgramVerificationError,
    verify_program,
)
from repro.circuits import Circuit
from repro.codes.shor9 import ShorNineCode
from repro.codes.steane import SteaneCode
from repro.ft.exrec import ShorECProtocol, SteaneECProtocol
from repro.noise.models import NoiseModel, circuit_level
from repro.pauliframe import compiled as cmod
from repro.pauliframe.compiled import CompiledFrameProgram


def small_program() -> CompiledFrameProgram:
    circ = Circuit(3, 2)
    circ.h(0)
    circ.cnot(0, 1)
    circ.cnot(1, 2)
    circ.measure(0, 0)
    circ.measure(1, 1)
    return CompiledFrameProgram(circ, circuit_level(1e-3))


def stream_of(prog: CompiledFrameProgram) -> list[tuple]:
    return list(prog._instructions)


def reverify(prog: CompiledFrameProgram, instructions: list[tuple]) -> None:
    verify_program(
        instructions,
        prog.circuit.num_qubits,
        prog.circuit.num_cbits,
        prog._counts,
        prog.noise,
    )


def idx(*vals: int) -> np.ndarray:
    return np.array(vals, dtype=np.intp)


class TestCorruptedStreams:
    def test_clean_stream_verifies(self):
        prog = small_program()
        reverify(prog, stream_of(prog))

    def test_bad_opcode(self):
        prog = small_program()
        stream = stream_of(prog) + [(99, idx(0))]
        with pytest.raises(BadOpcode, match="unknown opcode 99"):
            reverify(prog, stream)

    def test_wrong_arity_is_bad_opcode(self):
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_CNOT, idx(0))]
        with pytest.raises(BadOpcode, match="expects 2 operand"):
            reverify(prog, stream)

    def test_empty_tuple_is_bad_opcode(self):
        prog = small_program()
        with pytest.raises(BadOpcode, match="empty instruction"):
            reverify(prog, stream_of(prog) + [()])

    def test_qubit_index_out_of_range(self):
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_H, idx(7))]
        with pytest.raises(OperandRangeError, match="qubit index outside"):
            reverify(prog, stream)

    def test_negative_qubit_index(self):
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_H, idx(-1))]
        with pytest.raises(OperandRangeError, match="qubit index outside"):
            reverify(prog, stream)

    def test_cbit_index_out_of_range(self):
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_M, idx(0), idx(40))]
        with pytest.raises(OperandRangeError, match="cbit index outside"):
            reverify(prog, stream)

    def test_noise_slice_past_budget(self):
        prog = small_program()
        total = prog._counts["g1"]
        stream = stream_of(prog) + [(cmod._OP_NG1, idx(0), total, 1)]
        with pytest.raises(OperandRangeError, match="noise-plane slice"):
            reverify(prog, stream)

    def test_aliased_fused_batch(self):
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_H, idx(0, 0))]
        with pytest.raises(BufferAliasError, match="duplicate qubit rows"):
            reverify(prog, stream)

    def test_control_target_overlap(self):
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_CNOT, idx(0, 1), idx(1, 2))]
        with pytest.raises(BufferAliasError, match="controls and targets overlap"):
            reverify(prog, stream)

    def test_replayed_noise_plane_rows(self):
        prog = small_program()
        # Duplicate an existing noise instruction: its plane slice is now
        # consumed twice — two locations sharing one sampled fault.
        stream = stream_of(prog)
        noise_ins = next(
            ins
            for ins in stream
            if ins[0] in (cmod._OP_NG1, cmod._OP_NG2, cmod._OP_NM)
        )
        with pytest.raises(BufferAliasError, match="consumed by two instructions"):
            reverify(prog, stream + [noise_ins])

    def test_dropped_noise_instruction(self):
        prog = small_program()
        stream = stream_of(prog)
        at = next(i for i, ins in enumerate(stream) if ins[0] == cmod._OP_NG1)
        lo, size = stream[at][2], stream[at][3]
        with pytest.raises(NoiseCoverageError, match=rf"\[{lo}, {lo + size}\) of channel 'g1'"):
            reverify(prog, stream[:at] + stream[at + 1:])

    def test_gap_between_noise_slices(self):
        # The first of the two CNOTs' noise instructions: the second still
        # consumes location 1, so location 0 is a gap, not a tail.
        prog = small_program()
        stream = stream_of(prog)
        at = next(i for i, ins in enumerate(stream) if ins[0] == cmod._OP_NG2)
        with pytest.raises(NoiseCoverageError, match=r"\[0, 1\) of channel 'g2'"):
            reverify(prog, stream[:at] + stream[at + 1:])

    def test_slice_past_the_plane(self):
        # NumPy would clip rows 2..4 of a 3-row plane to row 2 silently.
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_H, slice(2, 5, 1))]
        with pytest.raises(OperandRangeError, match="qubit slice"):
            reverify(prog, stream)

    def test_descending_slice_with_negative_stop(self):
        # slice(2, -1, -1) reads -1 as the last row and selects nothing.
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_H, slice(2, -1, -1))]
        with pytest.raises(OperandRangeError, match="qubit slice"):
            reverify(prog, stream)

    def test_slice_control_target_overlap(self):
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_CNOT, slice(0, 2, 1), slice(1, 3, 1))]
        with pytest.raises(BufferAliasError, match="controls and targets overlap"):
            reverify(prog, stream)

    @pytest.mark.parametrize(
        "operand", [slice(0, 3, 0), slice(None, 3, 1), slice(2, 2, 1)],
        ids=["zero-step", "implicit-start", "empty"],
    )
    def test_malformed_slice_operand(self, operand):
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_S, operand)]
        with pytest.raises(BadOpcode, match="qubit slice"):
            reverify(prog, stream)

    def test_slice_operands_name_their_rows(self):
        # Stride-2 measurement slices check sizes like index arrays do.
        prog = small_program()
        stream = stream_of(prog) + [(cmod._OP_M, slice(2, None, -2), slice(0, 1, 1))]
        with pytest.raises(BadOpcode, match="2 qubits but 1 cbits"):
            reverify(prog, stream)

    def test_noise_probability_above_one(self):
        prog = small_program()
        bad = circuit_level(1e-3)
        # NoiseModel validates in __post_init__; corrupt a frozen copy to
        # prove the verifier re-checks rather than trusting the dataclass.
        object.__setattr__(bad, "eps_meas", 1.5)
        with pytest.raises(NoiseRangeError, match="eps_meas=1.5"):
            verify_program(
                stream_of(prog),
                prog.circuit.num_qubits,
                prog.circuit.num_cbits,
                prog._counts,
                bad,
            )

    def test_negative_noise_probability(self):
        prog = small_program()
        bad = circuit_level(1e-3)
        object.__setattr__(bad, "eps_gate2", -0.25)
        with pytest.raises(NoiseRangeError, match="eps_gate2=-0.25"):
            verify_program(
                stream_of(prog),
                prog.circuit.num_qubits,
                prog.circuit.num_cbits,
                prog._counts,
                bad,
            )

    def test_diagnostics_are_distinct_types_under_one_base(self):
        kinds = {
            BadOpcode, OperandRangeError, BufferAliasError, NoiseCoverageError, NoiseRangeError
        }
        assert all(issubclass(k, ProgramVerificationError) for k in kinds)
        assert all(issubclass(k, ValueError) for k in kinds)
        assert len(kinds) == 5

    def test_error_carries_instruction_index(self):
        prog = small_program()
        stream = stream_of(prog)
        stream.append((99,))
        with pytest.raises(BadOpcode) as exc_info:
            reverify(prog, stream)
        assert exc_info.value.instruction_index == len(stream) - 1
        assert f"instruction {len(stream) - 1}" in str(exc_info.value)


class TestBuildTimeWiring:
    def test_verify_runs_during_construction(self, monkeypatch):
        calls = []
        original = CompiledFrameProgram.verify
        monkeypatch.setattr(
            CompiledFrameProgram,
            "verify",
            lambda self: (calls.append(1), original(self)),
        )
        small_program()
        assert calls

    def test_manual_reverify_of_built_program(self):
        prog = small_program()
        prog.verify()  # idempotent on a clean program

    def test_corrupting_a_built_program_is_caught_on_reverify(self):
        prog = small_program()
        prog._instructions = stream_of(prog) + [(cmod._OP_H, idx(99))]
        with pytest.raises(OperandRangeError):
            prog.verify()


class TestShippedExperimentsVerifyClean:
    """Building a protocol compiles (and therefore verifies) its factory
    and extraction programs; reverifying the streams directly makes the
    assertion explicit rather than relying on __init__ side effects."""

    @pytest.fixture(scope="class")
    def noise(self):
        return circuit_level(1e-3)

    def _all_programs(self, protocol):
        progs = []
        for attr in ("_factory_prog", "_extract_prog"):
            if hasattr(protocol, attr):
                progs.append(getattr(protocol, attr))
        progs.extend(getattr(protocol, "_factory_progs", {}).values())
        return progs

    @pytest.mark.parametrize(
        "build",
        [
            lambda noise: SteaneECProtocol(noise),
            lambda noise: ShorECProtocol(SteaneCode(), noise),
            lambda noise: ShorECProtocol(ShorNineCode(), noise),
        ],
        ids=["steane-ec", "shor-ec-steane", "shor-ec-shor9"],
    )
    def test_protocol_programs_verify(self, build, noise):
        protocol = build(noise)
        progs = self._all_programs(protocol)
        assert progs, "expected compiled programs on the protocol"
        for prog in progs:
            reverify(prog, stream_of(prog))

    def test_unfused_variant_also_verifies(self, noise):
        circ = SteaneECProtocol(noise).prep.circuit()
        prog = CompiledFrameProgram(circ, noise, fuse=False)
        reverify(prog, stream_of(prog))

    def test_noise_free_program_verifies(self):
        circ = Circuit(2)
        circ.h(0)
        circ.cnot(0, 1)
        prog = CompiledFrameProgram(circ, NoiseModel())
        reverify(prog, stream_of(prog))


class TestVerifierImportsNoLinter:
    """Every spawned Monte Carlo worker imports the verifier when it
    rebuilds a program; the package re-exports the linter's names lazily,
    so that import never loads the linter or its rule catalog."""

    @staticmethod
    def loaded_after(statement: str) -> set[str]:
        probe = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        ).stdout
        return set(out.split())

    def test_the_verifier_loads_neither_linter_nor_diagnostics(self):
        loaded = self.loaded_after("import repro.analysis.progcheck")
        assert "repro.analysis.progcheck" in loaded
        assert not loaded & {"repro.analysis.linter", "repro.analysis.diagnostics"}

    def test_the_linter_names_still_resolve(self):
        loaded = self.loaded_after("from repro.analysis import lint_paths, RULES, verify_program")
        assert {"repro.analysis.linter", "repro.analysis.diagnostics"} <= loaded
