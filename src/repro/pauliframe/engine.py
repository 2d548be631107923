"""Batched Pauli-frame propagation through Clifford circuits.

State per shot: boolean vectors ``fx`` (X-error support) and ``fz``
(Z-error support) of length ``num_qubits``, stored as ``(shots, n)`` arrays
and updated **in place** with column XOR/swap operations (no per-shot Python
loops; see the HPC guide's vectorization notes).

Semantics
---------
* The frame is defined relative to the *noiseless reference execution* of
  the same circuit.  A measurement's recorded outcome differs from the
  reference outcome exactly when the appropriate frame bit is set (X frame
  for Z-basis measurement, Z frame for X-basis).
* Operations conditioned on classical parities are supported for Pauli
  gates only: the reference run and the noisy run may disagree on the
  condition, and the disagreement is itself the parity of measurement-flip
  bits, so the conditional Pauli is applied masked by that parity.  This is
  exactly the structure of the paper's recovery steps — all classically
  conditioned operations in Figs. 9 and 13 are (transversal) Paulis.
* Error injection follows :class:`repro.noise.NoiseModel`: depolarizing
  after gates, storage depolarizing at TICKs, measurement-record flips, and
  faulty preparations.

Sign bookkeeping is intentionally dropped: global phases and Pauli signs do
not affect error-correction statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit, Operation
from repro.noise.models import NoiseModel
from repro.util.rng import as_rng

__all__ = ["FrameSimulator", "FrameResult", "validate_frame_circuit"]


def build_fault_schedule(
    fault_injections: list, shots: int, circuit: Circuit
) -> dict[int, list[tuple[int, int, str]]]:
    """Normalize per-shot fault specs into an op-index -> entries schedule.

    See :meth:`FrameSimulator.run` for the spec format.  Every entry is
    checked before any frame is touched: ``op_index`` and ``qubit`` must
    be integers (``bool`` is not one; ``TypeError``) in ``[-1,
    len(circuit))`` and ``[0, num_qubits)`` (``ValueError``), and the kind
    one of X, Y, Z.  Out of range, an index would otherwise be dropped or
    count from the end without a word.
    """
    if len(fault_injections) != shots:
        raise ValueError("need exactly one fault spec (or list) per shot")
    bounds = {"op_index": (-1, len(circuit)), "qubit": (0, circuit.num_qubits)}
    schedule: dict[int, list[tuple[int, int, str]]] = {}
    for s, spec in enumerate(fault_injections):
        entries = [spec] if isinstance(spec, tuple) else list(spec)
        for op_index, qubit, kind in entries:
            for name, value in (("op_index", op_index), ("qubit", qubit)):
                if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                    raise TypeError(f"fault {name} must be an integer, got {value!r}")
                lo, hi = bounds[name]
                if not lo <= value < hi:
                    raise ValueError(f"fault {name} {value} is outside [{lo}, {hi})")
            if kind not in ("X", "Y", "Z"):
                raise ValueError(f"unknown fault kind {kind!r}")
            schedule.setdefault(int(op_index), []).append((s, int(qubit), kind))
    return schedule


def validate_frame_circuit(circuit: Circuit) -> None:
    """Reject circuits the frame formalism cannot represent.

    Frames propagate linearly only through Clifford gates, and classical
    control is exact only for Pauli corrections (see module docstring).
    """
    for op in circuit:
        if op.gate in ("CCX", "CCZ", "T"):
            raise ValueError(
                f"{op.gate} is not Clifford; the frame engine cannot propagate it"
            )
        if op.condition and op.gate not in ("X", "Y", "Z", "I"):
            raise ValueError(
                "classically conditioned operations must be Pauli gates "
                f"(got {op.gate})"
            )


@dataclass
class FrameResult:
    """Outcome of a batched frame simulation.

    Attributes
    ----------
    meas_flips:
        ``(shots, num_cbits)`` uint8 — 1 where the noisy run's recorded bit
        differs from the noiseless reference.
    fx, fz:
        ``(shots, num_qubits)`` uint8 final residual error frames.
    """

    meas_flips: np.ndarray
    fx: np.ndarray
    fz: np.ndarray

    @property
    def shots(self) -> int:
        return int(self.fx.shape[0])

    def residual_pauli_weight(self) -> np.ndarray:
        """Per-shot count of qubits carrying any residual error."""
        return (self.fx | self.fz).sum(axis=1)


class FrameSimulator:
    """Propagates ``shots`` Pauli frames through one circuit.

    The simulator object is reusable: :meth:`run` allocates fresh frames
    each call, so parameter sweeps can share the compiled operation list.

    Parameters
    ----------
    backend: ``"compiled"`` (default) lowers the circuit to the bit-packed
        instruction stream of :class:`repro.pauliframe.compiled.
        CompiledFrameProgram` — same results, ~orders faster at large shot
        counts.  ``"legacy"`` keeps the original per-operation interpreter;
        it remains the executable specification the parity suite tests the
        compiled engine against.  Injections always run on the legacy
        interpreter, whatever the backend.
    """

    def __init__(
        self,
        circuit: Circuit,
        noise: NoiseModel | None = None,
        backend: str = "compiled",
    ) -> None:
        if backend not in ("compiled", "legacy"):
            raise ValueError(f"unknown backend {backend!r}")
        self.circuit = circuit
        self.noise = noise or NoiseModel()
        self.backend = backend
        validate_frame_circuit(circuit)
        self._compiled = None

    # ------------------------------------------------------------------
    def _program(self):
        """Lazily compiled program.

        Recompiles when ``self.noise`` was swapped or the (append-only)
        circuit grew since the last run, so the mutate-and-rerun pattern
        the legacy backend allowed keeps working.  NoiseModel is frozen,
        so equality is a safe staleness test; for the circuit the op count
        is, because :class:`Circuit` only ever appends.
        """
        from repro.pauliframe.compiled import CompiledFrameProgram

        program = self._compiled
        if (
            program is None
            or program.noise != self.noise
            or program.compiled_ops != len(self.circuit)
        ):
            validate_frame_circuit(self.circuit)
            program = self._compiled = CompiledFrameProgram(self.circuit, self.noise)
        return program

    # ------------------------------------------------------------------
    def run(
        self,
        shots: int,
        seed: int | np.random.Generator | None = None,
        initial_fx: np.ndarray | None = None,
        initial_fz: np.ndarray | None = None,
        fault_injections: "list | None" = None,
    ) -> FrameResult:
        """Simulate ``shots`` independent noisy executions.

        ``fault_injections`` optionally places deterministic faults: entry
        ``s`` is either a single ``(op_index, qubit, kind)`` tuple or a
        list of them, with kind in {"X","Y","Z"}, injected into shot ``s``
        immediately *after* operation ``op_index`` executes (op_index −1
        means t = 0).  This is the exhaustive fault-path enumeration used
        by the §5 circuit counting; combine with a trivial noise model for
        pure fault-path analysis.  Injections need operation boundaries,
        which the compiled engine's fused batches erase, so such a run
        takes the legacy interpreter on either backend (and with a noisy
        model draws its noise the legacy way).
        """
        schedule: dict[int, list[tuple[int, int, str]]] = {}
        if fault_injections is not None:
            schedule = build_fault_schedule(fault_injections, shots, self.circuit)
        elif self.backend == "compiled":
            return self._program().run(
                shots, seed, initial_fx=initial_fx, initial_fz=initial_fz
            )
        rng = as_rng(seed)
        n = self.circuit.num_qubits
        fx = np.zeros((shots, n), dtype=np.uint8)
        fz = np.zeros((shots, n), dtype=np.uint8)
        if initial_fx is not None:
            fx ^= np.asarray(initial_fx, dtype=np.uint8)
        if initial_fz is not None:
            fz ^= np.asarray(initial_fz, dtype=np.uint8)
        flips = np.zeros((shots, max(1, self.circuit.num_cbits)), dtype=np.uint8)
        for s, qubit, kind in schedule.get(-1, []):
            _inject(fx, fz, s, qubit, kind)
        for i, op in enumerate(self.circuit):
            self._apply(op, fx, fz, flips, rng)
            for s, qubit, kind in schedule.get(i, []):
                _inject(fx, fz, s, qubit, kind)
        return FrameResult(meas_flips=flips, fx=fx, fz=fz)

    # ------------------------------------------------------------------
    def _apply(
        self,
        op: Operation,
        fx: np.ndarray,
        fz: np.ndarray,
        flips: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        noise = self.noise
        gate = op.gate
        if gate == "TICK":
            if noise.eps_store > 0:
                # One (shots, n) draw for the whole TICK: every resting
                # qubit sees the same depolarizing channel, so a single
                # hit/kind matrix replaces n separate _depolarize calls.
                n = self.circuit.num_qubits
                hit = rng.random((fx.shape[0], n)) < noise.eps_store
                kind = rng.integers(0, 3, size=(fx.shape[0], n))
                _apply_depolarizing_kinds(fx, fz, hit, kind)
            return

        if op.condition:
            # Reference condition parity is 0 by gadget construction (all
            # used parities are deterministic in the noiseless run), so the
            # runs disagree exactly where the flip-parity is 1.
            mask = np.zeros(fx.shape[0], dtype=np.uint8)
            for c in op.condition:
                mask ^= flips[:, c]
            maskb = mask.astype(bool)
            q = op.qubits[0]
            if gate in ("X", "Y"):
                fx[maskb, q] ^= 1
            if gate in ("Z", "Y"):
                fz[maskb, q] ^= 1
            # The conditional Pauli is a physical gate application in the
            # shots where it actually fires, and can fail there.
            if noise.eps_gate1 > 0:
                _depolarize(fx, fz, q, noise.eps_gate1, rng, where=maskb)
            return

        if gate == "M":
            q, c = op.qubits[0], op.cbits[0]
            flips[:, c] = fx[:, q]
            if noise.eps_meas > 0:
                flips[:, c] ^= (rng.random(fx.shape[0]) < noise.eps_meas).astype(np.uint8)
            fz[:, q] = 0  # Z on a Z eigenstate is a phase: absorbed.
            return
        if gate == "MX":
            q, c = op.qubits[0], op.cbits[0]
            flips[:, c] = fz[:, q]
            if noise.eps_meas > 0:
                flips[:, c] ^= (rng.random(fx.shape[0]) < noise.eps_meas).astype(np.uint8)
            fx[:, q] = 0
            return
        if gate == "R":
            q = op.qubits[0]
            fx[:, q] = 0
            fz[:, q] = 0
            if noise.eps_prep > 0:
                fx[:, q] = (rng.random(fx.shape[0]) < noise.eps_prep).astype(np.uint8)
            return

        # Unitary Clifford gates: frame conjugation, then gate noise.
        if gate == "H":
            q = op.qubits[0]
            fx[:, q], fz[:, q] = fz[:, q].copy(), fx[:, q].copy()
        elif gate in ("S", "SDG"):
            q = op.qubits[0]
            fz[:, q] ^= fx[:, q]
        elif gate == "RPRIME":
            q = op.qubits[0]
            fx[:, q] ^= fz[:, q]
        elif gate in ("I", "X", "Y", "Z"):
            pass  # Paulis commute with the frame up to sign.
        elif gate == "CNOT":
            c, t = op.qubits
            fx[:, t] ^= fx[:, c]
            fz[:, c] ^= fz[:, t]
        elif gate == "CZ":
            a, b = op.qubits
            fz[:, b] ^= fx[:, a]
            fz[:, a] ^= fx[:, b]
        elif gate == "CY":
            # Conjugation table: X_c -> X_c Y_t, Z_c -> Z_c,
            # X_t -> Z_c X_t, Z_t -> Z_c Z_t.
            c, t = op.qubits
            fz[:, c] ^= fx[:, t] ^ fz[:, t]
            fx[:, t] ^= fx[:, c]
            fz[:, t] ^= fx[:, c]
        elif gate == "SWAP":
            a, b = op.qubits
            fx[:, a], fx[:, b] = fx[:, b].copy(), fx[:, a].copy()
            fz[:, a], fz[:, b] = fz[:, b].copy(), fz[:, a].copy()
        else:  # pragma: no cover - guarded in __init__
            raise ValueError(f"unhandled gate {gate}")

        if len(op.qubits) == 1 and noise.eps_gate1 > 0:
            _depolarize(fx, fz, op.qubits[0], noise.eps_gate1, rng)
        elif len(op.qubits) == 2 and noise.eps_gate2 > 0:
            _two_qubit_error(fx, fz, op.qubits, noise, rng)


def _inject(fx: np.ndarray, fz: np.ndarray, shot: int, qubit: int, kind: str) -> None:
    if kind in ("X", "Y"):
        fx[shot, qubit] ^= 1
    if kind in ("Z", "Y"):
        fz[shot, qubit] ^= 1


def _apply_depolarizing_kinds(
    fx: np.ndarray, fz: np.ndarray, hit: np.ndarray, kind: np.ndarray
) -> None:
    """XOR uniform-X/Y/Z hits into frame slices (kind 0: X, 1: Y, 2: Z).

    The single home of the kind convention for the legacy engine; ``fx``
    and ``fz`` may be full ``(shots, n)`` frames or single-qubit column
    views, matching ``hit``/``kind``'s shape.
    """
    fx ^= (hit & (kind != 2)).astype(np.uint8)
    fz ^= (hit & (kind != 0)).astype(np.uint8)


def _depolarize(
    fx: np.ndarray,
    fz: np.ndarray,
    qubit: int,
    eps: float,
    rng: np.random.Generator,
    where: np.ndarray | None = None,
) -> None:
    """Apply X/Y/Z each with probability eps/3 to one qubit, batched.

    ``where`` optionally restricts injection to a subset of shots (used for
    conditionally executed gates).
    """
    shots = fx.shape[0]
    u = rng.random(shots)
    hit = u < eps
    if where is not None:
        hit &= where
    if not hit.any():
        return
    kind = rng.integers(0, 3, size=shots)  # 0: X, 1: Y, 2: Z
    _apply_depolarizing_kinds(fx[:, qubit], fz[:, qubit], hit, kind)


def _two_qubit_error(
    fx: np.ndarray,
    fz: np.ndarray,
    qubits: tuple[int, ...],
    noise: NoiseModel,
    rng: np.random.Generator,
) -> None:
    shots = fx.shape[0]
    hit = rng.random(shots) < noise.eps_gate2
    if not hit.any():
        return
    if noise.two_qubit_mode == "both_damaged":
        # §5's pessimistic model: each touched qubit gets a uniform X/Y/Z.
        for q in qubits:
            kind = rng.integers(0, 3, size=shots)
            fx[:, q] ^= (hit & (kind != 2)).astype(np.uint8)
            fz[:, q] ^= (hit & (kind != 0)).astype(np.uint8)
    else:  # depolarizing15: uniform over the 15 nontrivial pair Paulis
        pair = rng.integers(1, 16, size=shots)
        a, b = qubits
        ax = (pair >> 3) & 1
        az = (pair >> 2) & 1
        bx = (pair >> 1) & 1
        bz = pair & 1
        fx[:, a] ^= (hit & (ax == 1)).astype(np.uint8)
        fz[:, a] ^= (hit & (az == 1)).astype(np.uint8)
        fx[:, b] ^= (hit & (bx == 1)).astype(np.uint8)
        fz[:, b] ^= (hit & (bz == 1)).astype(np.uint8)
