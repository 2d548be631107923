"""Compiler + interpreter for bit-packed Pauli-frame simulation.

:class:`CompiledFrameProgram` lowers a :class:`repro.circuits.Circuit` into
a flat instruction stream executed over bit-packed frames (see
``packing.py``): shots live along the bit axis of ``uint64`` words, so one
XOR touches 64 shots.  Two compile-time transformations carry the speedup:

* **Gate fusion** — consecutive operations of the same kind acting on
  disjoint qubits collapse into a single fancy-indexed row operation.  The
  transversal structure of fault-tolerant gadgets (rows of parallel CNOTs,
  blocks of measurements) makes these batches long in practice.
* **Noise-location precompute** — every stochastic location is assigned, in
  program order, an index within its channel class (single-qubit gate,
  two-qubit gate, measurement, preparation, storage).  At run time each
  class is sampled in *one* vectorized draw covering all of its locations,
  instead of one RNG call per operation.  Below ``_SPARSE_MAX_P`` the draw
  uses exact geometric-gap (skip) sampling, so its cost scales with the
  expected number of faults rather than locations x shots.  Faults are
  applied the same way: each class's draw becomes one sorted hit list, an
  entry per (location, 64-shot word) that any component hits, and each
  noise instruction XORs its locations' entries into just the frame words
  they name.  No dense locations x words noise plane is ever built.

Semantics match the legacy interpreter in ``engine.py`` exactly on
deterministic paths (no noise, arbitrary initial frames and fault
injections) and in distribution on noisy paths; the parity test suite in
``tests/test_pauliframe_compiled.py`` pins both.  Fault injections need
operation-boundary resolution, which fused batches erase, so they run on an
unfused twin program (see :meth:`FrameSimulator.run
<repro.pauliframe.engine.FrameSimulator.run>`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.noise.models import NoiseModel
from repro.pauliframe.engine import (
    FrameResult,
    build_fault_schedule,
    validate_frame_circuit,
)
from repro.pauliframe.packing import pack_shot_major, unpack_shot_major, words_for
from repro.util.rng import as_rng

__all__ = ["CompiledFrameProgram"]

# Instruction opcodes.  Frame ops first, then noise-application ops.
_OP_H = 0
_OP_S = 1       # S and SDG share the frame action fz ^= fx
_OP_RP = 2      # RPRIME: fx ^= fz
_OP_CNOT = 3
_OP_CZ = 4
_OP_CY = 5
_OP_SWAP = 6
_OP_M = 7
_OP_MX = 8
_OP_R = 9
_OP_COND = 10   # classically conditioned Pauli (+ masked gate noise)
_OP_NG1 = 11    # single-qubit depolarizing faults
_OP_NG2 = 12    # two-qubit gate faults
_OP_NM = 13     # measurement-record flips
_OP_NP = 14     # faulty preparations
_OP_NSTORE = 15  # storage depolarizing faults (all qubits, one TICK)

_ONE_QUBIT_KIND = {
    "H": "H",
    "S": "S",
    "SDG": "S",
    "RPRIME": "RP",
    # Paulis are frame-transparent but still noisy physical gates.
    "I": "P1",
    "X": "P1",
    "Y": "P1",
    "Z": "P1",
}
_TWO_QUBIT_KIND = {"CNOT": "CNOT", "CZ": "CZ", "CY": "CY", "SWAP": "SWAP"}
_FRAME_OPCODE = {
    "H": _OP_H,
    "S": _OP_S,
    "RP": _OP_RP,
    "CNOT": _OP_CNOT,
    "CZ": _OP_CZ,
    "CY": _OP_CY,
    "SWAP": _OP_SWAP,
    "M": _OP_M,
    "MX": _OP_MX,
    "R": _OP_R,
}

# Above this probability a dense (locations x shots) draw is cheaper than
# geometric skip-sampling; below it the sparse path wins by ~1/p.
_SPARSE_MAX_P = 0.05


# ----------------------------------------------------------------------
# Fault sampling.  One call per channel class per run; identical sampling
# order regardless of fusion, so fused and unfused programs give
# bit-identical results from the same seed.
# ----------------------------------------------------------------------
def _bernoulli_positions(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Indices in ``[0, total)`` hit by independent Bernoulli(p) trials.

    Exact skip sampling: gaps between successive hits are geometric, so the
    cost is O(total * p) instead of O(total).  A gap longer than ``total``
    ends the sequence whatever its length, so gaps are clamped to ``total +
    1`` before summing: at tiny ``p`` the geometric draw saturates at the
    int64 maximum and an unclamped running sum would wrap negative.
    """
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    expect = total * p
    chunk = int(expect + 10.0 * math.sqrt(expect + 1.0) + 16.0)
    parts: list[np.ndarray] = []
    last = -1
    while last < total:
        gaps = np.minimum(rng.geometric(p, size=chunk), total + 1)
        positions = np.cumsum(gaps, dtype=np.int64) + last
        parts.append(positions)
        last = int(positions[-1])
    out = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return out[out < total]


def _draw_hits(
    rng: np.random.Generator, count: int, shots: int, p: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sorted hit positions ``location * shots + shot`` of one channel class.

    Above ``_SPARSE_MAX_P`` the draw is dense and the hits' uniforms come
    back too, for :func:`_conditional_kind`; below it the draw is sparse and
    the second value is ``None``.
    """
    if p > _SPARSE_MAX_P:
        u = rng.random((count, shots)).ravel()
        idx = np.flatnonzero(u < p)
        return idx, u[idx]
    return _bernoulli_positions(rng, count * shots, p), None


def _conditional_kind(u: np.ndarray, p: float, sides: int) -> np.ndarray:
    """Uniform {0..sides-1} from the same uniforms that decided hit = u < p.

    Conditioned on ``u < p``, ``u / p`` is uniform on [0, 1), so one draw
    yields both the hit mask and an independent kind — halving RNG cost on
    the dense path.
    """
    return np.minimum((u * (sides / p)).astype(np.int64), sides - 1)


@dataclass
class _Hits:
    """The sampled faults of one channel class, one entry per hit word.

    Entry ``i`` is the 64-shot word ``word[i]`` of location ``loc[i]``, and
    ``bits[c, i]`` is the shots of that word where component ``c`` fires:
    X and Z for depolarizing classes, ax, az, bx and bz for two-qubit
    gates, the flip alone for measurement and preparation.  Entries are
    sorted by (location, word) and never repeat a pair, and locations ``[lo,
    lo + size)`` own entries ``[bounds[lo], bounds[lo + size])``.
    """

    loc: np.ndarray
    word: np.ndarray
    bits: np.ndarray
    bounds: np.ndarray

    def span(self, lo: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(offset from ``lo``, word, bits) of the entries of ``size``
        locations from ``lo``."""
        a, b = self.bounds[lo], self.bounds[lo + size]
        return self.loc[a:b] - lo, self.word[a:b], self.bits[:, a:b]


def _hits(count: int, shots: int, idx: np.ndarray, *components: np.ndarray) -> _Hits:
    """Fold sorted hit positions into one entry per (location, word).

    ``components`` are per-hit booleans.  Sorted positions make ``location
    * words + word`` non-decreasing, so each run of equal keys is one entry
    and one ``reduceat`` ORs its shot bits per component.
    """
    loc, shot = np.divmod(idx, shots)
    word = shot >> 6
    first = np.flatnonzero(np.diff(loc * words_for(shots) + word, prepend=-1))
    bit = np.uint64(1) << (shot & 63).astype(np.uint64)
    bits = np.bitwise_or.reduceat(np.stack(components) * bit, first, axis=1)
    loc = loc[first]
    return _Hits(loc, word[first], bits, np.searchsorted(loc, np.arange(count + 1)))


def _depolarize_hits(rng: np.random.Generator, count: int, shots: int, p: float) -> _Hits:
    """X/Z hits for ``count`` uniform-X/Y/Z depolarizing locations."""
    idx, u = _draw_hits(rng, count, shots, p)
    kind = rng.integers(0, 3, size=idx.size) if u is None else _conditional_kind(u, p, 3)
    return _hits(count, shots, idx, kind != 2, kind != 0)  # 0: X, 1: Y, 2: Z


def _bernoulli_hits(rng: np.random.Generator, count: int, shots: int, p: float) -> _Hits:
    """Flip hits for ``count`` plain Bernoulli(p) locations (meas/prep)."""
    idx, _ = _draw_hits(rng, count, shots, p)
    return _hits(count, shots, idx, np.ones(idx.size, dtype=bool))


def _two_qubit_hits(
    rng: np.random.Generator, count: int, shots: int, noise: NoiseModel
) -> _Hits:
    """(ax, az, bx, bz) hits for ``count`` two-qubit gate locations."""
    p = noise.eps_gate2
    idx, u = _draw_hits(rng, count, shots, p)
    if noise.two_qubit_mode == "both_damaged":
        # §5's pessimistic model: one hit draws an independent uniform
        # non-trivial-or-not X/Y/Z on each touched qubit.
        if u is None:
            kind_a = rng.integers(0, 3, size=idx.size)
            kind_b = rng.integers(0, 3, size=idx.size)
        else:
            kind_a = _conditional_kind(u, p, 3)
            kind_b = rng.integers(0, 3, size=(count, shots)).ravel()[idx]
        return _hits(count, shots, idx, kind_a != 2, kind_a != 0, kind_b != 2, kind_b != 0)
    # depolarizing15: uniform over the 15 nontrivial pair Paulis.
    pair = rng.integers(1, 16, size=idx.size) if u is None else _conditional_kind(u, p, 15) + 1
    return _hits(count, shots, idx, *[((pair >> s) & 1) == 1 for s in (3, 2, 1, 0)])


def _inject_packed(fx: np.ndarray, fz: np.ndarray, shot: int, qubit: int, kind: str) -> None:
    bit = np.uint64(1) << np.uint64(shot & 63)
    word = shot >> 6
    if kind in ("X", "Y"):
        fx[qubit, word] ^= bit
    if kind in ("Z", "Y"):
        fz[qubit, word] ^= bit


class CompiledFrameProgram:
    """A circuit lowered to a packed-frame instruction stream.

    Parameters
    ----------
    circuit, noise: same contract as :class:`FrameSimulator`.
    fuse: collapse runs of same-kind disjoint-qubit operations into single
        batched instructions.  ``fuse=False`` keeps one instruction group
        per operation, which is what fault injection needs; both variants
        consume the RNG identically, so results are bit-identical.
    """

    def __init__(self, circuit: Circuit, noise: NoiseModel | None = None, fuse: bool = True) -> None:
        self.circuit = circuit
        self.noise = noise or NoiseModel()
        self.fuse = fuse
        # Snapshot for staleness checks: Circuit is append-only, so a grown
        # op count is the one way the instruction stream can go stale.
        self.compiled_ops = len(circuit)
        validate_frame_circuit(circuit)
        self._compile()
        self.verify()

    def verify(self) -> None:
        """Statically verify the compiled instruction stream.

        Runs :func:`repro.analysis.progcheck.verify_program` over the
        packed tuples ``_compile`` just emitted — opcode validity, operand
        bounds, fused-batch aliasing, noise-plane budgets, probability
        ranges.  Raises a typed
        :class:`~repro.analysis.progcheck.ProgramVerificationError`
        subclass on the first violation.  Imported lazily: progcheck needs
        this module's opcode constants, so a module-level import would
        cycle.
        """
        from repro.analysis.progcheck import verify_program

        verify_program(
            self._instructions,
            self.circuit.num_qubits,
            self.circuit.num_cbits,
            self._counts,
            self.noise,
        )

    # ------------------------------------------------------------------
    def _compile(self) -> None:
        noise = self.noise
        num_qubits = self.circuit.num_qubits
        instrs: list[tuple] = []
        op_slices: list[tuple[int, int]] = []
        counts = {"g1": 0, "g2": 0, "meas": 0, "prep": 0, "store": 0}
        # Current fusion batch.
        state = {"kind": None}
        q1: list[int] = []
        q2: list[int] = []
        touched_q: set[int] = set()
        touched_c: set[int] = set()

        def flush() -> None:
            kind = state["kind"]
            if kind is None:
                return
            size = len(q1)
            idx1 = np.array(q1, dtype=np.intp)
            idx2 = np.array(q2, dtype=np.intp)
            if kind in ("H", "S", "RP"):
                instrs.append((_FRAME_OPCODE[kind], idx1))
            elif kind in ("CNOT", "CZ", "CY", "SWAP"):
                instrs.append((_FRAME_OPCODE[kind], idx1, idx2))
            elif kind in ("M", "MX"):
                instrs.append((_FRAME_OPCODE[kind], idx1, idx2))
                if noise.eps_meas > 0:
                    instrs.append((_OP_NM, idx2, counts["meas"], size))
                    counts["meas"] += size
            elif kind == "R":
                instrs.append((_OP_R, idx1))
                if noise.eps_prep > 0:
                    instrs.append((_OP_NP, idx1, counts["prep"], size))
                    counts["prep"] += size
            # "P1" (bare Paulis) emit no frame instruction, only gate noise.
            if kind in ("H", "S", "RP", "P1") and noise.eps_gate1 > 0:
                instrs.append((_OP_NG1, idx1, counts["g1"], size))
                counts["g1"] += size
            elif kind in ("CNOT", "CZ", "CY", "SWAP") and noise.eps_gate2 > 0:
                instrs.append((_OP_NG2, idx1, idx2, counts["g2"], size))
                counts["g2"] += size
            state["kind"] = None
            q1.clear()
            q2.clear()
            touched_q.clear()
            touched_c.clear()

        for op in self.circuit:
            # With fuse=False every op flushes immediately, so instruction
            # indices [start, end) delimit exactly this op's instructions —
            # the resolution fault injection needs.
            start = len(instrs)
            gate = op.gate
            if gate == "TICK":
                flush()
                if noise.eps_store > 0:
                    instrs.append((_OP_NSTORE, counts["store"]))
                    counts["store"] += num_qubits
            elif op.condition:
                flush()
                loc = -1
                if noise.eps_gate1 > 0:
                    loc = counts["g1"]
                    counts["g1"] += 1
                instrs.append(
                    (
                        _OP_COND,
                        gate in ("X", "Y"),
                        gate in ("Z", "Y"),
                        op.qubits[0],
                        np.array(op.condition, dtype=np.intp),
                        loc,
                    )
                )
            else:
                kind = _ONE_QUBIT_KIND.get(gate) or _TWO_QUBIT_KIND.get(gate) or gate
                if kind not in ("H", "S", "RP", "P1", "CNOT", "CZ", "CY", "SWAP", "M", "MX", "R"):
                    raise ValueError(f"unhandled gate {gate}")  # pragma: no cover
                joinable = (
                    self.fuse
                    and state["kind"] == kind
                    and touched_q.isdisjoint(op.qubits)
                    and touched_c.isdisjoint(op.cbits)
                )
                if not joinable:
                    flush()
                    state["kind"] = kind
                q1.append(op.qubits[0])
                if kind in ("CNOT", "CZ", "CY", "SWAP"):
                    q2.append(op.qubits[1])
                elif kind in ("M", "MX"):
                    q2.append(op.cbits[0])
                    touched_c.add(op.cbits[0])
                touched_q.update(op.qubits)
            if not self.fuse:
                flush()
                op_slices.append((start, len(instrs)))
        flush()
        self._instructions = instrs
        self._op_slices = op_slices
        self._counts = counts

    # ------------------------------------------------------------------
    def _sample_planes(self, rng: np.random.Generator, shots: int) -> dict[str, _Hits]:
        """One hit list per channel class, drawn in this fixed order."""
        counts, noise = self._counts, self.noise
        return {
            "g1": _depolarize_hits(rng, counts["g1"], shots, noise.eps_gate1),
            "g2": _two_qubit_hits(rng, counts["g2"], shots, noise),
            "meas": _bernoulli_hits(rng, counts["meas"], shots, noise.eps_meas),
            "prep": _bernoulli_hits(rng, counts["prep"], shots, noise.eps_prep),
            "store": _depolarize_hits(rng, counts["store"], shots, noise.eps_store),
        }

    # ------------------------------------------------------------------
    def new_buffers(self, shots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Freshly zeroed packed (fx, fz, flips) buffers for ``shots``."""
        nwords = words_for(shots)
        fx = np.zeros((self.circuit.num_qubits, nwords), dtype=np.uint64)
        fz = np.zeros_like(fx)
        flips = np.zeros((max(1, self.circuit.num_cbits), nwords), dtype=np.uint64)
        return fx, fz, flips

    def run_packed(
        self,
        shots: int,
        rng: int | np.random.Generator | None,
        fx: np.ndarray,
        fz: np.ndarray,
        flips: np.ndarray,
        fault_injections: list | None = None,
    ) -> None:
        """Execute in place over caller-provided packed buffers.

        ``fx``/``fz`` carry the initial frames on entry and the residual
        frames on exit; ``flips`` is zeroed here before execution.  Buffers
        must have ``words_for(shots)`` columns (reuse across rounds is the
        point of this entry).
        """
        rng = as_rng(rng)
        nwords = words_for(shots)
        if fx.shape != (self.circuit.num_qubits, nwords) or fz.shape != fx.shape:
            raise ValueError(
                f"frame buffers must be ({self.circuit.num_qubits}, {nwords}) uint64"
            )
        flips[:] = 0
        faults = self._sample_planes(rng, shots)
        if fault_injections is None:
            self._execute(self._instructions, fx, fz, flips, faults)
            return
        if self.fuse:
            raise ValueError("fault injections require an unfused program (fuse=False)")
        schedule = build_fault_schedule(fault_injections, shots)
        for shot, qubit, kind in schedule.get(-1, []):
            _inject_packed(fx, fz, shot, qubit, kind)
        for op_index, (start, end) in enumerate(self._op_slices):
            if end > start:
                self._execute(self._instructions[start:end], fx, fz, flips, faults)
            for shot, qubit, kind in schedule.get(op_index, []):
                _inject_packed(fx, fz, shot, qubit, kind)

    def run(
        self,
        shots: int,
        seed: int | np.random.Generator | None = None,
        initial_fx: np.ndarray | None = None,
        initial_fz: np.ndarray | None = None,
        fault_injections: list | None = None,
    ) -> FrameResult:
        """Drop-in equivalent of :meth:`FrameSimulator.run` (unpacked API)."""
        rng = as_rng(seed)
        fx, fz, flips = self.new_buffers(shots)
        # Broadcast before packing: the legacy engine's in-place XOR accepts
        # (1, n) initial frames via NumPy broadcasting, and packing a (1, n)
        # array directly would silently hit only shot 0 of each word.
        shape = (shots, self.circuit.num_qubits)
        if initial_fx is not None:
            fx ^= pack_shot_major(np.broadcast_to(np.asarray(initial_fx, dtype=np.uint8), shape))
        if initial_fz is not None:
            fz ^= pack_shot_major(np.broadcast_to(np.asarray(initial_fz, dtype=np.uint8), shape))
        self.run_packed(shots, rng, fx, fz, flips, fault_injections)
        return FrameResult(
            meas_flips=unpack_shot_major(flips, shots),
            fx=unpack_shot_major(fx, shots),
            fz=unpack_shot_major(fz, shots),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _execute(
        instrs: list[tuple],
        fx: np.ndarray,
        fz: np.ndarray,
        flips: np.ndarray,
        faults: dict[str, _Hits],
    ) -> None:
        # Each noise instruction XORs only the words its locations hit.
        # Fancy-indexed ^= is exact here: within one instruction every
        # (row, word) target occurs once, since a location owns at most one
        # entry per word and a fused batch never repeats a qubit or cbit.
        for ins in instrs:
            op = ins[0]
            if op == _OP_CNOT:
                _, ctl, tgt = ins
                fx[tgt] ^= fx[ctl]
                fz[ctl] ^= fz[tgt]
            elif op == _OP_M:
                _, qs, cs = ins
                flips[cs] = fx[qs]
                fz[qs] = 0
            elif op == _OP_H:
                qs = ins[1]
                tmp = fx[qs]
                fx[qs] = fz[qs]
                fz[qs] = tmp
            elif op == _OP_NG1:
                _, qs, lo, size = ins
                at, word, bits = faults["g1"].span(lo, size)
                if word.size:
                    rows = qs[at]
                    fx[rows, word] ^= bits[0]
                    fz[rows, word] ^= bits[1]
            elif op == _OP_NG2:
                _, qa, qb, lo, size = ins
                at, word, bits = faults["g2"].span(lo, size)
                if word.size:
                    rows_a, rows_b = qa[at], qb[at]
                    fx[rows_a, word] ^= bits[0]
                    fz[rows_a, word] ^= bits[1]
                    fx[rows_b, word] ^= bits[2]
                    fz[rows_b, word] ^= bits[3]
            elif op == _OP_R:
                qs = ins[1]
                fx[qs] = 0
                fz[qs] = 0
            elif op == _OP_NM:
                _, cs, lo, size = ins
                at, word, bits = faults["meas"].span(lo, size)
                if word.size:
                    flips[cs[at], word] ^= bits[0]
            elif op == _OP_NP:
                _, qs, lo, size = ins
                at, word, bits = faults["prep"].span(lo, size)
                if word.size:
                    fx[qs[at], word] ^= bits[0]
            elif op == _OP_NSTORE:
                # One location per qubit, in qubit order.
                at, word, bits = faults["store"].span(ins[1], fx.shape[0])
                if word.size:
                    fx[at, word] ^= bits[0]
                    fz[at, word] ^= bits[1]
            elif op == _OP_S:
                qs = ins[1]
                fz[qs] ^= fx[qs]
            elif op == _OP_RP:
                qs = ins[1]
                fx[qs] ^= fz[qs]
            elif op == _OP_CZ:
                _, qa, qb = ins
                fz[qb] ^= fx[qa]
                fz[qa] ^= fx[qb]
            elif op == _OP_CY:
                _, ctl, tgt = ins
                fz[ctl] ^= fx[tgt] ^ fz[tgt]
                fx[tgt] ^= fx[ctl]
                fz[tgt] ^= fx[ctl]
            elif op == _OP_SWAP:
                _, qa, qb = ins
                tmp = fx[qa]
                fx[qa] = fx[qb]
                fx[qb] = tmp
                tmp = fz[qa]
                fz[qa] = fz[qb]
                fz[qb] = tmp
            elif op == _OP_MX:
                _, qs, cs = ins
                flips[cs] = fz[qs]
                fx[qs] = 0
            elif op == _OP_COND:
                _, xflag, zflag, qubit, cond, loc = ins
                mask = np.bitwise_xor.reduce(flips[cond], axis=0)
                if xflag:
                    fx[qubit] ^= mask
                if zflag:
                    fz[qubit] ^= mask
                if loc >= 0:
                    # The conditional Pauli is physical only where it fires.
                    _, word, bits = faults["g1"].span(loc, 1)
                    if word.size:
                        fx[qubit, word] ^= bits[0] & mask[word]
                        fz[qubit, word] ^= bits[1] & mask[word]
            else:  # pragma: no cover
                raise AssertionError(f"bad opcode {op}")
