"""Parity suite: compiled bit-packed frame engine vs the legacy interpreter.

Two agreement regimes, mirroring the engine's contract:

* **Exact** on every deterministic path — no noise, arbitrary initial
  frames, classically conditioned Paulis.  The two engines must produce
  bit-identical :class:`FrameResult` contents.  (Fault injections always
  run on the legacy interpreter.)
* **Statistical** on noisy paths — the engines consume randomness
  differently (per-location draws vs per-channel-class planes), so seeded
  outputs differ shot by shot; observed rates must agree within combined
  Wilson 95% intervals.

Plus packing round-trips and a seeded-determinism regression (same seed ⇒
identical results, run to run and fused vs unfused).
"""

import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.codes import FiveQubitCode, ShorNineCode, SteaneCode
from repro.ft import ShorECProtocol, SteaneECProtocol
from repro.ft.steane_ec import SteaneAncillaPrep, SteaneSyndromeExtraction
from repro.noise import NoiseModel, circuit_level
from repro.pauliframe import (
    CompiledFrameProgram,
    FrameSimulator,
    pack_rows,
    pack_shot_major,
    unpack_rows,
    unpack_shot_major,
    words_for,
)
from repro.pauliframe.compiled import (
    _CODE_AT,
    _DRAW_ORDER,
    FoldScratch,
    _batch_index,
    _bernoulli_positions,
    _draw_class,
    _fold,
)
from repro.analysis import progcheck
from repro.analysis.progcheck import NoiseRangeError, OperandRangeError
from repro.pauliframe import compiled
from repro.threshold import memory_experiment
from repro.util.stats import wilson_interval


def random_clifford_circuit(rng, num_qubits=6, num_cbits=6, depth=60, conditional=False):
    c = Circuit(num_qubits, num_cbits)
    one_q = ["H", "S", "SDG", "RPRIME", "X", "Y", "Z", "I"]
    two_q = ["CNOT", "CZ", "CY", "SWAP"]
    measured: list[int] = []
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.35:
            c.append(one_q[rng.integers(len(one_q))], int(rng.integers(num_qubits)))
        elif roll < 0.7:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            c.append(two_q[rng.integers(len(two_q))], int(a), int(b))
        elif roll < 0.8:
            q = int(rng.integers(num_qubits))
            cb = int(rng.integers(num_cbits))
            c.append("M" if rng.random() < 0.5 else "MX", q, cbits=(cb,))
            measured.append(cb)
        elif roll < 0.88:
            c.reset(int(rng.integers(num_qubits)))
        elif roll < 0.95 or not (conditional and measured):
            c.tick()
        else:
            cond = tuple({int(rng.choice(measured)) for _ in range(2)})
            gate = ["X", "Y", "Z"][rng.integers(3)]
            c.append(gate, int(rng.integers(num_qubits)), condition=cond)
    return c


# One model per noise opcode and sampling path (dense above the compiled
# engine's sparse cutoff, skip-sampled below it).
CHANNEL_NOISES = {
    "gate1_dense": NoiseModel(eps_gate1=0.3),
    "gate1_sparse": NoiseModel(eps_gate1=0.01),
    "meas_dense": NoiseModel(eps_meas=0.15),
    "prep_dense": NoiseModel(eps_prep=0.12),
    "store_dense": NoiseModel(eps_store=0.08),
    "gate2_both_damaged_dense": NoiseModel(eps_gate2=0.2, two_qubit_mode="both_damaged"),
    "gate2_depolarizing15_dense": NoiseModel(eps_gate2=0.2, two_qubit_mode="depolarizing15"),
    "gate2_depolarizing15_sparse": NoiseModel(eps_gate2=0.01, two_qubit_mode="depolarizing15"),
}


def assert_results_equal(a, b):
    np.testing.assert_array_equal(a.meas_flips, b.meas_flips)
    np.testing.assert_array_equal(a.fx, b.fx)
    np.testing.assert_array_equal(a.fz, b.fz)


class TestPacking:
    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 1000])
    def test_roundtrip_rows(self, shots):
        rng = np.random.default_rng(shots)
        bits = (rng.random((5, shots)) < 0.3).astype(np.uint8)
        packed = pack_rows(bits)
        assert packed.shape == (5, words_for(shots))
        np.testing.assert_array_equal(unpack_rows(packed, shots), bits)

    def test_roundtrip_shot_major(self):
        rng = np.random.default_rng(9)
        arr = (rng.random((130, 7)) < 0.4).astype(np.uint8)
        np.testing.assert_array_equal(unpack_shot_major(pack_shot_major(arr), 130), arr)

    def test_xor_in_packed_domain_matches_unpacked(self):
        rng = np.random.default_rng(10)
        a = (rng.random((3, 100)) < 0.5).astype(np.uint8)
        b = (rng.random((3, 100)) < 0.5).astype(np.uint8)
        np.testing.assert_array_equal(
            unpack_rows(pack_rows(a) ^ pack_rows(b), 100), a ^ b
        )


class TestExactParity:
    @pytest.mark.parametrize("trial", range(5))
    def test_random_circuits_noiseless(self, trial):
        rng = np.random.default_rng(trial)
        c = random_clifford_circuit(rng, conditional=True)
        shots = 70  # straddles the 64-bit word boundary
        init_fx = (rng.random((shots, c.num_qubits)) < 0.3).astype(np.uint8)
        init_fz = (rng.random((shots, c.num_qubits)) < 0.3).astype(np.uint8)
        legacy = FrameSimulator(c, backend="legacy").run(
            shots, seed=0, initial_fx=init_fx, initial_fz=init_fz
        )
        compiled = FrameSimulator(c, backend="compiled").run(
            shots, seed=0, initial_fx=init_fx, initial_fz=init_fz
        )
        assert_results_equal(legacy, compiled)

    def test_fused_and_unfused_bit_identical_under_noise(self):
        # Fusion must not change how the RNG is consumed: the noise planes
        # are keyed by location index, not by instruction shape.
        rng = np.random.default_rng(5)
        c = random_clifford_circuit(rng, conditional=True)
        noise = circuit_level(0.02)
        fused = CompiledFrameProgram(c, noise, fuse=True).run(300, seed=42)
        unfused = CompiledFrameProgram(c, noise, fuse=False).run(300, seed=42)
        assert_results_equal(fused, unfused)

    def test_e02_factory_circuit_noiseless_parity(self):
        c = SteaneAncillaPrep(SteaneCode(), verify=True).circuit()
        rng = np.random.default_rng(3)
        shots = 66
        init_fx = (rng.random((shots, c.num_qubits)) < 0.2).astype(np.uint8)
        legacy = FrameSimulator(c, backend="legacy").run(shots, seed=0, initial_fx=init_fx)
        compiled = FrameSimulator(c, backend="compiled").run(shots, seed=0, initial_fx=init_fx)
        assert_results_equal(legacy, compiled)

    def test_e04_extraction_circuit_noiseless_parity(self):
        # The E04 protocol circuit: X and Z frames on every data and
        # ancilla qubit at t = 0 must propagate identically.
        c = SteaneSyndromeExtraction(SteaneCode(), 2).extraction_circuit()
        rng = np.random.default_rng(4)
        shots = 70
        init_fx = (rng.random((shots, c.num_qubits)) < 0.1).astype(np.uint8)
        init_fz = (rng.random((shots, c.num_qubits)) < 0.1).astype(np.uint8)
        legacy = FrameSimulator(c, backend="legacy").run(
            shots, seed=0, initial_fx=init_fx, initial_fz=init_fz
        )
        compiled = FrameSimulator(c, backend="compiled").run(
            shots, seed=0, initial_fx=init_fx, initial_fz=init_fz
        )
        assert_results_equal(legacy, compiled)
        assert legacy.meas_flips.any()

    def test_broadcast_initial_frames_match_legacy(self):
        # The legacy engine accepts a (1, n) initial frame via NumPy
        # broadcasting; the packed engine must broadcast before packing
        # (packing a (1, n) array directly would hit only shot 0 per word).
        c = Circuit(3, 3).cnot(0, 1).measure(0, 0).measure(1, 1).measure(2, 2)
        init = np.array([[1, 0, 1]], dtype=np.uint8)
        shots = 130
        legacy = FrameSimulator(c, backend="legacy").run(shots, seed=0, initial_fx=init)
        compiled = FrameSimulator(c, backend="compiled").run(shots, seed=0, initial_fx=init)
        assert_results_equal(legacy, compiled)
        assert legacy.meas_flips[:, 0].sum() == shots

    def test_circuit_growth_recompiles(self):
        # Circuit is append-only; growing it between runs must invalidate
        # the cached instruction stream like the legacy interpreter would.
        c = Circuit(1, 1).measure(0, 0)
        sim = FrameSimulator(c)
        before = sim.run(10, seed=0, initial_fx=np.ones((10, 1), dtype=np.uint8))
        assert before.meas_flips[:, 0].all()
        c.x(0, condition=(0,))  # cancels the injected X after measuring it
        after = sim.run(10, seed=0, initial_fx=np.ones((10, 1), dtype=np.uint8))
        assert not after.fx.any()

    def test_noise_swap_recompiles(self):
        c = Circuit(1, 1).h(0).measure(0, 0)
        sim = FrameSimulator(c)
        assert sim.run(2000, seed=0).meas_flips.sum() == 0
        sim.noise = NoiseModel(eps_meas=1.0)
        assert sim.run(2000, seed=0).meas_flips.all()

    def test_protocol_broadcast_data_frames_match_legacy(self):
        # run_round must broadcast a (1, 7) data frame across all shots on
        # both engines, like the legacy in-place XOR did.
        data_fx = np.array([[1, 1, 0, 0, 0, 0, 0]], dtype=np.uint8)
        out = {}
        for engine in ("legacy", "compiled"):
            proto = SteaneECProtocol(NoiseModel(), engine=engine)
            out[engine] = proto.run_round(130, seed=0, data_fx=data_fx)
        np.testing.assert_array_equal(out["legacy"][0], out["compiled"][0])
        np.testing.assert_array_equal(out["legacy"][1], out["compiled"][1])
        # Eq. (12): the double bit-flip miscorrects identically in every shot.
        assert (out["compiled"][0] == out["compiled"][0][0]).all()
        assert out["compiled"][0].any()

    def test_protocol_noiseless_parity(self):
        # E02/E04 building block: a full Steane EC round with injected data
        # errors is deterministic without noise — engines must agree exactly.
        data_fx = np.zeros((8, 7), dtype=np.uint8)
        data_fx[:, 2] = 1
        out = {}
        for engine in ("legacy", "compiled"):
            proto = SteaneECProtocol(NoiseModel(), engine=engine)
            out[engine] = proto.run_round(8, seed=0, data_fx=data_fx)
        np.testing.assert_array_equal(out["legacy"][0], out["compiled"][0])
        np.testing.assert_array_equal(out["legacy"][1], out["compiled"][1])


class TestFaultInjection:
    """Injected faults run on the legacy interpreter whatever the backend,
    and a spec that names no operation or qubit of the circuit is refused
    before any frame is touched."""

    @pytest.mark.parametrize(
        "noise", [NoiseModel(), circuit_level(0.02)], ids=["noiseless", "noisy"]
    )
    def test_compiled_backend_runs_injections_on_the_legacy_interpreter(
        self, noise, monkeypatch
    ):
        rng = np.random.default_rng(77)
        c = random_clifford_circuit(rng, conditional=True)
        shots = 80
        specs = [
            [
                (int(rng.integers(-1, len(c))), int(rng.integers(c.num_qubits)),
                 "XYZ"[rng.integers(3)])
                for _ in range(rng.integers(1, 4))
            ]
            for _ in range(shots)
        ]
        legacy = FrameSimulator(c, noise, backend="legacy").run(
            shots, seed=3, fault_injections=specs
        )
        assert legacy.fx.any() and legacy.meas_flips.any()

        def no_program(*args, **kwargs):
            raise AssertionError("a run with injections compiled a program")

        monkeypatch.setattr(CompiledFrameProgram, "__init__", no_program)
        sim = FrameSimulator(c, noise, backend="compiled")
        assert_results_equal(sim.run(shots, seed=3, fault_injections=specs), legacy)
        assert sim._compiled is None

    def test_an_injected_run_keeps_the_cached_program(self):
        c = Circuit(2, 2).h(0).cnot(0, 1).measure(0, 0).measure(1, 1)
        sim = FrameSimulator(c, circuit_level(0.05), backend="compiled")
        plain = sim.run(130, seed=9)
        program = sim._compiled
        assert program is not None
        sim.run(2, seed=0, fault_injections=[(0, 0, "X"), (1, 1, "Z")])
        assert sim._compiled is program
        assert_results_equal(sim.run(130, seed=9), plain)
        assert sim._compiled is program

    CIRCUIT = Circuit(2, 2).h(0).cnot(0, 1).measure(0, 0).measure(1, 1)
    # Unchecked, qubit -1 would hit the last qubit, op indices outside the
    # circuit would be dropped, ``True`` would index the frame as a mask
    # (differently on the two backends), and 1.0 would run as op 1.  The
    # entries one past each end of [-1, 4) and [0, 2) pin the bounds.
    BAD_SPECS = {
        "qubit=-1": ((1, -1, "X"), ValueError),
        "qubit=2": ((1, 2, "X"), ValueError),
        "op_index=4": ((4, 0, "X"), ValueError),
        "op_index=7": ((7, 0, "X"), ValueError),
        "op_index=-2": ((-2, 0, "X"), ValueError),
        "op_index=-5": ((-5, 0, "X"), ValueError),
        "qubit=True": ((1, True, "X"), TypeError),
        "op_index=1.0": ((1.0, 0, "X"), TypeError),
    }

    @pytest.mark.parametrize("backend", ["compiled", "legacy"])
    @pytest.mark.parametrize("spec", sorted(BAD_SPECS))
    def test_spec_outside_the_circuit_is_refused(self, spec, backend):
        fault, error = self.BAD_SPECS[spec]
        sim = FrameSimulator(self.CIRCUIT, backend=backend)
        with pytest.raises(error, match="fault"):
            sim.run(2, seed=0, fault_injections=[(0, 0, "X"), fault])

    @pytest.mark.parametrize("backend", ["compiled", "legacy"])
    def test_op_index_minus_one_and_the_last_op_are_accepted(self, backend):
        sim = FrameSimulator(self.CIRCUIT, backend=backend)
        last = len(self.CIRCUIT) - 1
        specs = [(-1, 1, "X"), (last, 0, "Z"), (np.int64(1), np.int64(0), "Y")]
        res = sim.run(3, seed=0, fault_injections=specs)
        np.testing.assert_array_equal(res.meas_flips, [[0, 1], [0, 0], [1, 0]])
        np.testing.assert_array_equal(res.fx, [[0, 1], [0, 0], [1, 0]])
        np.testing.assert_array_equal(res.fz, [[0, 0], [1, 0], [0, 0]])

class TestStridedBatches:
    """Fused batches whose rows form an arithmetic progression run on
    basic slices (views); any other batch keeps an index array."""

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([2, 3, 4], slice(2, 5, 1)),
            ([3, 2, 1, 0], slice(3, None, -1)),
            ([7, 5, 3, 1], slice(7, None, -2)),
            ([1, 3, 5], slice(1, 7, 2)),
            ([4], slice(4, 5, 1)),
            ([0], slice(0, 1, 1)),
        ],
        ids=["ascending", "descending-to-0", "descending-stride-2", "stride-2", "one", "row-0"],
    )
    def test_progressions_lower_to_slices(self, rows, expected):
        index = _batch_index(rows)
        assert index == expected
        np.testing.assert_array_equal(np.arange(10)[index], rows)

    def test_other_batches_keep_an_index_array(self):
        index = _batch_index([3, 1, 0])
        assert isinstance(index, np.ndarray) and index.dtype == np.intp
        np.testing.assert_array_equal(index, [3, 1, 0])

    @staticmethod
    def strided_circuit():
        c = Circuit(8, 8)
        for q in (6, 4, 2, 0):  # H descending to row 0, stride 2
            c.h(q)
        for a, b in zip((3, 2, 1, 0), (7, 6, 5, 4)):  # CNOT descending
            c.cnot(a, b)
        for a, b in zip((0, 2, 4, 6), (1, 3, 5, 7)):  # SWAP stride 2, interleaved
            c.append("SWAP", a, b)
        for a, b in zip((7, 5, 3), (6, 4, 2)):  # CNOT descending, interleaved
            c.cnot(a, b)
        for q in (7, 5, 3, 1):  # H descending, stride 2, stopping at row 1
            c.h(q)
        for a, b in zip((6, 4, 2, 0), (7, 5, 3, 1)):  # SWAP descending to row 0
            c.append("SWAP", a, b)
        for a, b in zip((1, 3, 5), (0, 2, 4)):  # CZ and CY, stride 2
            c.cz(a, b)
        for a, b in zip((0, 2, 4), (1, 3, 5)):
            c.append("CY", a, b)
        for q in (5, 3, 1):
            c.s(q)
        for q, cb in zip((7, 6, 5, 4), (0, 1, 2, 3)):  # M descending, cbits ascending
            c.measure(q, cb)
        for q, cb in zip((3, 1), (7, 5)):
            c.append("MX", q, cbits=(cb,))
        return c

    def test_strided_batches_are_lowered(self):
        prog = CompiledFrameProgram(self.strided_circuit())
        steps = {
            a.step for ins in prog._instructions for a in ins[1:] if isinstance(a, slice)
        }
        assert {-1, -2, 2} <= steps
        assert all(
            isinstance(a, slice) for ins in prog._instructions for a in ins[1:]
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_noiseless_parity_with_legacy(self, seed):
        c = self.strided_circuit()
        rng = np.random.default_rng(seed)
        shots = 130
        init_fx = (rng.random((shots, c.num_qubits)) < 0.5).astype(np.uint8)
        init_fz = (rng.random((shots, c.num_qubits)) < 0.5).astype(np.uint8)
        legacy = FrameSimulator(c, backend="legacy").run(
            shots, seed=0, initial_fx=init_fx, initial_fz=init_fz
        )
        compiled = CompiledFrameProgram(c).run(
            shots, seed=0, initial_fx=init_fx, initial_fz=init_fz
        )
        assert_results_equal(legacy, compiled)


# Components per channel class, in the engine's order: (X, Z) for gate and
# storage depolarizing, (ax, az, bx, bz) for two-qubit gates, one flip for
# measurement and preparation.
COMPONENTS = {"g1": 2, "g2": 4, "meas": 1, "prep": 1, "store": 2}
# The fault code that fires each component alone: kinds X and Z, the
# 15-way pair bits of ax, az, bx and bz, and the flip (no code).
SINGLE_CODES = {"g1": [0, 2], "g2": [8, 4, 2, 1], "meas": [None], "prep": [None], "store": [0, 2]}


def single_fault_specs(circuit):
    """Per channel class, per location in program order, the legacy
    injections equivalent to each of its components firing alone.

    Enumerated from the circuit, not from the compiled program: gate and
    storage components are Paulis after their operation, a preparation
    fault is X after the R, and a record flip is X before and after the M
    (Z around an MX), which flips the record and leaves the frame as it
    was.
    """
    specs = {name: [] for name in COMPONENTS}
    for i, op in enumerate(circuit):
        gate, qs = op.gate, op.qubits
        assert not op.condition
        if gate == "TICK":
            for q in range(circuit.num_qubits):
                specs["store"].append([[(i, q, "X")], [(i, q, "Z")]])
        elif gate in ("CNOT", "CZ", "CY", "SWAP"):
            specs["g2"].append([[(i, q, p)] for q in qs for p in "XZ"])
        elif gate in ("M", "MX"):
            p = "X" if gate == "M" else "Z"
            specs["meas"].append([[(i - 1, qs[0], p), (i, qs[0], p)]])
        elif gate == "R":
            specs["prep"].append([[(i, qs[0], "X")]])
        else:
            specs["g1"].append([[(i, qs[0], "X")], [(i, qs[0], "Z")]])
    return specs


@pytest.fixture(scope="module")
def shipped_programs():
    """Every program ``python -m repro.analysis --verify-programs`` builds."""
    noise = circuit_level(1e-3)
    steane = SteaneECProtocol(noise)
    progs = {
        "steane-factory": steane._factory_prog,
        "steane-extraction": steane._extract_prog,
    }
    for name, code in (("steane", SteaneCode()), ("shor9", ShorNineCode())):
        shor = ShorECProtocol(code, noise)
        progs[f"shor-{name}-extraction"] = shor._extract_prog
        for width, prog in shor._factory_progs.items():
            progs[f"shor-{name}-cat{width}"] = prog
    return progs


class TestFaultByFault:
    """Every noise component of every shipped fused program, one lane
    each, through the fused ``_execute`` against the legacy interpreter's
    single-fault injection.  This is the exact oracle for the noise path:
    row tables, the fold's location space and mask table, flat targets and
    every noise opcode.  Two-qubit components are coded as 15-way pairs:
    only that table has a code for each component alone."""

    LANES = {
        "steane-factory": 241,
        "steane-extraction": 266,
        "shor-steane-extraction": 446,
        "shor-steane-cat4": 28,
        "shor-shor9-extraction": 450,
        "shor-shor9-cat2": 18,
        "shor-shor9-cat6": 38,
    }

    def test_every_shipped_program_is_covered(self, shipped_programs):
        assert set(shipped_programs) == set(self.LANES)

    @pytest.mark.parametrize("name", sorted(LANES))
    def test_each_component_matches_legacy(self, name, shipped_programs):
        prog = shipped_programs[name]
        assert prog.fuse
        specs = single_fault_specs(prog.circuit)
        assert {k: len(v) for k, v in specs.items()} == prog._counts
        shots = sum(len(loc) for locs in specs.values() for loc in locs)
        assert shots == self.LANES[name]
        lanes, drawn, lane = [], {}, 0
        for cls, locs in specs.items():
            idx, code = [], []
            for loc, components in enumerate(locs):
                for spec, c in zip(components, SINGLE_CODES[cls], strict=True):
                    idx.append(loc * shots + lane)
                    code.append(c)
                    lanes.append(spec)
                    lane += 1
            if idx:
                kinds = None if cls in ("meas", "prep") else np.array(code, dtype=np.int32)
                drawn[cls] = np.array(idx, dtype=np.int64), kinds
        layout = replace(
            prog._layout, code_at={**prog._layout.code_at, "g2": _CODE_AT["depolarizing15"]}
        )
        faults = _fold(layout, drawn, shots, FoldScratch())
        fx, fz, flips = prog.new_buffers(shots)
        CompiledFrameProgram._execute(prog._instructions, fx, fz, flips, faults)
        legacy = FrameSimulator(prog.circuit, NoiseModel(), backend="legacy").run(
            shots, seed=0, fault_injections=lanes
        )
        np.testing.assert_array_equal(unpack_shot_major(flips, shots), legacy.meas_flips)
        np.testing.assert_array_equal(unpack_shot_major(fx, shots), legacy.fx)
        np.testing.assert_array_equal(unpack_shot_major(fz, shots), legacy.fz)
        assert legacy.meas_flips.any(axis=1).sum() + legacy.fx.any(axis=1).sum() > 0


class TestBufferContract:
    """Faults are applied through flat indices into ``reshape(-1)`` views,
    so run_packed refuses buffers those indices cannot address."""

    @staticmethod
    def program():
        c = Circuit(2, 2).h(0).cnot(0, 1).measure(0, 0).measure(1, 1)
        return CompiledFrameProgram(c, circuit_level(0.05))

    @pytest.mark.parametrize("field", ["fx", "fz", "flips"])
    def test_rejects_non_contiguous_buffers(self, field):
        # A view of a wider array: reshape(-1) would copy it, and every
        # fault would land in the copy.
        prog = self.program()
        buffers = dict(zip(("fx", "fz", "flips"), prog.new_buffers(640)))
        rows, words = buffers[field].shape
        buffers[field] = np.zeros((rows, 2 * words), dtype=np.uint64)[:, :words]
        for buf in buffers.values():
            buf[:] = 1  # run_packed zeroes flips first, so any touch shows
        with pytest.raises(ValueError, match=f"{field} must be a C-contiguous"):
            prog.run_packed(640, 0, **buffers)
        assert all((buf == 1).all() for buf in buffers.values())

    def test_rejects_a_flips_buffer_of_the_wrong_shape(self):
        prog = self.program()
        fx, fz, _ = prog.new_buffers(640)
        flips = np.ones((1, fx.shape[1]), dtype=np.uint64)
        with pytest.raises(ValueError, match="flips"):
            prog.run_packed(640, 0, fx, fz, flips)
        assert (flips == 1).all()


class TestSeededDeterminism:
    def test_same_seed_same_result(self):
        rng = np.random.default_rng(8)
        c = random_clifford_circuit(rng, conditional=True)
        sim = FrameSimulator(c, circuit_level(0.01))
        a = sim.run(500, seed=123)
        b = sim.run(500, seed=123)
        assert_results_equal(a, b)

    def test_fresh_simulator_same_seed_same_result(self):
        rng = np.random.default_rng(8)
        c = random_clifford_circuit(rng, conditional=True)
        noise = circuit_level(0.01)
        a = FrameSimulator(c, noise).run(500, seed=123)
        b = FrameSimulator(c, noise).run(500, seed=123)
        assert_results_equal(a, b)

    def test_reused_fold_scratch_is_clean(self):
        # The scratch grows to 100k shots, is reused by a run that needs
        # far less of it, then grows no further; every run must give a
        # fresh program's frames.  At 2e-2 many words take several hits,
        # so repeated entries are merged in every run.
        c = random_clifford_circuit(np.random.default_rng(8), conditional=True)
        noise = circuit_level(2e-2)
        prog, scratch = CompiledFrameProgram(c, noise), FoldScratch()
        for shots in (100_000, 37, 100_000):
            ours = prog.new_buffers(shots)
            prog.run_packed(shots, 5, *ours, scratch=scratch)
            fresh = CompiledFrameProgram(c, noise)
            theirs = fresh.new_buffers(shots)
            fresh.run_packed(shots, 5, *theirs)
            for a, b in zip(ours, theirs):
                np.testing.assert_array_equal(a, b)
            assert ours[0].any()

    def test_packed_buffer_reuse_is_clean(self):
        # Reusing buffers across runs must not leak state between rounds.
        c = Circuit(2, 2).h(0).cnot(0, 1).measure(0, 0).measure(1, 1)
        prog = CompiledFrameProgram(c, circuit_level(0.05))
        fx, fz, flips = prog.new_buffers(200)
        prog.run_packed(200, 1, fx, fz, flips)
        first = (fx.copy(), fz.copy(), flips.copy())
        fx[:] = 0
        fz[:] = 0
        prog.run_packed(200, 1, fx, fz, flips)
        np.testing.assert_array_equal(first[0], fx)
        np.testing.assert_array_equal(first[1], fz)
        np.testing.assert_array_equal(first[2], flips)

    def test_memory_experiment_seeded_regression(self):
        proto = SteaneECProtocol(circuit_level(1e-3))
        r1 = memory_experiment(proto, SteaneCode(), rounds=3, shots=2000, seed=7)
        r2 = memory_experiment(proto, SteaneCode(), rounds=3, shots=2000, seed=7)
        assert r1.failures == r2.failures
        assert r1.failure_rate == r2.failure_rate

    # Exact seeded counts.  Decoding draws no randomness, so any change to
    # how syndromes are decoded or failures are counted must leave every
    # one of these unchanged.  Shot counts that are not a multiple of 64
    # leave padding lanes in the last packed word; Steane's padded factory
    # batch fills them with real noise, which must never be counted.
    PINNED = {
        "steane": (lambda: (SteaneECProtocol(circuit_level(2e-3)), SteaneCode()),
                   dict(rounds=3, shots=3001, seed=7), 207),
        "steane_first": (lambda: (SteaneECProtocol(circuit_level(2e-3), repetitions=1,
                                                   policy="first"), SteaneCode()),
                         dict(rounds=2, shots=3001, seed=8), 145),
        "steane_majority": (lambda: (SteaneECProtocol(circuit_level(2e-3), repetitions=3,
                                                      policy="majority"), SteaneCode()),
                            dict(rounds=2, shots=3001, seed=9), 327),
        "shor_steane": (lambda: (ShorECProtocol(SteaneCode(), circuit_level(2e-3)),
                                 SteaneCode()),
                        dict(rounds=2, shots=2001, seed=11), 70),
        "shor_shor9": (lambda: (ShorECProtocol(ShorNineCode(), circuit_level(2e-3)),
                                ShorNineCode()),
                       dict(rounds=2, shots=2001, seed=12), 37),
        "shor_five": (lambda: (ShorECProtocol(FiveQubitCode(), circuit_level(2e-3)),
                               FiveQubitCode()),
                      dict(rounds=2, shots=2001, seed=13), 92),
        "shor_majority": (lambda: (ShorECProtocol(SteaneCode(), circuit_level(2e-3),
                                                  repetitions=3, policy="majority"),
                                   SteaneCode()),
                          dict(rounds=2, shots=2001, seed=14), 180),
        "steane_sharded": (lambda: (SteaneECProtocol(circuit_level(2e-3)), SteaneCode()),
                           dict(rounds=2, shots=3001, seed=15, num_shards=4), 115),
        # Cat resampling where it bites: widths 2 and 6 at a rate where
        # many cats are rejected, no verification at all, and a batch
        # shorter than one 64-shot word, so block offsets split words.
        "shor_shor9_1e-2": (lambda: (ShorECProtocol(ShorNineCode(), circuit_level(1e-2)),
                                     ShorNineCode()),
                            dict(rounds=2, shots=2001, seed=16), 630),
        "shor_steane_unverified": (lambda: (ShorECProtocol(SteaneCode(), circuit_level(2e-3),
                                                           verify_ancilla=False),
                                            SteaneCode()),
                                   dict(rounds=2, shots=2001, seed=17), 226),
        "shor_steane_37": (lambda: (ShorECProtocol(SteaneCode(), circuit_level(1e-2)),
                                    SteaneCode()),
                           dict(rounds=3, shots=37, seed=18), 19),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_memory_experiment_pinned_counts(self, case):
        build, kwargs, failures = self.PINNED[case]
        proto, code = build()
        result = memory_experiment(proto, code, **kwargs)
        assert (result.shots, result.failures) == (kwargs["shots"], failures)


class TestEngineDigests:
    """Exact seeded output of the compiled engine on every noise opcode.

    A random circuit with conditional Paulis (so the masked gate noise
    runs) is executed under each channel model on both sampling paths and
    under the circuit-level model in both two-qubit modes.  The sha256 of
    the result bytes must not change when the engine's internals do; fused
    and unfused programs consume the RNG identically, so they share one
    digest.
    """

    NOISES = {
        **CHANNEL_NOISES,
        "circuit_both_damaged": circuit_level(2e-3),
        "circuit_depolarizing15": replace(circuit_level(2e-3), two_qubit_mode="depolarizing15"),
    }
    DIGESTS = {
        "gate1_dense": "1a339840c4c2b3243224e1099237a33c84b491fb9862ee0f176593e44982105d",
        "gate1_sparse": "95d9679e91134bae36dbcf26bc95b27c4ffa7e14fab4a60f02c1ad0d4b9a1cf7",
        "meas_dense": "eecb67eacf9fe4178b43e9a5a026579601e0c2d680c181f4e53ae7dc88be976d",
        "prep_dense": "13304760c4a8fa3d86160960ca896c3f1262ebd1f463dd3a7fc0e8c41ed5375b",
        "store_dense": "0ffedfe9fe0ebad9a83bcbda3da1503771b5790d47f435299bd2743460b90c20",
        "gate2_both_damaged_dense": (
            "73f8b93e2ea7df4b327bef2e1862dbd1eed5fbb3e084c29951776ae506e4cb64"
        ),
        "gate2_depolarizing15_dense": (
            "d0a065baed32040f35de82d6d1d3ae182d3dc04505746b6632fe700a1db3f69c"
        ),
        "gate2_depolarizing15_sparse": (
            "a4f34ed5bf1f859dd438e222d1090d162c1a185eff75426eee980e1c06247a8c"
        ),
        "circuit_both_damaged": "7002d582cff593bdb3a13e9c87c9fd719fb0e5cb4bd169a1b936d1c57bc1bde3",
        "circuit_depolarizing15": (
            "21cf147ae85c1f46a4aeefac33444f78cadb51c28371b05e4f8fbbd2be60781b"
        ),
    }

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_output_digest(self, name, fuse):
        c = random_clifford_circuit(np.random.default_rng(6), conditional=True)
        assert any(op.condition for op in c)
        res = CompiledFrameProgram(c, self.NOISES[name], fuse=fuse).run(1001, seed=29)
        digest = hashlib.sha256()
        for field in (res.meas_flips, res.fx, res.fz):
            digest.update(np.ascontiguousarray(field).tobytes())
        assert digest.hexdigest() == self.DIGESTS[name]


class TestEmptyClasses:
    """A class without locations draws nothing, so the fold skips it; its
    view of the run's faults is empty."""

    # No preparation and no TICK: prep and store have no locations.
    CIRCUIT = Circuit(2, 2).h(0).cnot(0, 1).measure(0, 0).measure(1, 1)

    @pytest.mark.parametrize("p", [1e-2, 0.3], ids=["sparse", "dense"])
    def test_class_without_locations_draws_nothing(self, p):
        noise = NoiseModel(eps_gate1=p, eps_gate2=p, eps_meas=p, eps_prep=p, eps_store=p)
        prog = CompiledFrameProgram(self.CIRCUIT, noise)
        assert prog._counts["prep"] == prog._counts["store"] == 0
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        faults = prog._sample_planes(rng, 1000)
        for name in _DRAW_ORDER:
            before = twin.bit_generator.state
            _draw_class(twin, name, prog._counts[name], 1000, noise)
            if not prog._counts[name]:
                assert twin.bit_generator.state == before
        assert rng.bit_generator.state == twin.bit_generator.state
        for name in ("prep", "store"):
            hits = faults[name]
            assert hits.bounds.size == 1
            assert all(row[hits.bounds[0] : hits.bounds[-1]].size == 0 for row in hits.bits)
        hits = faults["g2"]
        assert hits.bounds[-1] > hits.bounds[0]


class TestSharedStreams:
    """Programs whose circuit, fusion and nonzero rates match share one
    lowered stream: it is verified structurally once, its arrays are
    read-only, and each program still checks its own rates and pickles as
    if it had compiled alone."""

    CIRCUIT = random_clifford_circuit(np.random.default_rng(21), conditional=True)

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(compiled, "_STREAMS", {})

    @staticmethod
    def arrays(prog):
        found = [a for ins in prog._instructions for a in ins if isinstance(a, np.ndarray)]
        return found + list(prog._row_tables.values())

    def test_a_cached_build_pickles_as_a_cold_one(self, monkeypatch):
        CompiledFrameProgram(self.CIRCUIT, circuit_level(1e-3))
        warm = CompiledFrameProgram(self.CIRCUIT, circuit_level(3e-3))
        monkeypatch.setattr(compiled, "_STREAMS", {})
        cold = CompiledFrameProgram(self.CIRCUIT, circuit_level(3e-3))
        assert warm._instructions is not cold._instructions
        for protocol in (4, 5):
            assert pickle.dumps(warm, protocol=protocol) == pickle.dumps(cold, protocol=protocol)
        assert b"_stream" not in pickle.dumps(warm)
        copy = pickle.loads(pickle.dumps(warm))
        runs = [prog.run(500, seed=3) for prog in (copy, warm, cold)]
        for field in ("meas_flips", "fx", "fz"):
            assert all(np.array_equal(getattr(r, field), getattr(runs[0], field)) for r in runs)

    def test_shared_arrays_are_read_only(self):
        first = CompiledFrameProgram(self.CIRCUIT, circuit_level(1e-3))
        second = CompiledFrameProgram(self.CIRCUIT, circuit_level(2e-3))
        assert second._instructions is first._instructions
        assert second._row_tables is first._row_tables
        arrays = self.arrays(second)
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][...] = 0

    def test_the_stream_depends_on_which_rates_are_nonzero(self):
        noisy = CompiledFrameProgram(self.CIRCUIT, circuit_level(1e-3))
        no_store = CompiledFrameProgram(self.CIRCUIT, replace(circuit_level(1e-3), eps_store=0.0))
        unfused = CompiledFrameProgram(self.CIRCUIT, circuit_level(1e-3), fuse=False)
        assert len({id(p._instructions) for p in (noisy, no_store, unfused)}) == 3
        assert no_store._counts["store"] == 0 < noisy._counts["store"]

    def test_structure_is_verified_once_and_rates_every_time(self, monkeypatch):
        verified = []
        verify_stream = progcheck.verify_stream
        monkeypatch.setattr(
            progcheck, "verify_stream", lambda *args: (verified.append(1), verify_stream(*args))
        )
        for eps in (1e-3, 2e-3, 4e-3):
            CompiledFrameProgram(self.CIRCUIT, circuit_level(eps))
        assert len(verified) == 1
        bad = circuit_level(1e-3)
        object.__setattr__(bad, "eps_gate2", 1.5)
        with pytest.raises(NoiseRangeError, match="eps_gate2=1.5"):
            CompiledFrameProgram(self.CIRCUIT, bad)
        assert len(verified) == 1

    def test_unpickling_rebuilds_and_verifies(self, monkeypatch):
        """A program pickles its circuit, noise and fusion flag; loading it
        runs the constructor, so the receiving process takes its own cached
        stream and checks the rates."""
        prog = CompiledFrameProgram(self.CIRCUIT, circuit_level(1e-3), fuse=False)
        data = pickle.dumps(prog, pickle.HIGHEST_PROTOCOL)
        verified = []
        verify = CompiledFrameProgram.verify
        monkeypatch.setattr(
            CompiledFrameProgram, "verify", lambda self: (verified.append(self), verify(self))[1]
        )
        copy = pickle.loads(data)
        assert verified == [copy]
        assert copy._instructions is prog._instructions and copy.fuse is False
        assert pickle.dumps(copy, pickle.HIGHEST_PROTOCOL) == data
        bad = circuit_level(1e-3)
        object.__setattr__(bad, "eps_meas", 2.0)
        prog.noise = bad
        with pytest.raises(NoiseRangeError, match="eps_meas=2.0"):
            pickle.loads(pickle.dumps(prog))

    def test_a_replaced_stream_gets_the_full_verifier(self):
        prog = CompiledFrameProgram(self.CIRCUIT, circuit_level(1e-3))
        prog._instructions = list(prog._instructions) + [(compiled._OP_H, np.array([99]))]
        with pytest.raises(OperandRangeError):
            prog.verify()

    def test_the_cache_is_bounded_least_recently_used_first(self, monkeypatch):
        monkeypatch.setattr(compiled, "_STREAMS_MAX", 2)
        circuits = [Circuit(2).h(0), Circuit(2).h(1), Circuit(2).cnot(0, 1)]
        first = CompiledFrameProgram(circuits[0], circuit_level(1e-3))
        CompiledFrameProgram(circuits[1], circuit_level(1e-3))
        CompiledFrameProgram(circuits[0], circuit_level(2e-3))  # a hit refreshes it
        CompiledFrameProgram(circuits[2], circuit_level(1e-3))
        kept = [key[2] for key in compiled._STREAMS]
        assert kept == [tuple(circuits[0].operations), tuple(circuits[2].operations)]
        first.verify()  # a program keeps its own stream alive


class TestTinyRates:
    """NoiseModel accepts any rate in [0, 1].  Far below any physical rate
    the geometric gap draw saturates at the int64 maximum; the skip sampler
    must still end, in range, instead of wrapping its running sum."""

    @pytest.mark.parametrize("p", [5e-5, 1e-3, 0.05])
    def test_skip_sampler_matches_numpy_geometric(self, p):
        # The exponential fill must reproduce Generator.geometric's gaps
        # and leave the bit generator where geometric would.
        def reference(rng, total, p):
            expect = total * p
            chunk = int(expect + 10.0 * np.sqrt(expect + 1.0) + 16.0)
            parts, last = [], -1
            while last < total:
                gaps = np.minimum(rng.geometric(p, size=chunk), total + 1)
                parts.append(np.cumsum(gaps, dtype=np.int64) + last)
                last = int(parts[-1][-1])
            out = np.concatenate(parts)
            return out[out < total]

        for total in (1, 1000, 200_000):
            ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
            np.testing.assert_array_equal(
                _bernoulli_positions(ours, total, p), reference(theirs, total, p)
            )
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("p", [1e-19, 1e-30, 5e-324])
    def test_skip_sampler_terminates_in_range(self, p):
        rng = np.random.default_rng(1)
        for total in (1, 1000, 10**7):
            positions = _bernoulli_positions(rng, total, p)
            assert ((positions >= 0) & (positions < total)).all()
            assert (np.diff(positions) > 0).all()

    def test_tiny_measurement_rate_returns(self):
        res = FrameSimulator(Circuit(1, 1).measure(0, 0), NoiseModel(eps_meas=1e-30)).run(
            1000, seed=1
        )
        assert not res.meas_flips.any()

    def test_memory_experiment_at_tiny_rate(self):
        result = memory_experiment(
            SteaneECProtocol(circuit_level(1e-19)), SteaneCode(), rounds=2, shots=20_000, seed=3
        )
        assert result.failures == 0


def wilson_compatible(k1, n1, k2, n2):
    """True when two binomial observations have overlapping 95% intervals."""
    lo1, hi1 = wilson_interval(k1, n1)
    lo2, hi2 = wilson_interval(k2, n2)
    return max(lo1, lo2) <= min(hi1, hi2)


class TestStatisticalParity:
    SHOTS = 40_000

    @pytest.mark.parametrize("noise", list(CHANNEL_NOISES.values()))
    def test_channel_rates_match(self, noise):
        c = Circuit(2, 2)
        c.h(0).cnot(0, 1).tick().reset(1).measure(0, 0).measure(1, 1)
        res = {}
        for backend in ("legacy", "compiled"):
            res[backend] = FrameSimulator(c, noise, backend=backend).run(self.SHOTS, seed=11)
        for field in ("meas_flips", "fx", "fz"):
            a = getattr(res["legacy"], field)
            b = getattr(res["compiled"], field)
            for col in range(a.shape[1]):
                assert wilson_compatible(
                    int(a[:, col].sum()), self.SHOTS, int(b[:, col].sum()), self.SHOTS
                ), (field, col)

    def test_conditional_gate_noise_rates_match(self):
        # The conditional Pauli fires on ~half the shots and is noisy only
        # where it fires — the masked-noise rate must agree across engines.
        c = Circuit(1, 2)
        c.h(0).measure(0, 0)  # reference outcome 0; flips ~eps rate
        c = Circuit(1, 2).reset(0).measure(0, 0).x(0, condition=(0,)).measure(0, 1)
        noise = NoiseModel(eps_prep=0.5, eps_gate1=0.3)
        res = {}
        for backend in ("legacy", "compiled"):
            res[backend] = FrameSimulator(c, noise, backend=backend).run(self.SHOTS, seed=13)
        a, b = res["legacy"], res["compiled"]
        for col in range(2):
            assert wilson_compatible(
                int(a.meas_flips[:, col].sum()), self.SHOTS,
                int(b.meas_flips[:, col].sum()), self.SHOTS,
            )

    def test_steane_round_logical_rates_match(self):
        code = SteaneCode()
        eps = 2e-3
        counts = {}
        for engine in ("legacy", "compiled"):
            proto = SteaneECProtocol(circuit_level(eps), engine=engine)
            fx, fz = proto.run_round(self.SHOTS, seed=17)
            cfx, cfz = code.correct_frame(fx, fz)
            action = code.logical_action_of_frame(cfx, cfz)
            counts[engine] = int(action.any(axis=1).sum())
        assert wilson_compatible(counts["legacy"], self.SHOTS, counts["compiled"], self.SHOTS)

    @pytest.mark.parametrize("method", ["steane", "shor"])
    def test_majority_policy_rates_match(self, method):
        # Three readings per round, majority vote: bit-sliced over packed
        # planes on the compiled engine, byte per bit on the legacy one.
        def build(engine):
            noise = circuit_level(2e-3)
            kwargs = dict(repetitions=3, policy="majority", engine=engine)
            if method == "steane":
                return SteaneECProtocol(noise, **kwargs)
            return ShorECProtocol(SteaneCode(), noise, **kwargs)

        counts = {
            engine: memory_experiment(
                build(engine), SteaneCode(), rounds=1, shots=self.SHOTS, seed=23
            ).failures
            for engine in ("legacy", "compiled")
        }
        assert wilson_compatible(counts["legacy"], self.SHOTS, counts["compiled"], self.SHOTS)

    def test_packed_and_unpacked_protocol_entries_match(self):
        proto = SteaneECProtocol(circuit_level(1e-3))
        shots = 5000
        fx_u, fz_u = proto.run_round(shots, seed=19)
        dfx = np.zeros((7, words_for(shots)), dtype=np.uint64)
        dfz = np.zeros_like(dfx)
        proto.run_round_packed(shots, 19, dfx, dfz)
        np.testing.assert_array_equal(fx_u, unpack_shot_major(dfx, shots))
        np.testing.assert_array_equal(fz_u, unpack_shot_major(dfz, shots))
