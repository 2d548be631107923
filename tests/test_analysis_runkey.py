"""Run-key stability: the content-addressed cache key must depend only on
physics + seed + shard plan.

Two regression guards for failure modes the static-analysis pass was
built to catch (RPL305 wall-clock-in-key, RPL203 scratch-state-in-pickle):

* wall clock — a ``time.time()`` anywhere in the key path would make
  every run cache-miss and silently recompute;
* scratch buffers — run keys hash the payload the shards receive, so a
  work buffer leaking into a protocol's pickle would make its cache
  identity depend on what it happened to execute last.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.codes.steane import SteaneCode
from repro.ft.exrec import SteaneECProtocol
from repro.noise.models import circuit_level
from repro.threshold.journal import compute_run_key
from repro.threshold.montecarlo import memory_experiment
from repro.threshold.sharded import _build_specs, _seed_fingerprint


def _payload(protocol, code):
    """The bytes every shard of a run of ``protocol`` receives."""
    specs, _ = _build_specs("memory", (protocol, code, 2), 500, 1, 4)
    return specs[0][1]


def _steane_args(noise=None):
    protocol = SteaneECProtocol(noise or circuit_level(1e-3))
    return protocol, _payload(protocol, protocol.code)


def test_run_key_independent_of_wall_clock(monkeypatch):
    _, args = _steane_args()
    fingerprint = _seed_fingerprint(1234)
    before = compute_run_key("memory", args, 500, fingerprint, 4)

    monkeypatch.setattr(time, "time", lambda: 1.0e9)
    monkeypatch.setattr(time, "time_ns", lambda: 10**18)
    shifted = compute_run_key("memory", args, 500, fingerprint, 4)
    monkeypatch.setattr(time, "time", lambda: 2.0e9)
    shifted_again = compute_run_key("memory", args, 500, fingerprint, 4)

    assert before == shifted == shifted_again


def test_run_key_independent_of_scratch_buffers():
    noise = circuit_level(1e-3)
    protocol, _ = _steane_args(noise)
    code = SteaneCode()
    fingerprint = _seed_fingerprint(99)
    fresh_key = compute_run_key("memory", _payload(protocol, code), 200, fingerprint, 2)

    # Execute real rounds so the packed work buffers are populated — if
    # they travelled in the pickle, the payload (and thus the key) would
    # now differ from the fresh protocol's.
    memory_experiment(protocol, code, rounds=2, shots=64, seed=7)
    assert protocol._state._flat, "expected the run to populate scratch buffers"

    assert compute_run_key("memory", _payload(protocol, code), 200, fingerprint, 2) == fresh_key

    # And a brand-new protocol over the same physics lands on the same key.
    rebuilt = SteaneECProtocol(noise)
    assert compute_run_key("memory", _payload(rebuilt, code), 200, fingerprint, 2) == fresh_key


def test_run_key_pins_seed_shots_and_shard_plan():
    _, args = _steane_args()
    base = compute_run_key("memory", args, 500, _seed_fingerprint(1), 4)

    assert compute_run_key("memory", args, 500, _seed_fingerprint(2), 4) != base
    assert compute_run_key("memory", args, 501, _seed_fingerprint(1), 4) != base
    assert compute_run_key("memory", args, 500, _seed_fingerprint(1), 5) != base
    # int seed and the equivalent SeedSequence derive different shard
    # streams, so they must fingerprint differently too.
    assert (
        compute_run_key(
            "memory", args, 500, _seed_fingerprint(np.random.SeedSequence(1)), 4
        )
        != base
    )


def test_journal_refuses_to_pickle(tmp_path):
    """CheckpointJournal holds a process-local sqlite connection; shipping
    one to a worker must fail loudly at pickle time, not deadlock later."""
    import pickle

    from repro.threshold.journal import CheckpointJournal

    journal = CheckpointJournal(tmp_path / "ckpt.sqlite")
    try:
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(journal)
    finally:
        journal.close()
