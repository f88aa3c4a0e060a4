"""Macro-equivalence gate for the batched hot paths.

The batched component paths (DRAM O(banks) issue scan, core
``tolist``-batched issue loop, engine bucket-batched bookkeeping — see
:mod:`repro.hotpath`) claim *bit-identical* simulation to the legacy
per-entry paths.  This test is the claim's enforcement at full-system
scale: M1 and M7 at ``scale=test``, two seeds each, batching on vs
off, asserting equality of the complete ``RunResult`` dataclass (as a
dict) and of the telemetry JSONL byte stream.

These are the slowest tests in the suite (the legacy path at test
scale is the expensive half), but they are the only ones that would
catch a divergence that the TINY engine goldens are too small to
excite (write-drain hysteresis, MSHR backpressure, multi-channel bus
contention all need sustained load).

The SMS pair (``sms-0.9``, ``sms-0``) takes its own DRAM fast path
(``MemoryController._sms_candidates``/``_sms_retry_hint``), so it gets
its own gate: M13 at ``smoke``, where SMS's no-op polls dominate, with
a count of fast-path polls proving the batched run really took it.

Both gates also count parked polls (``MemoryController._park``): the
batched runs must park their per-tick re-polls and the legacy runs,
which keep the literal per-tick chain, must not.
"""

import dataclasses
import hashlib

import pytest

from repro import hotpath
from repro.config import default_config
from repro.dram.controller import MemoryController
from repro.mixes import mix
from repro.policies import make_policy
from repro.sim.runner import run_system
from repro.telemetry import Telemetry


def _count_parks(monkeypatch) -> dict:
    parks = {"n": 0}
    park = MemoryController._park

    def counted(mc, wake):
        parks["n"] += 1
        return park(mc, wake)

    monkeypatch.setattr(MemoryController, "_park", counted)
    return parks


def _run(mix_name: str, seed: int, batching: bool, jsonl_path,
         policy: str = "throtcpuprio", scale: str = "test"):
    m = mix(mix_name)
    cfg = default_config(scale=scale, n_cpus=m.n_cpus, seed=seed)
    tel = Telemetry.to_file(str(jsonl_path))
    with hotpath.batching(batching):
        result = run_system(cfg, m, make_policy(policy), telemetry=tel)
    tel.close()
    return result


def _assert_identical(on, off, on_path, off_path):
    assert dataclasses.asdict(on) == dataclasses.asdict(off)
    on_hash = hashlib.sha256(on_path.read_bytes()).hexdigest()
    off_hash = hashlib.sha256(off_path.read_bytes()).hexdigest()
    assert on_hash == off_hash, "telemetry JSONL diverged"
    assert on_path.stat().st_size > 0      # the recording happened


@pytest.mark.parametrize("mix_name,seed", [("M1", 1), ("M1", 2),
                                           ("M7", 1), ("M7", 2)])
def test_batched_run_bit_identical_to_legacy(mix_name, seed, tmp_path,
                                             monkeypatch):
    parks = _count_parks(monkeypatch)
    on_path = tmp_path / f"{mix_name}-{seed}-on.jsonl"
    off_path = tmp_path / f"{mix_name}-{seed}-off.jsonl"
    on = _run(mix_name, seed, True, on_path)
    parked = parks["n"]
    off = _run(mix_name, seed, False, off_path)
    _assert_identical(on, off, on_path, off_path)
    assert parked > 0, "the batched run never parked a poll"
    assert parks["n"] == parked, "the legacy run parked a poll"


@pytest.mark.parametrize("policy", ["sms-0.9", "sms-0"])
def test_sms_batched_run_bit_identical_to_legacy(policy, tmp_path,
                                                 monkeypatch):
    polls = {"fast": 0}
    fast_candidates = MemoryController._sms_candidates

    def counted(mc):
        polls["fast"] += 1
        return fast_candidates(mc)

    monkeypatch.setattr(MemoryController, "_sms_candidates", counted)
    parks = _count_parks(monkeypatch)
    on_path = tmp_path / f"{policy}-on.jsonl"
    off_path = tmp_path / f"{policy}-off.jsonl"
    on = _run("M13", 1, True, on_path, policy=policy, scale="smoke")
    fast_polls = polls["fast"]
    parked = parks["n"]
    off = _run("M13", 1, False, off_path, policy=policy, scale="smoke")

    assert fast_polls > 0, "the batched run never took the SMS fast path"
    assert polls["fast"] == fast_polls, "the legacy run took the fast path"
    _assert_identical(on, off, on_path, off_path)
    assert parked > 0, "the batched run never parked a poll"
    assert parks["n"] == parked, "the legacy run parked a poll"
