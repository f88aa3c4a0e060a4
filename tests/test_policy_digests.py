"""Pinned result of every registry policy.

One W8 ``smoke`` run per policy name at seed 1, hashed as the SHA-256
of the canonical JSON of ``dataclasses.asdict(RunResult)`` (sorted
keys, no whitespace; the rendering ``perfbench/workloads.py::digest``
uses).  perfbench's own digest table covers only ``baseline``,
``sms-0.9`` and ``throtcpuprio``, so a change that moves any other
policy's numbers would otherwise pass unnoticed.

An entry changes only together with a CHANGES.md line saying why.
Run alone with ``PYTHONPATH=src python -m pytest
tests/test_policy_digests.py -q`` (~12 s on a 2-vCPU machine).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.config import default_config
from repro.mixes import mix
from repro.policies import POLICY_NAMES, make_policy
from repro.sim.runner import run_system

DIGESTS = {
    "baseline":
        "7380e7f7ec970d97fb2650c36a6fa773800eb9a83ec8d577e74467b2e06fbd0d",
    "bypass-all":
        "3ce006a10ed30c3f3fce785ce3311aff16393dda87846e77a40fca0ae92fe40c",
    "helm":
        "e52d37a0744e3667e87a07637142f093ae7361a5841df6fa6ffccde5f5f4aa43",
    "sms-0.9":
        "4886ea3a450afd7f9bc247e5ea95e640b1bddb863431848d3617e49cbe076df8",
    "sms-0":
        "eab98ed96fc0947749dabaa22f915ab5a8feb7d28e3d9d9ab5fa59b714dc2f66",
    "dynprio":
        "a5e91b65b2be9a04474b33d2d7213e077023084c4c0059b605047792c5d3521d",
    "dash":
        "98aabd0c0b3a0bc4a916f67250951814b1fdcc7c63920b85f1bce213a2d29e60",
    "cm-bal":
        "d88d878a0ea400fb54b72f6a26f33532c2b504c8b3a5bcefc71836711d302932",
    "tap":
        "b7f2935c145c5c1d9dfe8b0bb370ac0a6beaca58caa56fec640481d1347b8e81",
    "drp":
        "1de691f28b4406087c7b46a1b53adf567b5086c03a91d811ba0b3c387434783a",
    "throttle":
        "75a037c78e82c142736c516f8da25ceba156cf2ac3fb7709326313543b0ee932",
    "throtcpuprio":
        "be080e9ecd36393b55e21d0e6dbeed1f0ee4bbd9a73ca7d48695786a073d0995",
    "estimate":
        "57600d9c0d40873e48bd08e4718b26ceec96807eea19aeca04fcda122dcc6f59",
}


def _digest(result) -> str:
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_table_covers_every_registry_policy():
    assert sorted(POLICY_NAMES) == sorted(DIGESTS)
    assert len(set(DIGESTS.values())) == len(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_w8_smoke_result_is_pinned(name):
    m = mix("W8")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    assert _digest(run_system(cfg, m, make_policy(name))) == DIGESTS[name]
