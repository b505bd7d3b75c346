"""The benchmark's contract with spaq: every name ``perfbench`` wraps
still resolves, and its workloads still build their inputs.

Without this, a moved or renamed name fails only in a traced or
all-workload benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import spaq

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layers import PATCHES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_every_wrapped_name_resolves_to_a_callable():
    missing = [
        f"{namespace}.{attribute}"
        for namespace, attribute, _, _ in PATCHES
        if not callable(getattr(importlib.import_module(namespace), attribute, None))
    ]
    assert missing == []


def test_exp1_workload_builds_its_config(tmp_path):
    inputs = WORKLOADS["exp1_hf_oracle"].setup(0, tmp_path)
    assert isinstance(inputs["cfg"], spaq.Exp1Config)
    assert inputs["cfg"].jobs == 1
