"""Byte identity of the program's output: every part of `tests/traffic.py` is
recomputed and held against its digest in `tests/traffic_digests.json`.

A change that moves an output records the file again (`PYTHONPATH=src python
tests/traffic.py --record`) in the same commit and names each part that moved.

The search parts, and `cli` (whose `search` runs use them), are numpy and BLAS
arithmetic; they are compared only under the numpy version the file was
recorded with. `cli` and `cli-stderr` hold argparse's help and usage text, which
Python's minor versions word differently; they are compared only under the
recorded Python minor version. `bulk` and `cli-stderr` are Python float
arithmetic on states drawn by numpy's Generator, and are compared under any
numpy: a numpy release that changed those draws would fail here, naming the part.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

import traffic

RECORD = json.loads(traffic.RECORD.read_text())
_PARTS = list(traffic.parts())
_PYTHON_TEXT = {"cli", "cli-stderr"}  # argparse's help and usage text
_ANY_NUMPY = {"cli-stderr", "bulk"}  # Python float arithmetic on states numpy draws


def _minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def test_every_part_is_recorded():
    assert list(RECORD["parts"]) == [name for name, _ in _PARTS]


@pytest.mark.parametrize("name,part", _PARTS, ids=[name for name, _ in _PARTS])
def test_part_matches_its_recorded_digest(name, part):
    if name in _PYTHON_TEXT and _minor(platform.python_version()) != _minor(RECORD["python"]):
        pytest.skip(f"argparse text recorded under Python {RECORD['python']}")
    if name not in _ANY_NUMPY and np.__version__ != RECORD["numpy"]:
        pytest.skip(f"numpy arithmetic recorded under numpy {RECORD['numpy']}")
    digest = hashlib.sha256()
    part(digest)
    assert digest.hexdigest() == RECORD["parts"][name]
