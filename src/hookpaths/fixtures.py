"""The shipped n = 4 character table, the one externally known full datum.

The file stores the hook-side expansion paired with each size-4 shape and a
sha256 checksum over the canonical payload bytes; any edit to the data
trips the checksum and is a hard error.  The file ships as package data,
data/e44.json beside this module, and is read from there with open():
importlib.resources would import 37 to 45 more modules (pathlib, tempfile,
shutil, typing; inspect on Python 3.13) at every CLI start.
"""

import hashlib
import json
import os

from .schur import SchurExpansion
from .shapes import parse_partition, partition_str

_DATA_FILE = "e44.json"


def canonical_payload_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def load_fixture() -> dict:
    """The stored expansions, keyed by partition; checksum-verified."""
    with open(os.path.join(os.path.dirname(__file__), "data", _DATA_FILE), encoding="utf-8") as f:
        doc = json.load(f)
    digest = hashlib.sha256(canonical_payload_bytes(doc["payload"])).hexdigest()
    if digest != doc["sha256"]:
        raise RuntimeError(
            f"fixture checksum mismatch: stored {doc['sha256']}, computed {digest}"
        )
    return {
        parse_partition(key): SchurExpansion.from_json_obj(value)
        for key, value in doc["payload"].items()
    }


def fixture_component(mu) -> SchurExpansion:
    table = load_fixture()
    mu = tuple(mu)
    if mu not in table:
        raise KeyError(f"no fixture component for mu={partition_str(mu)}")
    return table[mu]
