"""Single-file model checkpoints.

Layout: an 8-byte magic, a little-endian uint64 header length, a JSON
header (format version, model config, tensor manifest), then the raw
tensor payloads concatenated in manifest order as little-endian
float64.  Round-trips are bitwise.  Loading checks the header length,
that the config holds each fixed setting of `model._FIXED`, each
manifest entry against the config's model layout, and the layout's
size against the file before it fills one `_flat` vector of views, and
then that every value is finite.
"""

import json
import os
import stat
import struct
from dataclasses import asdict
from itertools import islice
from math import prod

import numpy as np

from .model import _FIXED, ModelConfig, Parameters, _flat, _layout

MAGIC = b"DSEQCKP1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str, params: Parameters, config: ModelConfig) -> None:
    names = sorted(params)
    header = {
        "version": 1,
        "config": {**asdict(config), **_FIXED},
        "tensors": [{"name": name, "shape": list(params[name].shape),
                     "dtype": "<f8"} for name in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<Q", len(blob)))
        handle.write(blob)
        for name in names:
            handle.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[Parameters, ModelConfig]:
    with open(path, "rb") as handle:
        status = os.fstat(handle.fileno())
        if not stat.S_ISREG(status.st_mode):  # its size is checked before a read
            raise CheckpointError(f"{path}: not a regular file")
        size = status.st_size
        if handle.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        length_bytes = handle.read(8)
        if len(length_bytes) != 8:
            raise CheckpointError(f"{path}: truncated header length")
        (header_length,) = struct.unpack("<Q", length_bytes)
        if header_length > size - handle.tell():
            raise CheckpointError(f"{path}: header of {header_length} bytes runs past "
                                  f"the end of the file")
        try:
            header = json.loads(handle.read(header_length))
        except ValueError as err:
            raise CheckpointError(f"{path}: bad header: {err}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if header.get("version") != 1:
            raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")
        fields = header.get("config")
        if not isinstance(fields, dict):
            raise CheckpointError(f"{path}: config is not a JSON object")
        for key, value in _FIXED.items():
            if key not in fields:
                raise CheckpointError(f"{path}: config has no {key!r}")
            if (found := fields.pop(key)) != value:
                raise CheckpointError(f"{path}: config {key!r} is {found!r}, "
                                      f"not the fixed {value!r}")
        try:
            config = ModelConfig(**fields)
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise CheckpointError(f"{path}: bad config: {err}") from None
        tensors = header.get("tensors")
        if not isinstance(tensors, list):
            raise CheckpointError(f"{path}: header has no tensor list")
        # one more than the manifest holds is enough to name a missing
        # tensor, however many layers the config claims
        expected = {name: shape for name, shape, _ in
                    islice(_layout(config), len(tensors) + 1)}
        seen: set[str] = set()
        for index, entry in enumerate(tensors):
            name = entry.get("name") if isinstance(entry, dict) else None
            if not isinstance(name, str):
                raise CheckpointError(f"{path}: malformed tensor entry {index}")
            if name in seen:
                raise CheckpointError(f"{path}: repeated tensor {name!r}")
            seen.add(name)
            if name not in expected:
                continue  # named below, after any missing tensor
            want = {"name": name, "shape": list(expected[name]), "dtype": "<f8"}
            # True == 1.0 == 1, so the dims' types are checked too
            if entry != want or not all(type(n) is int for n in entry["shape"]):
                raise CheckpointError(
                    f"{path}: tensor {name!r} has shape {entry.get('shape')} and dtype "
                    f"{entry.get('dtype')!r}, expected {want['shape']} and '<f8'")
        if missing := expected.keys() - seen:
            raise CheckpointError(f"{path}: missing tensor {min(missing)!r}")
        if unexpected := seen - expected.keys():
            raise CheckpointError(f"{path}: unexpected tensor {min(unexpected)!r}")
        payload_bytes = sum(prod(shape) * 8 for shape in expected.values())
        if payload_bytes != size - handle.tell():
            raise CheckpointError(f"{path}: the tensors take {payload_bytes} bytes but "
                                  f"{size - handle.tell()} follow the header")
        params = _flat(config)
        for entry in tensors:
            tensor = params[entry["name"]]
            tensor[...] = np.frombuffer(handle.read(tensor.nbytes),
                                        dtype="<f8").reshape(tensor.shape)
            if not np.isfinite(tensor).all():
                raise CheckpointError(f"{path}: tensor {entry['name']!r} holds a "
                                      f"non-finite value")
    return params, config
