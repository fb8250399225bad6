"""Single-file model checkpoints.

Layout: an 8-byte magic, a little-endian uint64 header length, a JSON
header (format version, model config, tensor manifest), then the raw
tensor payloads concatenated in manifest order as little-endian
float64.  Round-trips are bitwise.  Loading compares the header length
and the manifest's total size with the file, and the tensors' names and
shapes with the model layout of the config, before it reads a payload.
"""

import json
import os
import stat
import struct
from dataclasses import asdict
from itertools import islice
from math import prod

import numpy as np

from .model import ModelConfig, Parameters, _layout

MAGIC = b"DSEQCKP1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str, params: Parameters, config: ModelConfig) -> None:
    names = sorted(params)
    header = {
        "version": 1,
        "config": asdict(config),
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


def _is_tensor_entry(entry) -> bool:
    """A manifest entry: string name, shape of non-negative ints, a dtype."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
            and "dtype" in entry)


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
        try:
            config = ModelConfig(**header["config"])
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise CheckpointError(f"{path}: bad config: {err}") from None
        tensors = header.get("tensors")
        if not isinstance(tensors, list):
            raise CheckpointError(f"{path}: header has no tensor list")
        for index, entry in enumerate(tensors):
            if not _is_tensor_entry(entry):
                raise CheckpointError(f"{path}: malformed tensor entry {index}")
            if entry["dtype"] != "<f8":
                raise CheckpointError(f"{path}: unsupported dtype {entry['dtype']!r}")
        payload_bytes = sum(prod(entry["shape"]) * 8 for entry in tensors)
        if payload_bytes != size - handle.tell():
            raise CheckpointError(f"{path}: the tensors take {payload_bytes} bytes but "
                                  f"{size - handle.tell()} follow the header")
        # one more than the manifest holds is enough to name a missing
        # tensor, however many layers the config claims
        expected = {name: shape for name, shape, _ in
                    islice(_layout(config), len(tensors) + 1)}
        shapes = {entry["name"]: tuple(entry["shape"]) for entry in tensors}
        if len(expected) > len(tensors):
            missing = min(expected.keys() - shapes.keys())
            raise CheckpointError(f"{path}: missing tensor {missing!r}")
        for name in sorted(expected.keys() | shapes.keys()):
            if name not in shapes:
                raise CheckpointError(f"{path}: missing tensor {name!r}")
            if name not in expected:
                raise CheckpointError(f"{path}: unexpected tensor {name!r}")
            if shapes[name] != expected[name]:
                raise CheckpointError(f"{path}: tensor {name!r} has shape "
                                      f"{shapes[name]}, expected {expected[name]}")
        params: Parameters = {}
        for entry in tensors:
            shape = tuple(entry["shape"])
            payload = handle.read(prod(shape) * 8)
            params[entry["name"]] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return params, config
