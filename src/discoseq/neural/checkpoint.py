"""Single-file model checkpoints.

Layout: an 8-byte magic, a little-endian uint64 header length, a JSON
header (format version, model config, tensor manifest), then the raw
tensor payloads concatenated in manifest order as little-endian
float64.  Round-trips are bitwise.  Loading checks the tensors' names
and shapes against the ones `init_parameters` makes for the config.
"""

import json
import struct
from dataclasses import asdict
from math import prod

import numpy as np

from .model import ModelConfig, Parameters, init_parameters

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
        if handle.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        length_bytes = handle.read(8)
        if len(length_bytes) != 8:
            raise CheckpointError(f"{path}: truncated header length")
        (header_length,) = struct.unpack("<Q", length_bytes)
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
        params: Parameters = {}
        for index, entry in enumerate(tensors):
            if not _is_tensor_entry(entry):
                raise CheckpointError(f"{path}: malformed tensor entry {index}")
            shape = tuple(entry["shape"])
            if entry["dtype"] != "<f8":
                raise CheckpointError(f"{path}: unsupported dtype {entry['dtype']!r}")
            payload = handle.read(prod(shape) * 8)
            if len(payload) != prod(shape) * 8:
                raise CheckpointError(f"{path}: truncated tensor {entry['name']!r}")
            params[entry["name"]] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if handle.read(1):
            raise CheckpointError(f"{path}: trailing data after tensors")
    expected = init_parameters(config, np.random.default_rng(0))
    for name in sorted(expected.keys() | params.keys()):
        if name not in params:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        if params[name].shape != expected[name].shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape "
                                  f"{params[name].shape}, expected {expected[name].shape}")
    return params, config
