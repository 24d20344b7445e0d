"""Binary checkpoint container for named float64 parameters.

Layout (all integers little-endian):

    bytes 0-7    magic ``PGCKPT01``
    bytes 8-15   uint64 header length in bytes
    header       UTF-8 JSON: {"format_version", "kind", "config",
                 "vocab": [tokens in index order],
                 "params": [{"name", "shape"}, ...], "extra"}
    payload      for each manifest entry in order, the parameter's raw
                 float64 little-endian values in row-major order

Float64 values are stored exactly, so a load/save round trip is bit-exact.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .corpus import RESERVED_TOKENS, Vocabulary

MAGIC = b"PGCKPT01"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    kind: str
    params: dict[str, np.ndarray]
    vocab: Vocabulary
    config: dict
    extra: dict


def save_checkpoint(path, kind: str, params: list[tuple[str, np.ndarray]],
                    vocab: Vocabulary, config: dict, extra: dict | None = None) -> None:
    manifest = [{"name": name, "shape": list(np.shape(array))} for name, array in params]
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "vocab": list(vocab.index_to_token),
        "params": manifest,
        "extra": extra or {},
    }
    header_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(len(header_bytes).to_bytes(8, "little"))
        handle.write(header_bytes)
        for _, array in params:
            handle.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        header_len = int.from_bytes(handle.read(8), "little")
        file_size = os.fstat(handle.fileno()).st_size
        remaining = file_size - handle.tell()
        if header_len > remaining:
            raise CheckpointError(f"{path}: header length {header_len} exceeds the "
                                  f"{remaining} bytes left in the file")
        try:
            header = json.loads(handle.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise CheckpointError(f"{path}: corrupt header: {err}") from err
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        missing = [key for key in ("kind", "params", "vocab") if key not in header]
        if missing:
            raise CheckpointError(f"{path}: header missing {', '.join(missing)}")
        if not isinstance(header["params"], list):
            raise CheckpointError(f"{path}: header params is not a list")
        tokens = header["vocab"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CheckpointError(f"{path}: header vocab is not a list of strings")
        if tokens[:len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
            raise CheckpointError(f"{path}: vocabulary missing reserved tokens")
        if len(set(tokens)) != len(tokens):
            raise CheckpointError(f"{path}: header vocab lists a token twice")
        extra = header.get("extra", {})
        if not isinstance(extra, dict):
            raise CheckpointError(f"{path}: header extra is not a JSON object")
        params: dict[str, np.ndarray] = {}
        for entry in header["params"]:
            name, shape = _manifest_entry(path, entry)
            if name in params:
                raise CheckpointError(f"{path}: header params lists {name} twice")
            size = math.prod(shape) * 8
            remaining = file_size - handle.tell()
            if size > remaining:  # checked before allocating: a header may declare any shape
                raise CheckpointError(f"{path}: truncated payload at {name}: shape "
                                      f"{list(shape)} needs {size} bytes, {remaining} left")
            try:
                array = np.empty(shape, dtype="<f8")
            except ValueError as err:  # an empty shape whose sizes numpy cannot index
                raise CheckpointError(f"{path}: parameter {name} has shape "
                                      f"{list(shape)}: {err}") from err
            if handle.readinto(array) != size:
                raise CheckpointError(f"{path}: truncated payload at {name}")
            params[name] = array
        if handle.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last parameter")
    return Checkpoint(
        kind=header["kind"],
        params=params,
        vocab=Vocabulary.from_tokens(tokens[len(RESERVED_TOKENS):]),
        config=header.get("config", {}),
        extra=extra,
    )


def _manifest_entry(path, entry) -> tuple[str, tuple[int, ...]]:
    """The name and shape of one ``params`` manifest entry, validated."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise CheckpointError(f"{path}: manifest entry {entry!r} has no parameter name")
    name = entry["name"]
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise CheckpointError(f"{path}: parameter {name} has shape {shape!r}, "
                              f"not a list of non-negative integers")
    return name, tuple(shape)


def restore_params(model, arrays: dict[str, np.ndarray]) -> None:
    """Copy ``arrays`` into the parameters of ``model``, anything with
    ``named_params()``. The names must match exactly and every shape must
    agree; otherwise nothing is copied and CheckpointError names the first
    offending parameter."""
    named = model.named_params()
    unexpected = sorted(set(arrays) - {name for name, _ in named})
    if unexpected:
        raise CheckpointError(f"unexpected parameter {unexpected[0]}")
    for name, tensor in named:
        if name not in arrays:
            raise CheckpointError(f"missing parameter {name}")
        if arrays[name].shape != tensor.data.shape:
            raise CheckpointError(f"parameter {name} has shape {arrays[name].shape}, "
                                  f"expected {tensor.data.shape}")
    for name, tensor in named:
        tensor.data[...] = arrays[name]
