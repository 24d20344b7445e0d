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

import contextlib
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
    vocab: Vocabulary
    config: dict
    extra: dict


def save_model(path, kind: str, model, config: dict, extra: dict | None = None) -> None:
    """Write ``model``, anything with ``named_params()`` and a ``vocab``, as a
    ``kind`` checkpoint: its parameters in ``named_params()`` order. The file
    is written beside ``path`` and then moved into place, so a save that
    fails leaves whatever was at ``path`` as it was and no temporary file
    behind."""
    params = model.named_params()
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "vocab": list(model.vocab.index_to_token),
        "params": [{"name": name, "shape": list(tensor.data.shape)} for name, tensor in params],
        "extra": extra or {},
    }
    header_bytes = json.dumps(header).encode("utf-8")
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as handle:
            handle.write(MAGIC)
            handle.write(len(header_bytes).to_bytes(8, "little"))
            handle.write(header_bytes)
            for _, tensor in params:
                handle.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise


def load_model(path, kind: str, build):
    """``(model, checkpoint)`` of the ``kind`` checkpoint at ``path``.

    ``build(checkpoint)`` makes the model, anything with ``named_params()``,
    from the header's vocabulary and config. The manifest must list the
    model's parameters by name and shape, which is checked before any payload
    is read; each payload is then read straight into its parameter's array,
    so the parameters are held once.
    """
    with open(path, "rb") as handle:
        loaded, manifest = _read_header(path, handle)
        if loaded.kind != kind:
            raise CheckpointError(f"{path}: checkpoint kind {loaded.kind!r} is not a {kind} model")
        model = build(loaded)
        arrays = {name: tensor.data for name, tensor in model.named_params()}
        shapes = dict(manifest)
        unexpected = sorted(set(shapes) - set(arrays))
        if unexpected:
            raise CheckpointError(f"{path}: unexpected parameter {unexpected[0]}")
        for name, array in arrays.items():
            if name not in shapes:
                raise CheckpointError(f"{path}: missing parameter {name}")
            if shapes[name] != array.shape:
                raise CheckpointError(f"{path}: parameter {name} has shape {shapes[name]}, "
                                      f"expected {array.shape}")
        for name, _ in manifest:
            if handle.readinto(arrays[name]) != arrays[name].nbytes:
                raise CheckpointError(f"{path}: truncated payload at {name}")
    return model, loaded


def _read_header(path, handle) -> tuple[Checkpoint, list[tuple[str, tuple[int, ...]]]]:
    """The header of an open checkpoint file and its manifest: every header
    check, and the check that the payloads the manifest declares fill the
    rest of the file exactly."""
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
    manifest = [_manifest_entry(path, entry) for entry in header["params"]]
    remaining = file_size - handle.tell()
    seen = set()
    for name, shape in manifest:
        if name in seen:
            raise CheckpointError(f"{path}: header params lists {name} twice")
        seen.add(name)
        size = math.prod(shape) * 8
        if size > remaining:  # a header may declare any shape
            raise CheckpointError(f"{path}: truncated payload at {name}: shape "
                                  f"{list(shape)} needs {size} bytes, {remaining} left")
        remaining -= size
    if remaining:
        raise CheckpointError(f"{path}: trailing bytes after the last parameter")
    loaded = Checkpoint(
        kind=header["kind"],
        vocab=Vocabulary.from_tokens(tokens[len(RESERVED_TOKENS):]),
        config=header.get("config", {}),
        extra=extra,
    )
    return loaded, manifest


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
