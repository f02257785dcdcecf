"""Single-file model container: JSON header plus little-endian float64 payloads.

Layout: 4-byte magic ``SBCK``, uint32-LE header length, UTF-8 JSON header
``{"version", "kind", "config", "tensors": [{"name", "shape"}, ...]}``,
then each tensor's row-major ``<f8`` bytes in header order. The same container
serializes every detector kind (the ``kind`` tag selects the interpretation).
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .data import atomic_open
from .exceptions import IngestError

MAGIC = b"SBCK"
FORMAT_VERSION = 1


def save_checkpoint(path, kind: str, config: dict, tensors: dict[str, np.ndarray]) -> None:
    names = sorted(tensors)
    header = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(tensors[n], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Inverse of save_checkpoint; a truncated or corrupt file, or a tensor
    holding inf or nan, raises IngestError."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise IngestError(f"{path}: not a checkpoint file (bad magic)")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            blob = fh.read(hlen)
            if len(blob) != hlen:
                raise IngestError(f"{path}: truncated checkpoint header")
            header = json.loads(blob.decode("utf-8"))
            version, kind, config = header["version"], header["kind"], header["config"]
            entries = [(entry["name"], tuple(entry["shape"])) for entry in header["tensors"]]
            if not all(isinstance(n, str) and all(type(d) is int and d >= 0 for d in shape)
                       for n, shape in entries):
                raise TypeError("tensor names must be strings, shapes non-negative integers")
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError, KeyError,
                TypeError) as exc:
            raise IngestError(f"{path}: corrupt checkpoint header ({exc!r})") from exc
        if version != FORMAT_VERSION:
            raise IngestError(f"{path}: unsupported checkpoint version {version}")
        tensors = {}
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, shape in entries:
            size = 8 * math.prod(shape)  # exact: np.prod wraps around past 2**63
            if size > left:  # checked first, so a huge shape reads nothing
                raise IngestError(f"{path}: tensor '{name}' of shape {list(shape)} needs "
                                  f"{size} bytes, the file has {left} left")
            left -= size
            try:
                tensor = np.frombuffer(fh.read(size), "<f8").astype(np.float64).reshape(shape)
            except ValueError as exc:  # an empty shape with a dimension past numpy's limit
                raise IngestError(f"{path}: tensor '{name}': {exc}") from exc
            if not np.isfinite(tensor).all():  # it would score as inf or nan
                raise IngestError(f"{path}: non-finite values in tensor '{name}'")
            tensors[name] = tensor
    return kind, config, tensors
