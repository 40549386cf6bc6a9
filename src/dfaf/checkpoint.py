"""Versioned binary model checkpoints.

Layout (all integers and floats little-endian):

    magic    4 bytes  b"DFAF"
    version  u32      currently 1
    config   7 × u32  dim, heads, n_blocks, hidden, d_v, d_w, n_answers
             3 × str  fusion, order, attention_type (u16 length + utf-8)
    tensors  u32 count, then per tensor:
             str name, u32 ndim, ndim × u32 shape, float64 data (row-major)
    trailer  u8 flag; when 1, optimizer state follows:
             u64 step count, then per tensor (same order as above) the
             first-moment and infinity-norm arrays, float64 each

Writer and reader share one declaration of each part. The config fields are
``INT_FIELDS`` then ``STR_FIELDS``: ``ModelConfig``'s int and str fields in
declaration order. Tensor order is the field order of the
parameter dataclasses (``tensor.Params.named_parameters``), so reordering a
field changes the format. Writing is deterministic: identical parameters
produce byte-identical files.

The loader reads and checks the parameters, then maps the optimizer trailer
read-only: its arrays are views of the file, which ``eval`` and ``inspect``
drop unread. Only ``training.AdamaxState.from_checkpoint_trailer`` reads
them, and it copies them. Reading a trailer view after its file was
truncated or rewritten in place raises SIGBUS, so a caller that writes the
checkpoint it resumed from copies the trailer first, as ``dfaf train`` does.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
from typing import BinaryIO

import numpy as np

from .binio import read_str, read_struct, write_str
from .model import INT_FIELDS, STR_FIELDS, ModelConfig, ModelParams, build_model
from .tensor import Tensor

MAGIC = b"DFAF"
VERSION = 1
_U32_FORMAT = f"<{len(INT_FIELDS)}I"


class CheckpointError(ValueError):
    """Checkpoint file is malformed or inconsistent with expectations."""


def _write_array(fh: BinaryIO, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_into(fh: BinaryIO, arr: np.ndarray, what: str) -> np.ndarray:
    # Fill a native float64 array in place from little-endian file bytes.
    got = fh.readinto(arr)
    if got != arr.nbytes:
        raise CheckpointError(f"truncated file: wanted {arr.nbytes} bytes of {what}, got {got}")
    return arr if sys.byteorder == "little" else arr.byteswap(inplace=True)


def _map_trailer(
    fh: BinaryIO, named: list[tuple[str, Tensor]]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    # The rest of the file must be exactly the moments and infinity norms,
    # returned as read-only views of a mapping (see the module docstring).
    start = fh.tell()
    need = 16 * sum(tensor.size for _, tensor in named)
    left = os.fstat(fh.fileno()).st_size - start
    if left < need:
        raise CheckpointError(f"truncated file: wanted {need} bytes of optimizer state, got {left}")
    if left > need:
        raise CheckpointError("trailing bytes after checkpoint payload")
    mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    moments, inf_norms = [], []
    for _, tensor in named:
        for out in (moments, inf_norms):
            out.append(np.frombuffer(mapped, "<f8", tensor.size, start).reshape(tensor.shape))
            start += 8 * tensor.size
    return moments, inf_norms


def save_checkpoint(
    path: str,
    params: ModelParams,
    config: ModelConfig,
    optimizer_state: tuple[int, list[np.ndarray], list[np.ndarray]] | None = None,
) -> None:
    """Write parameters (and optionally optimizer state as
    (step, first_moments, inf_norms) aligned with named-parameter order).
    ``config`` must be the one the parameters were built from."""
    if config != params.config:
        raise CheckpointError(f"config {config} is not the parameters' own {params.config}")
    named = list(params.named_parameters())
    # Every check runs before ``open`` truncates the file this may replace.
    if optimizer_state is not None:
        step, moments, inf_norms = optimizer_state
        if len(moments) != len(named) or len(inf_norms) != len(named):
            raise CheckpointError(
                f"optimizer state covers {len(moments)}/{len(inf_norms)} arrays "
                f"for {len(named)} parameters"
            )
        for (_, tensor), m, u in zip(named, moments, inf_norms):
            if m.shape != tensor.shape or u.shape != tensor.shape:
                raise CheckpointError("optimizer arrays misshapen for parameter")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack(_U32_FORMAT, *(getattr(config, f) for f in INT_FIELDS)))
        for f in STR_FIELDS:
            write_str(fh, getattr(config, f), CheckpointError)
        fh.write(struct.pack("<I", len(named)))
        for name, tensor in named:
            write_str(fh, name, CheckpointError)
            fh.write(struct.pack("<I", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            _write_array(fh, tensor.data)
        if optimizer_state is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(struct.pack("<Q", step))
            for m, u in zip(moments, inf_norms):
                _write_array(fh, m)
                _write_array(fh, u)


def load_checkpoint(
    path: str,
) -> tuple[ModelParams, ModelConfig, tuple[int, list[np.ndarray], list[np.ndarray]] | None]:
    """Rebuild a model from file; returns (params, config, optimizer_state)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}, expected {MAGIC!r}")
        (version,) = read_struct(fh, "<I", "version", CheckpointError)
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        nums = read_struct(fh, _U32_FORMAT, "config", CheckpointError)
        fields = dict(zip(INT_FIELDS, nums))
        for f in STR_FIELDS:
            fields[f] = read_str(fh, f, CheckpointError)
        try:
            config = ModelConfig(**fields)
        except ValueError as exc:
            raise CheckpointError(f"invalid checkpoint config: {exc}") from exc
        need = 8 * config.n_parameters()
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < need:
            raise CheckpointError(
                f"truncated checkpoint: its config needs {need} bytes of parameters, "
                f"file holds {left}"
            )

        params = build_model(config, None)
        named = list(params.named_parameters())
        (count,) = read_struct(fh, "<I", "tensor count", CheckpointError)
        if count != len(named):
            raise CheckpointError(
                f"checkpoint holds {count} tensors, architecture needs {len(named)}"
            )
        for expect_name, tensor in named:
            name = read_str(fh, "tensor name", CheckpointError)
            if name != expect_name:
                raise CheckpointError(
                    f"tensor order mismatch: found {name!r}, expected {expect_name!r}"
                )
            (ndim,) = read_struct(fh, "<I", "tensor rank", CheckpointError)
            if ndim != tensor.ndim:
                raise CheckpointError(
                    f"{name}: stored rank {ndim} != architecture rank {tensor.ndim}"
                )
            shape = read_struct(fh, f"<{ndim}I", "tensor shape", CheckpointError)
            if shape != tensor.shape:
                raise CheckpointError(
                    f"{name}: stored shape {shape} != architecture shape {tensor.shape}"
                )
            _read_into(fh, tensor.data, f"{name} data")
            # min and max are non-finite when any element is, and need no
            # full-size mask as np.isfinite(...).all() does.
            if not (np.isfinite(tensor.data.min()) and np.isfinite(tensor.data.max())):
                raise CheckpointError(f"{name} holds a non-finite value")

        (flag,) = read_struct(fh, "<B", "optimizer flag", CheckpointError)
        optimizer_state = None
        if flag == 1:
            (step,) = read_struct(fh, "<Q", "step count", CheckpointError)
            optimizer_state = (step, *_map_trailer(fh, named))
        elif flag != 0:
            raise CheckpointError(f"bad optimizer flag {flag}")
        elif fh.read(1):
            raise CheckpointError("trailing bytes after checkpoint payload")
    return params, config, optimizer_state
