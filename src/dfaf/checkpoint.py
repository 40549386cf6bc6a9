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

Writing is deterministic: tensor order is the model's named-parameter order,
so identical parameters produce byte-identical files.
"""

from __future__ import annotations

import os
import struct
import sys
from typing import BinaryIO

import numpy as np

from .binio import read_str, read_struct, write_str
from .model import ModelConfig, ModelParams, build_model, config_of

MAGIC = b"DFAF"
VERSION = 1


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


def save_checkpoint(
    path: str,
    params: ModelParams,
    config: ModelConfig | None = None,
    optimizer_state: tuple[int, list[np.ndarray], list[np.ndarray]] | None = None,
) -> None:
    """Write parameters (and optionally optimizer state as
    (step, first_moments, inf_norms) aligned with named-parameter order)."""
    if config is None:
        config = config_of(params)
    named = list(params.named_parameters())
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(
            struct.pack(
                "<7I",
                config.dim,
                config.heads,
                config.n_blocks,
                config.hidden,
                config.d_v,
                config.d_w,
                config.n_answers,
            )
        )
        for s in (config.fusion, config.order, config.attention_type):
            write_str(fh, s, CheckpointError)
        fh.write(struct.pack("<I", len(named)))
        for name, tensor in named:
            write_str(fh, name, CheckpointError)
            fh.write(struct.pack("<I", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            _write_array(fh, tensor.data)
        if optimizer_state is None:
            fh.write(struct.pack("<B", 0))
        else:
            step, moments, inf_norms = optimizer_state
            if len(moments) != len(named) or len(inf_norms) != len(named):
                raise CheckpointError(
                    f"optimizer state covers {len(moments)}/{len(inf_norms)} arrays "
                    f"for {len(named)} parameters"
                )
            fh.write(struct.pack("<B", 1))
            fh.write(struct.pack("<Q", step))
            for (_, tensor), m, u in zip(named, moments, inf_norms):
                if m.shape != tensor.shape or u.shape != tensor.shape:
                    raise CheckpointError("optimizer arrays misshapen for parameter")
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
        nums = read_struct(fh, "<7I", "config", CheckpointError)
        fusion = read_str(fh, "fusion", CheckpointError)
        order = read_str(fh, "order", CheckpointError)
        attention_type = read_str(fh, "attention_type", CheckpointError)
        try:
            config = ModelConfig(
                dim=nums[0],
                heads=nums[1],
                n_blocks=nums[2],
                hidden=nums[3],
                d_v=nums[4],
                d_w=nums[5],
                n_answers=nums[6],
                fusion=fusion,
                order=order,
                attention_type=attention_type,
            )
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

        (flag,) = read_struct(fh, "<B", "optimizer flag", CheckpointError)
        optimizer_state = None
        if flag == 1:
            (step,) = read_struct(fh, "<Q", "step count", CheckpointError)
            moments, inf_norms = [], []
            for name, tensor in named:
                moments.append(_read_into(fh, np.empty(tensor.shape), f"{name} moment"))
                inf_norms.append(_read_into(fh, np.empty(tensor.shape), f"{name} inf-norm"))
            optimizer_state = (step, moments, inf_norms)
        elif flag != 0:
            raise CheckpointError(f"bad optimizer flag {flag}")
        extra = fh.read(1)
        if extra:
            raise CheckpointError("trailing bytes after checkpoint payload")
    return params, config, optimizer_state
