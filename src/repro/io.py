"""Checkpointing: durable save/load of weights, optimizer and cursor.

A checkpoint is a single ``.npz`` holding every chunk's tensors (keys
``chunk{i}/{name}``), a JSON-encoded :class:`ModelConfig`, user
metadata, and — new in format v2 — optionally the canonical per-chunk
optimizer state (``opt{i}/...``) plus a small *train state* dict (the
resume cursor: next iteration, strategy, loss history).  Data order and
dropout-free forward passes are pure functions of the iteration number
in this codebase, so the cursor fully captures the RNG/data-iterator
position; resuming with ``TrainSpec.start_iteration`` replays the exact
same batches.

``TrainSpec.initial_chunks`` accepts loaded chunks, so a run can resume
under *any* strategy — the weights are strategy-agnostic by
construction.  Full-state resume (optimizer included) is bit-exact when
the strategy matches: every strategy's loop cuts the saved canonical
state to what its rank holds on entry
(:meth:`~repro.parallel.common.RankLoop.init_state`), and the
``--checkpoint-every`` commit hook runs under every strategy.  Switching
strategies keeps the weights and restarts the optimizer.

Durability (format v2):

* **Atomic writes** — the archive is written to a sibling temp file,
  fsynced and ``os.replace``d into place, so a crash mid-save can never
  leave a truncated file at the target path (the previous checkpoint, if
  any, survives intact).
* **Integrity** — every array carries a CRC32 in the header, and the
  header itself carries one in ``__header_crc__``.  A flipped bit or a
  stale partial file is rejected with :class:`CorruptCheckpointError`
  instead of silently training from garbage.

Format v1 files (weights + config only, no checksums) still load.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .nn.model import ModelConfig
from .nn.params import ParamStruct

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CorruptCheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_state",
]

_FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint could not be written or read."""


class CorruptCheckpointError(CheckpointError):
    """The file exists but fails structural or checksum validation."""


@dataclass
class Checkpoint:
    """Everything a v2 checkpoint can carry (v1 fields default empty)."""

    cfg: ModelConfig
    chunks: List[ParamStruct]
    metadata: Dict = field(default_factory=dict)
    #: canonical per-chunk optimizer state, or None if not saved.
    opt_state: Optional[List[Dict]] = None
    #: resume cursor: ``next_iteration``, ``strategy``, ``losses``, ...
    train_state: Optional[Dict] = None
    version: int = _FORMAT_VERSION


def _crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


def _flatten_opt(state, prefix: str, arrays: Dict[str, np.ndarray]):
    """Record ``state``'s tensors under ``prefix`` and return the
    JSON-able structural spec needed to rebuild it."""
    if isinstance(state, ParamStruct):
        names = state.keys()
        for name in names:
            arrays[f"{prefix}/{name}"] = state[name]
        return {"kind": "params", "names": names}
    if isinstance(state, dict):
        return {
            "kind": "dict",
            "items": {
                k: _flatten_opt(v, f"{prefix}/{k}", arrays)
                for k, v in state.items()
            },
        }
    if isinstance(state, (bool, np.bool_)):
        return {"kind": "scalar", "value": bool(state)}
    if isinstance(state, (int, np.integer)):
        return {"kind": "scalar", "value": int(state)}
    if isinstance(state, (float, np.floating)):
        return {"kind": "scalar", "value": float(state)}
    raise CheckpointError(
        f"cannot serialise optimizer state entry of type {type(state).__name__}"
    )


def _unflatten_opt(spec, prefix: str, data) -> object:
    kind = spec["kind"]
    if kind == "params":
        return ParamStruct(
            {name: data[f"{prefix}/{name}"].copy() for name in spec["names"]}
        )
    if kind == "dict":
        return {
            k: _unflatten_opt(v, f"{prefix}/{k}", data)
            for k, v in spec["items"].items()
        }
    return spec["value"]


def _resolve_path(path) -> Path:
    # np.savez appends .npz to extension-less paths; keep that contract
    # explicit so save and load agree on the final name.
    p = Path(path)
    return p if p.suffix == ".npz" else p.with_name(p.name + ".npz")


def save_checkpoint(
    path,
    cfg: ModelConfig,
    chunks: List[ParamStruct],
    metadata: Dict | None = None,
    opt_state: Optional[List[Dict]] = None,
    train_state: Optional[Dict] = None,
) -> Path:
    """Atomically write a v2 checkpoint; returns the final path.

    ``opt_state`` is the canonical per-chunk optimizer state (one dict
    per chunk, as produced by ``train_elastic``'s step engine or
    ``Optimizer.init_state``); ``train_state`` is an arbitrary
    JSON-serialisable dict — by convention carrying ``next_iteration``,
    ``strategy`` and ``losses`` so ``--resume`` can pick up exactly
    where the run stopped.
    """
    if len(chunks) != cfg.n_layers:
        raise ValueError(
            f"expected {cfg.n_layers} chunks for this config, got {len(chunks)}"
        )
    if opt_state is not None and len(opt_state) != len(chunks):
        raise ValueError(
            f"opt_state has {len(opt_state)} entries for {len(chunks)} chunks"
        )
    arrays: Dict[str, np.ndarray] = {}
    for i, chunk in enumerate(chunks):
        for name, arr in chunk.items():
            arrays[f"chunk{i}/{name}"] = arr
    opt_spec = None
    if opt_state is not None:
        opt_spec = [
            _flatten_opt(state, f"opt{i}", arrays)
            for i, state in enumerate(opt_state)
        ]
    cfg_dict = asdict(cfg)
    cfg_dict["dtype"] = np.dtype(cfg.dtype).name
    header = {
        "version": _FORMAT_VERSION,
        "config": cfg_dict,
        "metadata": metadata or {},
        "chunk_keys": [chunk.keys() for chunk in chunks],
        "opt_spec": opt_spec,
        "train_state": train_state,
        "crc32": {key: _crc(arr) for key, arr in arrays.items()},
    }
    header_bytes = json.dumps(header).encode("utf-8")
    arrays["__header__"] = np.frombuffer(header_bytes, dtype=np.uint8)
    arrays["__header_crc__"] = np.array(
        [zlib.crc32(header_bytes) & 0xFFFFFFFF], dtype=np.uint64
    )

    final = _resolve_path(path)
    tmp = final.with_name(final.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as f:
            np.savez_compressed(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
    finally:
        if tmp.exists():
            tmp.unlink()
    return final


def _load_header(path: Path, data) -> Dict:
    if "__header__" not in data:
        raise CorruptCheckpointError(f"{path} is not a repro checkpoint")
    header_bytes = bytes(data["__header__"])
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"{path}: unreadable header ({exc})") from exc
    version = header.get("version")
    if version not in (1, _FORMAT_VERSION):
        raise CheckpointError(
            f"{path}: checkpoint version {version} unsupported "
            f"(this build reads versions 1 and {_FORMAT_VERSION})"
        )
    if version >= 2:
        if "__header_crc__" not in data:
            raise CorruptCheckpointError(f"{path}: header checksum missing")
        want = int(data["__header_crc__"][0])
        got = zlib.crc32(header_bytes) & 0xFFFFFFFF
        if got != want:
            raise CorruptCheckpointError(
                f"{path}: header checksum mismatch "
                f"(stored {want:#010x}, computed {got:#010x})"
            )
    return header


def _verify_arrays(path: Path, header: Dict, data) -> None:
    for key, want in header.get("crc32", {}).items():
        if key not in data:
            raise CorruptCheckpointError(f"{path}: array {key!r} missing")
        got = _crc(data[key])
        if got != want:
            raise CorruptCheckpointError(
                f"{path}: checksum mismatch on {key!r} "
                f"(stored {want:#010x}, computed {got:#010x}) — "
                "the file is corrupt; restore from a good checkpoint"
            )


def load_checkpoint_state(path) -> Checkpoint:
    """Read and fully validate a checkpoint.

    v2 files are checksum-verified array by array; any mismatch raises
    :class:`CorruptCheckpointError`.  v1 files load without checksums
    (they never had them) and report empty optimizer/train state.
    """
    p = Path(path)
    if not p.exists():
        raise CheckpointError(f"checkpoint {p} does not exist")
    try:
        with np.load(p) as data:
            header = _load_header(p, data)
            _verify_arrays(p, header, data)
            cfg_dict = header["config"]
            cfg_dict["dtype"] = np.dtype(cfg_dict["dtype"]).type
            cfg = ModelConfig(**cfg_dict)
            chunks: List[ParamStruct] = []
            for i, keys in enumerate(header["chunk_keys"]):
                chunks.append(
                    ParamStruct(
                        {name: data[f"chunk{i}/{name}"].copy() for name in keys}
                    )
                )
            opt_state = None
            if header.get("opt_spec") is not None:
                opt_state = [
                    _unflatten_opt(spec, f"opt{i}", data)
                    for i, spec in enumerate(header["opt_spec"])
                ]
    except (zipfile.BadZipFile, OSError, KeyError, ValueError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CorruptCheckpointError(
            f"{p}: cannot read checkpoint ({exc})"
        ) from exc
    return Checkpoint(
        cfg=cfg,
        chunks=chunks,
        metadata=header.get("metadata", {}),
        opt_state=opt_state,
        train_state=header.get("train_state"),
        version=header["version"],
    )


def load_checkpoint(path) -> Tuple[ModelConfig, List[ParamStruct], Dict]:
    """Back-compat reader; returns ``(config, chunks, metadata)``."""
    ckpt = load_checkpoint_state(path)
    return ckpt.cfg, ckpt.chunks, ckpt.metadata
