"""Checkpoint directory format shared by all trainable models.

A checkpoint is a directory holding ``manifest.json`` plus one raw
little-endian float32 tensor file per named parameter under ``params/``.
The manifest records each tensor's shape and the sha256 of its file; loading
verifies both, and the manifest's config hash. A save writes beside its path
and then moves into place, so a crash never leaves a manifest that disagrees
with its tensors.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Optional

import numpy as np

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def check_replaceable(path) -> None:
    """Raise unless ``path`` is absent, an empty directory or a checkpoint, which a save replaces."""
    root = Path(path)
    if root.exists() and not (root / "manifest.json").is_file() and not (root.is_dir() and not any(root.iterdir())):
        raise CheckpointError(f"{path} exists and is not a checkpoint directory; not replacing it")


def save_checkpoint(path, kind: str, params: dict[str, np.ndarray], config: dict, extras: Optional[dict] = None) -> None:
    """Write the checkpoint, and each ``extras`` file by its writer, beside ``path``; then move it there."""
    root = Path(path).resolve()
    check_replaceable(root)
    staging, retired = (root.with_name(f".{root.name}.{os.getpid()}.{end}") for end in ("new", "old"))
    shutil.rmtree(staging, ignore_errors=True)
    try:
        (staging / "params").mkdir(parents=True)
        sha256 = {}
        for name, arr in params.items():
            raw = arr.astype("<f4").tobytes()
            (staging / "params" / f"{_safe_name(name)}.f32").write_bytes(raw)
            sha256[name] = hashlib.sha256(raw).hexdigest()
        manifest = {
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "config": config,
            "config_hash": config_hash(config),
            "params": {name: list(arr.shape) for name, arr in params.items()},
            "sha256": sha256,
        }
        with open(staging / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        for name, write in (extras or {}).items():
            write(staging / name)
        if root.exists():
            root.rename(retired)
        staging.rename(root)
        shutil.rmtree(retired, ignore_errors=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)  # left only when a write failed


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray], dict]:
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CheckpointError(f"no manifest.json under {path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{manifest_path} does not hold a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format {manifest.get('format_version')}")
    missing = [key for key in ("kind", "config", "config_hash", "params") if key not in manifest]
    if missing:
        raise CheckpointError(f"{manifest_path} lacks {', '.join(missing)}")
    if config_hash(manifest["config"]) != manifest["config_hash"]:
        raise CheckpointError("config hash mismatch: checkpoint config was modified")
    params: dict[str, np.ndarray] = {}
    for name, shape in manifest["params"].items():
        tensor_path = root / "params" / f"{_safe_name(name)}.f32"
        if not tensor_path.is_file():
            raise CheckpointError(f"tensor {name}: no file {tensor_path}")
        raw = tensor_path.read_bytes()
        arr = np.frombuffer(raw, dtype="<f4")
        expected = int(np.prod(shape)) if shape else 1
        if arr.size != expected:
            raise CheckpointError(f"tensor {name}: found {arr.size} values, expected shape {shape}")
        if hashlib.sha256(raw).hexdigest() != manifest.get("sha256", {}).get(name):
            raise CheckpointError(f"tensor {name}: sha256 mismatch, the tensor file was modified")
        params[name] = arr.reshape(shape).astype(np.float32)
    return manifest["kind"], params, manifest["config"]


def config_of(cls, config: dict, path):
    """``cls(**config)``; a config that does not fit ``cls`` raises
    :class:`CheckpointError`."""
    try:
        return cls(**config)
    except TypeError as exc:
        raise CheckpointError(f"checkpoint {path}: config does not fit {cls.__name__} ({exc})") from None


def _safe_name(name: str) -> str:
    return name.replace(os.sep, "__")
