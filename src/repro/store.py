"""Content addressing and crash-safe writes, shared by every on-disk cache.

Two caches persist work across processes: the surrogate tables of
:mod:`repro.devices.surrogate` and the sweep checkpoints of
:mod:`repro.circuit.resilience`.  Both name an entry by
:func:`fingerprint` of the objects that determine it, and both publish
files through :func:`atomic_write_bytes`, so a concurrent reader or a
crash never leaves a half-written file behind.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path

__all__ = ["fingerprint", "atomic_write_bytes", "atomic_write_text"]


def fingerprint(obj) -> str:
    """Content hash (32 hex chars) of a picklable object tree.

    Stability contract: identical values built the same way pickle to
    identical bytes, so a resume under the same kernel/params/seed hits
    its checkpoints; any drift in the inputs changes the key and the
    chunk is recomputed — the safe direction.
    """
    return hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()[:32]


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Crash-safe write: mkstemp in the target directory + ``os.replace``.

    mkstemp opens with ``O_EXCL``, so concurrent writers each get a
    private temp file; ``os.replace`` publishes it atomically.  Readers
    see either the old content or the new, never a torn file, and a
    failed write leaves no temp file behind.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.stem}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path | str, text: str) -> None:
    """Crash-safe UTF-8 text write (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode("utf-8"))
