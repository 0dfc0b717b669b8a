"""Artifact writing: atomic file replacement plus metadata sidecars.

Artifacts themselves carry no timestamps or timings, so identical runs
produce byte-identical files; provenance (resolved parameters, version,
creation time, the numpy, scipy and Python versions and CPU count that
bit-reproducibility rests on and, for a CLI operation, its wall time
``wall_s``) lives in a ``<name>.meta.json`` sidecar next to each artifact.
Monte Carlo symbols are base-k digits of numpy's Philox ``random_raw``
words (see ``montecarlo``), so a numpy that changed those words would
change the bits of a rerun.
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import scipy

from . import __version__
from .chains import GateKind


def json_ready(obj: Any) -> Any:
    """Recursively convert package values into JSON-encodable ones.

    Fractions become "p/q" strings so exactness survives the trip.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, GateKind):
        return obj.value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":  # tolist() already gives JSON scalars
            return obj.tolist()
        return [json_ready(x) for x in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(x) for x in obj]
    return obj


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f".{target.name}.{os.urandom(6).hex()}.tmp"
    # mode 0666 under the umask, as open() would give; mkstemp gives 0600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sidecar_path(path: str | Path) -> Path:
    p = Path(path)
    return p.with_name(p.name + ".meta.json")


def build_meta(
    command: str, parameters: Mapping[str, Any], wall_s: float | None = None
) -> dict[str, Any]:
    meta = {
        "command": command,
        "parameters": json_ready(dict(parameters)),
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    if wall_s is not None:
        meta["wall_s"] = wall_s
    return meta


def write_artifact(
    path: str | Path, text: str, meta: Mapping[str, Any] | None = None
) -> None:
    """Atomically write an artifact and, if given, its sidecar."""
    atomic_write_text(path, text)
    if meta is not None:
        atomic_write_text(
            sidecar_path(path), json.dumps(json_ready(meta), indent=2) + "\n"
        )
