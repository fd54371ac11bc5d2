"""Matrix (de)serialization: JSON objects with explicit dimension and
row-major entries.  Loading symmetrizes and reports the asymmetry."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .substrate import SymMatrix, frobenius

__all__ = [
    "matrix_to_dict",
    "matrix_from_dict",
    "save_matrix",
    "load_matrix",
]


def matrix_to_dict(a: SymMatrix) -> dict:
    return {"dim": a.dim, "entries": [[float(x) for x in row] for row in a.mat]}


def matrix_from_dict(obj: dict) -> tuple[SymMatrix, float]:
    """Build a SymMatrix from {"dim", "entries"}; returns the matrix and the
    Frobenius magnitude of the discarded antisymmetric part."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError('matrix object needs "dim" and "entries"')
    dim = int(obj["dim"])
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    raw = np.asarray(obj["entries"], dtype=float)
    if raw.shape != (dim, dim):
        raise ValueError(f"entries shape {raw.shape} does not match dim {dim}")
    asym = frobenius((raw - raw.T) / 2.0)
    return SymMatrix(raw), asym


def save_matrix(a: SymMatrix, path) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(a), indent=2) + "\n")


def load_matrix(path) -> tuple[SymMatrix, float]:
    """Read a matrix file; raises ValueError on malformed content."""
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {path}: {exc}") from exc
    return matrix_from_dict(obj)
