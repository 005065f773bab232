"""Sensing matrices and the compression step m = Phi @ x.

Two matrix families are supported: dense i.i.d. Gaussian with entry variance
1/M (so that ||Phi x|| is approximately ||x|| in expectation), and random
row subsampling, whose rows are distinct standard basis vectors.  Matrices
are regenerable from their (kind, m, n, seed) tuple; fixtures store the
tuple, never the entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GAUSSIAN",
    "SUBSAMPLING",
    "SensingMatrix",
    "Measurement",
    "gaussian_matrix",
    "subsampling_matrix",
    "matrix_from_kind",
    "measure",
]

GAUSSIAN = "gaussian"
SUBSAMPLING = "subsampling"


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """Dense M x N real measurement operator with provenance; compares by identity."""

    entries: np.ndarray
    kind: str
    seed: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise ValueError(f"entries must be 2-D, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite (no NaN or inf)")
        m, n = entries.shape
        if m > n:
            raise ValueError(f"need m <= n, got shape {entries.shape}")
        if self.kind not in (GAUSSIAN, SUBSAMPLING):
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if self.kind == SUBSAMPLING:
            _check_subsampling_rows(entries)
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def m_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def provenance(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.m_rows,
            "n": self.n_cols,
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class Measurement:
    """A compressed measurement vector; measurements compare by identity."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite (no NaN or inf)")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def _check_subsampling_rows(entries: np.ndarray) -> None:
    """Each row must be a standard basis vector, all rows distinct."""
    nonzero = entries != 0.0
    selected = np.argmax(nonzero, axis=1)
    bad = np.count_nonzero(nonzero, axis=1) != 1
    bad |= entries[np.arange(entries.shape[0]), selected] != 1.0
    if bad.any():
        raise ValueError(f"subsampling row {int(np.argmax(bad))} is not a standard basis vector")
    if np.unique(selected).size != selected.size:
        raise ValueError("subsampling rows must select distinct samples")


def gaussian_matrix(m: int, n: int, seed: int = 0) -> SensingMatrix:
    """Draw an M x N matrix with i.i.d. N(0, 1/m) entries.

    Deterministic per seed; rejects m > n.
    """
    _check_shape(m, n)
    rng = np.random.default_rng(seed)
    entries = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    return SensingMatrix(entries=entries, kind=GAUSSIAN, seed=seed)


def subsampling_matrix(m: int, n: int, seed: int = 0) -> SensingMatrix:
    """Draw m distinct sample indices uniformly; row i selects sample sigma(i)."""
    _check_shape(m, n)
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=m, replace=False)
    entries = np.zeros((m, n))
    entries[np.arange(m), idx] = 1.0
    return SensingMatrix(entries=entries, kind=SUBSAMPLING, seed=seed)


def matrix_from_kind(kind: str, m: int, n: int, seed: int = 0) -> SensingMatrix:
    """Regenerate a matrix from its provenance tuple."""
    if kind == GAUSSIAN:
        return gaussian_matrix(m, n, seed)
    if kind == SUBSAMPLING:
        return subsampling_matrix(m, n, seed)
    raise ValueError(f"unknown matrix kind {kind!r}")


def measure(phi: SensingMatrix, x: np.ndarray) -> Measurement:
    """Compute the dense product m = Phi @ x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != phi.n_cols:
        raise ValueError(
            f"signal length {x.shape} does not match matrix with n={phi.n_cols}"
        )
    return Measurement(values=phi.entries @ x)


def _check_shape(m: int, n: int) -> None:
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
