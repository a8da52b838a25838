"""Matrix primitives used by the solver: symmetric eigendecomposition
with a fixed sign convention (directly, or through the smaller Gram
matrix of a factor), and mass scaling.

The eigensolver's numerical tolerances live in one place (``TOL``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MassError, ShapeError, SymmetryError


@dataclass(frozen=True)
class Tolerances:
    """Central record of the tolerances the package relies on."""

    symmetry: float = 1e-10          # max |S - S'| accepted by sym_eig_top
    eig_tie_rel: float = 1e-10       # relative gap treated as an eigenvalue tie


TOL = Tolerances()


@dataclass(frozen=True, eq=False)
class SymEigResult:
    """Top eigenpairs of a symmetric matrix.

    ``values`` are sorted descending.  ``vectors`` has the matching
    eigenvectors as columns, each sign-fixed so that its entry of largest
    absolute value is positive (first such entry on ties).
    """

    values: np.ndarray
    vectors: np.ndarray


def _sign_fix(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip columns so the largest-magnitude entry is positive; return the
    flipped matrix and the pivot row index of each column."""
    pivots = np.abs(vectors).argmax(axis=0)
    flips = vectors[pivots, np.arange(vectors.shape[1])] < 0
    fixed = vectors.copy()
    fixed[:, flips] *= -1.0
    return fixed, pivots


def sym_eig_top(matrix: np.ndarray, p: int) -> SymEigResult:
    """Top-``p`` eigenpairs of a symmetric matrix, deterministically ordered.

    Eigenvalues come out descending.  Within a group of numerically tied
    eigenvalues (relative gap below ``TOL.eig_tie_rel``) the vectors are
    ordered by their sign-convention pivot index, which keeps the output
    byte-stable for degenerate spectra.
    """
    S = np.asarray(matrix, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {S.shape}")
    n = S.shape[0]
    if not 1 <= p <= n:
        raise ShapeError(f"p={p} outside [1, {n}]")
    gap = np.abs(S - S.T).max() if n else 0.0
    if gap > TOL.symmetry:
        raise SymmetryError(f"matrix is asymmetric: max |S - S'| = {gap:.3e}")
    S = 0.5 * (S + S.T)

    values, vectors = np.linalg.eigh(S)
    return _ordered_top(values[::-1], vectors[:, ::-1], p)


def gram_eig_top(factor: np.ndarray, p: int) -> SymEigResult | None:
    """Top-``p`` eigenpairs of F'F from the eigendecomposition of F F'.

    For a K x Q factor F with K < Q the K x K problem is the cheap one:
    every eigenvector u of F F' with eigenvalue lambda > 0 maps to the unit
    eigenvector F'u / sqrt(lambda) of F'F with the same eigenvalue.  The
    eigenvalues positive beyond the tie tolerance are mapped back (each
    column scaled to unit length) and get the sign convention and tie
    order of ``sym_eig_top``.  Returns ``None`` when fewer than ``p`` are;
    the rest of the spectrum of F'F is zero, and its vectors only the
    Q x Q problem defines.
    """
    F = np.asarray(factor, dtype=float)
    values, u = np.linalg.eigh(F @ F.T)
    values = values[::-1]
    # Descending, so the eigenvalues clear of the zero group form a prefix.
    kept = int(np.count_nonzero(values > TOL.eig_tie_rel * np.maximum(1.0, values)))
    if kept < p:
        return None
    vectors = F.T @ u[:, ::-1][:, :kept]
    vectors /= np.linalg.norm(vectors, axis=0)
    return _ordered_top(values[:kept], vectors, p)


def _ordered_top(values: np.ndarray, vectors: np.ndarray, p: int) -> SymEigResult:
    """The first ``p`` of descending eigenpairs, each vector sign-fixed.

    Within a group of numerically tied eigenvalues (relative gap below
    ``TOL.eig_tie_rel``) the vectors are ordered by their sign-convention
    pivot index: a group starts wherever the relative gap to the previous
    eigenvalue exceeds the tie tolerance.
    """
    vectors, pivots = _sign_fix(vectors)
    scale = np.maximum(1.0, np.maximum(np.abs(values[:-1]), np.abs(values[1:])))
    breaks = np.abs(np.diff(values)) > TOL.eig_tie_rel * scale
    group = np.concatenate(([0], np.cumsum(breaks)))
    order = np.lexsort((pivots, group))
    values = values[order]
    vectors = vectors[:, order]
    return SymEigResult(values=values[:p].copy(), vectors=vectors[:, :p].copy())


def mass_scale(
    matrix: np.ndarray,
    masses: np.ndarray,
    exponent: float,
    side: str = "left",
) -> np.ndarray:
    """Scale rows (``side='left'``) or columns (``side='right'``) of
    ``matrix`` by ``masses ** exponent``.  Masses must be strictly positive."""
    matrix = np.asarray(matrix, dtype=float)
    masses = np.asarray(masses, dtype=float).ravel()
    if np.any(masses <= 0.0):
        raise MassError("all masses must be strictly positive")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    scale = masses**exponent
    if side == "left":
        if matrix.shape[0] != scale.size:
            raise ShapeError("mass vector does not match row count")
        return matrix * scale[:, None]
    if matrix.shape[1] != scale.size:
        raise ShapeError("mass vector does not match column count")
    return matrix * scale[None, :]
