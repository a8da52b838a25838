"""Matrix primitives used by the solver: symmetric eigendecomposition
with a fixed sign convention (directly, or through the smaller Gram
matrices of a stack of factors), and mass scaling.

The eigensolver's numerical tolerances live in one place (``TOL``).
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import EigenSolverError, MassError, ShapeError, SymmetryError


@dataclass(frozen=True)
class Tolerances:
    """Central record of the tolerances the package relies on."""

    symmetry: float = 1e-10          # max |S - S'| accepted by sym_eig_top
    eig_tie_rel: float = 1e-10       # relative gap treated as an eigenvalue tie


TOL = Tolerances()


@dataclass(frozen=True, eq=False)
class SymEigResult:
    """Top eigenpairs of a symmetric matrix, or of each matrix of a stack
    (``gram_eig_top``: S x p values and S x Q x p vectors).

    ``values`` are sorted descending.  ``vectors`` has the matching
    eigenvectors as columns, each sign-fixed so that its entry of largest
    absolute value is positive (first such entry on ties).
    """

    values: np.ndarray
    vectors: np.ndarray


def sym_eig_top(matrix: np.ndarray, p: int) -> SymEigResult:
    """Top-``p`` eigenpairs of a symmetric matrix, deterministically ordered.

    Eigenvalues come out descending.  Within a group of numerically tied
    eigenvalues (relative gap below ``TOL.eig_tie_rel``) the vectors are
    ordered by their sign-convention pivot index, which keeps the output
    byte-stable for degenerate spectra.

    The decomposed matrix is the symmetric part 0.5 (S + S') in a new
    array (``_symmetrized``), so ``matrix`` is never modified.  Only the
    columns up to the end of the tie group holding column p - 1 are
    tie-ordered: the groups after it cannot move a column into the top p.
    Where numpy's bundled OpenBLAS exports LAPACKE's ``dsyevr``, only the
    top k = p + 1 pairs are computed, or all n if that tie group runs past
    them; elsewhere ``np.linalg.eigh`` solves the whole spectrum.  A
    solver failure raises ``EigenSolverError``.
    """
    S = np.asarray(matrix, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {S.shape}")
    n = S.shape[0]
    if not 1 <= p <= n:
        raise ShapeError(f"p={p} outside [1, {n}]")

    dsyevr = _dsyevr()
    if dsyevr is None:
        values, vectors = _eigh_all(_symmetrized(S))
    else:
        values, vectors = _dsyevr_top(dsyevr, _symmetrized(S), min(n, p + 1))
        if len(values) < n and not _breaks(values[p - 1 :]).any():
            values, vectors = _dsyevr_top(dsyevr, _symmetrized(S), n)
    tail = _breaks(values[p - 1 :])
    end = p + int(tail.argmax()) if tail.any() else len(values)
    values, vectors = _ordered_top(values[None, :end], vectors[None, :, :end], p)
    return SymEigResult(values=values[0], vectors=vectors[0])


def _eigh_all(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of symmetric ``S`` from ``np.linalg.eigh``,
    descending."""
    with _one_blas_thread():
        try:
            values, vectors = np.linalg.eigh(S)
        except np.linalg.LinAlgError as exc:
            raise EigenSolverError(f"eigh failed on a {len(S)} x {len(S)} matrix: {exc}") from exc
    return values[::-1], vectors[:, ::-1]


_LAPACK_COL_MAJOR = 102


def _dsyevr_top(dsyevr: Callable[..., int], S: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top ``k`` eigenpairs of symmetric ``S``, descending, from
    LAPACKE's ``dsyevr`` (``range='I'``).  ``S`` is consumed: a C-ordered
    symmetric array is its own column-major form, so LAPACK works in its
    buffer and writes only the n x k block of vectors."""
    n = len(S)
    values = np.empty(n)
    vectors = np.empty((k, n))  # column-major n x k
    found = np.zeros(1, dtype=np.int64)
    support = np.empty(2 * k, dtype=np.int64)
    with _one_blas_thread():
        info = dsyevr(
            _LAPACK_COL_MAJOR, b"V", b"I", b"L", n, S, n,
            0.0, 0.0, n - k + 1, n, 0.0, found, values, vectors, n, support,
        )  # fmt: skip
    if info != 0 or found[0] != k:
        raise EigenSolverError(
            f"LAPACK dsyevr failed on a {n} x {n} matrix (info {info}, {found[0]} of {k} pairs)"
        )
    return values[k - 1 :: -1], vectors[::-1].T


ROW_BLOCK = 64  # rows per block in the passes over a Q x Q matrix


def _mirror_blocks(S: np.ndarray) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """``(lo, hi, a, b)`` per block of ``ROW_BLOCK`` rows of a square
    matrix: ``a`` is rows lo:hi from column lo on, ``b`` the matching
    block of S'.  Every pair S_ij, S_ji meets in exactly one block."""
    for lo in range(0, len(S), ROW_BLOCK):
        hi = lo + ROW_BLOCK
        yield lo, hi, S[lo:hi, lo:], S[lo:, lo:hi].T


def _symmetry_gap(S: np.ndarray) -> float:
    """max |S - S'| of a square float matrix, from blocks of rows.

    Raises ``SymmetryError`` where an entry is not finite (naming the
    first, row by row) or where the gap exceeds ``TOL.symmetry``.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        gap = float(np.max([np.abs(a - b).max() for _, _, a, b in _mirror_blocks(S)]))
    if not np.isfinite(gap):
        bad = np.argwhere(~np.isfinite(S))
        if bad.size:  # else a finite difference overflowed
            i, j = bad[0]
            raise SymmetryError(f"matrix has a non-finite entry {S[i, j]} at ({i}, {j})")
    if gap > TOL.symmetry:
        raise SymmetryError(f"matrix is asymmetric: max |S - S'| = {gap:.3e}")
    return gap


def _symmetrized(S: np.ndarray) -> np.ndarray:
    """The symmetric part 0.5 (S + S') of a square float matrix, after
    ``_symmetry_gap``'s checks, as a new array written one block of rows
    at a time: no temporary is larger than a block of rows."""
    _symmetry_gap(S)
    out = np.empty(S.shape)
    for lo, hi, a, b in _mirror_blocks(S):
        part = a + b
        part *= 0.5
        out[lo:hi, lo:] = part
        out[lo:, lo:hi] = part.T
    return out


# Thread-count getters and setters of numpy's bundled OpenBLAS, by the
# names of current and of older wheels, and its LAPACKE dsyevr (64-bit
# integers, ``64_``) by the same two namings.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)
_DSYEVR_SYMBOLS = ("scipy_LAPACKE_dsyevr64_", "LAPACKE_dsyevr64_")


@lru_cache(maxsize=None)
def _bundled_openblas() -> tuple[Callable[[], int], Callable[[int], None], Callable | None] | None:
    """The thread-count getter and setter of the OpenBLAS bundled with
    numpy (``numpy.libs`` beside the package, or its ``.dylibs``) and the
    same library's LAPACKE ``dsyevr`` (None where it is not exported), or
    None where no such library exports the thread functions."""
    package = Path(np.__file__).parent
    paths = [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            if hasattr(library, get_name) and hasattr(library, set_name):
                get, set_ = getattr(library, get_name), getattr(library, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_, _dsyevr_from(library)
    return None


def _dsyevr_from(library: ctypes.CDLL) -> Callable | None:
    """``library``'s LAPACKE_dsyevr with 64-bit integers, typed, or None."""
    name = next((name for name in _DSYEVR_SYMBOLS if hasattr(library, name)), None)
    if name is None:
        return None
    dsyevr = getattr(library, name)
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    i64, char, double = ctypes.c_int64, ctypes.c_char, ctypes.c_double
    dsyevr.argtypes = [
        ctypes.c_int, char, char, char, i64, doubles, i64,  # layout, jobz, range, uplo, n, a, lda
        double, double, i64, i64, double,  # vl, vu, il, iu, abstol
        ints, doubles, doubles, i64, ints,  # m, w, z, ldz, isuppz
    ]
    dsyevr.restype = i64
    return dsyevr


def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The bundled OpenBLAS's thread-count getter and setter, or None."""
    blas = _bundled_openblas()
    return None if blas is None else blas[:2]


def _dsyevr() -> Callable | None:
    """The bundled OpenBLAS's LAPACKE dsyevr, or None."""
    blas = _bundled_openblas()
    return None if blas is None else blas[2]


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body with numpy's bundled OpenBLAS on one thread, so that a
    LAPACK result does not depend on the thread count, and restore the
    previous count after it, also when the body raises.  Does nothing
    where no such OpenBLAS is found (an MKL or Accelerate build, say).

    The count is process-wide.  That is safe here: the library and the
    CLI call BLAS from one thread, and ``simulate`` runs its workers in
    processes.
    """
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def gram_eig_top(factors: np.ndarray, p: int) -> tuple[SymEigResult, np.ndarray]:
    """Top-``p`` eigenpairs of F'F for each K x Q factor F of an S x K x Q
    stack, from the eigendecompositions of the K x K matrices F F'.

    For K < Q the K x K problem is the cheap one: every eigenvector u of
    F F' with eigenvalue lambda > 0 maps to the unit eigenvector
    F'u / sqrt(lambda) of F'F with the same eigenvalue.  The eigenvalues
    positive beyond the tie tolerance can be mapped back (each column
    scaled to unit length) and get the sign convention and tie order of
    ``sym_eig_top``; as there, a factor maps back only its columns up to
    the end of the tie group that holds column p - 1.  Returns the stacked
    result (S x p values, S x Q x p vectors) and each factor's count
    ``kept`` of clearly positive eigenvalues.  The rest of the spectrum of
    F'F is zero, and the K x K problem defines no vectors for it: past its
    first min(kept, p) columns, a factor's values and vectors are zero.

    Every factor gets the numpy calls, shapes and memory layouts a lone
    factor would, so its result does not depend on the rest of the stack.
    """
    F = np.asarray(factors, dtype=float)
    values, u = np.linalg.eigh(F @ np.swapaxes(F, 1, 2))
    values = values[:, ::-1]
    # Descending, so the eigenvalues clear of the zero group form a prefix.
    kept = np.count_nonzero(values > TOL.eig_tie_rel * np.maximum(1.0, values), axis=1)
    # The first break from column p - 1 on, or one past the last column.
    tail = np.column_stack((_breaks(values[:, p - 1 :]), np.ones(len(F), dtype=bool)))
    ends = np.minimum(p + tail.argmax(axis=1), kept)
    # At least two columns where there are two: matmul takes another
    # kernel for a lone column, and that could change the bits.
    ends = np.maximum(ends, np.minimum(kept, 2))
    top = np.zeros((len(F), p))
    top_vectors = np.zeros((len(F), F.shape[2], p))
    # A factor's result reads only its first ``end`` columns (end < p
    # only where kept = end < p), so factors that share ``end`` share
    # every call.
    for end in np.unique(ends[ends > 0]):
        group = np.flatnonzero(ends == end)
        if group.size == len(F):
            group = slice(None)
        vectors = np.swapaxes(F[group], 1, 2) @ u[group][:, :, ::-1][:, :, :end]
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        r = min(end, p)
        top[group, :r], top_vectors[group, :, :r] = _ordered_top(values[group][:, :end], vectors, p)
    return SymEigResult(values=top, vectors=top_vectors), kept


def _ordered_top(
    values: np.ndarray, vectors: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``p`` of each S x k row of descending eigenvalues and of
    the matching S x Q x k vectors, each vector sign-fixed by
    ``sign_fixed``.

    Within a group of numerically tied eigenvalues (relative gap below
    ``TOL.eig_tie_rel``) the vectors are ordered by their sign-convention
    pivot index: a group starts wherever the relative gap to the previous
    eigenvalue exceeds the tie tolerance.
    """
    breaks = _breaks(values)
    if not breaks.all():
        pivots = np.abs(vectors).argmax(axis=1)
        starts = np.concatenate((np.zeros((len(values), 1), dtype=bool), breaks), axis=1)
        group = np.cumsum(starts, axis=1)
        # Sort by (group, pivot); a pivot is a row index, below Q.
        order = np.argsort(group * vectors.shape[1] + pivots, axis=1, kind="stable")
        values = np.take_along_axis(values, order, axis=1)
        vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
    return values[:, :p].copy(), sign_fixed(vectors[:, :, :p])


def _breaks(values: np.ndarray) -> np.ndarray:
    """Where rows of descending eigenvalues start a new tie group: entry i
    is True where the relative gap between values i and i + 1 exceeds
    the tie tolerance."""
    scale = np.maximum(1.0, np.maximum(np.abs(values[..., :-1]), np.abs(values[..., 1:])))
    return np.abs(np.diff(values, axis=-1)) > TOL.eig_tie_rel * scale


def sign_fixed(vectors: np.ndarray) -> np.ndarray:
    """Each column of an S x Q x k stack of vectors, negated where needed so
    that its entry of largest absolute value is positive (the first such
    entry on ties)."""
    pivots = np.abs(vectors).argmax(axis=1)
    flips = np.take_along_axis(vectors, pivots[:, None, :], axis=1) < 0
    return vectors * np.where(flips, -1.0, 1.0)


def mass_scale(matrix: np.ndarray, masses: np.ndarray, exponent: float) -> np.ndarray:
    """Scale the rows of ``matrix``, or of each matrix of a stack, by
    ``masses ** exponent``.  Masses must be strictly positive."""
    matrix = np.asarray(matrix, dtype=float)
    masses = np.asarray(masses, dtype=float).ravel()
    if np.any(masses <= 0.0):
        raise MassError("all masses must be strictly positive")
    scale = masses**exponent
    if matrix.shape[-2] != scale.size:
        raise ShapeError("mass vector does not match row count")
    return matrix * scale[:, None]
