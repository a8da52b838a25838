"""Contingency tables, standardized residuals, and biplot coordinates.

Rows are the clusters of every class of every supplementary variable,
columns are the categories of every analysis variable.  The scaled table
uses the 1/(N H m) factor throughout so its total mass is one and the
independence term r c' is well formed; inner products of the row and
column coordinates then approximate the standardized deviations from
independence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import CategoricalDataset, HierarchicalAssignment
from .errors import DegenerateGeometryError, MassError, ShapeError


@dataclass(frozen=True, eq=False)
class BiplotModel:
    """Scaled cluster-by-category table with masses, residuals, and
    (once attached) display coordinates.

    ``row_index`` records the (h, class, cluster) triple behind each row,
    ``rows`` its row of the solver's stacked center matrix G and ``sizes``
    its cluster's member count; rows may be ordered naturally or by
    descending cluster size within class (the display convention: label
    "X1" is the largest cluster of class X).
    ``gamma`` is the accumulated spread-rescaling factor.
    """

    table: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    row_index: tuple[tuple[int, int, int], ...]
    rows: np.ndarray
    sizes: np.ndarray
    residuals: np.ndarray | None = None
    row_coords: np.ndarray | None = None
    col_coords: np.ndarray | None = None
    gamma: float = 1.0


def contingency(
    assignment: HierarchicalAssignment,
    dataset: CategoricalDataset,
    counts: tuple[np.ndarray, np.ndarray],
    order: str = "size",
) -> BiplotModel:
    """Scaled contingency table P = (N H m)^{-1} U' Z^H.

    ``counts`` is the assignment's (K x Q table, K sizes) pair: a fit's
    ``table`` and ``sizes``, or ``cluster_counts(assignment, dataset)``.
    ``order='size'`` arranges each class's rows by descending cluster size
    (display convention); ``order='natural'`` keeps the (h, class, cluster)
    enumeration, which is what alignment against a reference assignment
    needs.
    """
    if order not in ("size", "natural"):
        raise ShapeError(f"order must be 'size' or 'natural', got {order!r}")
    sup, spec = assignment.sup, assignment.spec
    n, m, n_sup = dataset.n_obs, dataset.n_vars, assignment.n_sup
    table, sizes = counts
    if table.shape != (spec.k_total, dataset.total_categories) or sizes.shape != (spec.k_total,):
        raise ShapeError("counts do not match the assignment's clusters and the dataset's columns")
    rows: list[int] = []
    index: list[tuple[int, int, int]] = []
    labels: list[str] = []
    for h in range(n_sup):
        for s, first in enumerate(spec.first_rows[h]):
            k = spec.k_of(h, s)
            local = np.arange(k)
            by_size = local[np.lexsort((local, -sizes[first : first + k]))]
            rank_of = {int(c): r + 1 for r, c in enumerate(by_size)}
            for c in by_size if order == "size" else local:
                rows.append(first + int(c))
                index.append((h, s, int(c)))
                base = sup.labels[h][s]
                labels.append(base if k == 1 else f"{base}{rank_of[int(c)]}")
    table = table[rows] / (n * n_sup * m)
    rows = np.array(rows, dtype=np.int64)
    return BiplotModel(
        table=table,
        row_masses=table.sum(axis=1),
        col_masses=table.sum(axis=0),
        row_labels=tuple(labels),
        col_labels=dataset.column_labels,
        row_index=tuple(index),
        rows=rows,
        sizes=sizes[rows],
    )


def standardized_residuals(model: BiplotModel) -> BiplotModel:
    """Attach P~ = D_r^{-1/2} (P - r c') D_c^{-1/2}."""
    r, c = model.row_masses, model.col_masses
    if np.any(r <= 0) or np.any(c <= 0):
        raise MassError("contingency masses must be strictly positive")
    deviations = model.table - np.outer(r, c)
    residuals = deviations / np.sqrt(np.outer(r, c))
    return replace(model, residuals=residuals)


def biplot_coordinates(
    model: BiplotModel,
    centers: np.ndarray,
    quantifications: np.ndarray,
) -> BiplotModel:
    """Attach row coordinates D_r^{1/2} G and column coordinates D_c^{1/2} B.

    ``centers`` is the solver's stacked center matrix G; ``model.rows``
    picks each display row's center.
    Their inner products are the best rank-p approximation of the
    standardized residuals for the model's assignment.
    """
    centers = np.asarray(centers, dtype=float)
    quantifications = np.asarray(quantifications, dtype=float)
    k, big_q = model.table.shape
    if centers.shape[0] != k:
        raise ShapeError(f"centers have {centers.shape[0]} rows, model has {k}")
    if quantifications.shape[0] != big_q:
        raise ShapeError(
            f"quantifications have {quantifications.shape[0]} rows, model has {big_q} columns"
        )
    if centers.shape[1] != quantifications.shape[1]:
        raise ShapeError("centers and quantifications disagree on p")
    work = model if model.residuals is not None else standardized_residuals(model)
    row_coords = np.sqrt(work.row_masses)[:, None] * centers[model.rows]
    col_coords = np.sqrt(work.col_masses)[:, None] * quantifications
    return replace(work, row_coords=row_coords, col_coords=col_coords, gamma=1.0)


def rescale_spread(model: BiplotModel) -> BiplotModel:
    """Rescale so rows and columns spread equally around the origin.

    gamma = (mean squared column norm / mean squared row norm)^{1/4};
    rows are multiplied by gamma and columns by 1/gamma, which leaves all
    inner products untouched.
    """
    if model.row_coords is None or model.col_coords is None:
        raise ShapeError("coordinates must be attached before rescaling")
    row_ms = float((model.row_coords**2).sum(axis=1).mean())
    col_ms = float((model.col_coords**2).sum(axis=1).mean())
    if row_ms == 0.0 or col_ms == 0.0:
        raise DegenerateGeometryError("cannot rescale an all-zero point set")
    gamma = (col_ms / row_ms) ** 0.25
    return replace(
        model,
        row_coords=model.row_coords * gamma,
        col_coords=model.col_coords / gamma,
        gamma=model.gamma * gamma,
    )


def residual_comparison(
    assignment: HierarchicalAssignment,
    dataset: CategoricalDataset,
    counts: tuple[np.ndarray, np.ndarray],
) -> BiplotModel:
    """The standardized averaging table (one row per class, size order, on
    the 1/(N H m) scaling) to compare with the fit's cluster table.

    A class is the union of its clusters, so its counts are the exact
    integer sums of its clusters' rows of ``counts`` (as in ``contingency``).
    """
    firsts = np.concatenate(assignment.spec.first_rows)
    summed = tuple(np.add.reduceat(part, firsts) for part in counts)
    classes = HierarchicalAssignment.by_class(assignment.sup)
    return standardized_residuals(contingency(classes, dataset, summed))
