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

from .data import (
    CategoricalDataset,
    HierarchicalAssignment,
    IndicatorView,
    SupplementaryData,
    cluster_counts,
    stacked_indicators,
)
from .errors import DegenerateGeometryError, MassError, ShapeError


@dataclass(frozen=True)
class BiplotModel:
    """Scaled cluster-by-category table with masses, residuals, and
    (once attached) display coordinates.

    ``row_index`` records the (h, class, cluster) triple behind each row;
    rows may be ordered naturally or by descending cluster size within
    class (the display convention: label "X1" is the largest cluster of
    class X).  ``gamma`` is the accumulated spread-rescaling factor.
    """

    table: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    row_index: tuple[tuple[int, int, int], ...]
    residuals: np.ndarray | None = None
    row_coords: np.ndarray | None = None
    col_coords: np.ndarray | None = None
    gamma: float = 1.0


def contingency(
    assignment: HierarchicalAssignment,
    view: IndicatorView,
    order: str = "size",
) -> BiplotModel:
    """Scaled contingency table P = (N H m)^{-1} U' Z^H.

    ``order='size'`` arranges each class's rows by descending cluster size
    (display convention); ``order='natural'`` keeps the (h, class, cluster)
    enumeration, which is what alignment against a reference assignment
    needs.  Raises ``EmptyClusterError`` when a cluster has no members.
    """
    if order not in ("size", "natural"):
        raise ShapeError(f"order must be 'size' or 'natural', got {order!r}")
    if view.n_stack != assignment.n_sup:
        raise ShapeError("view stacking does not match the assignment's variable count")
    sup, spec = assignment.sup, assignment.spec
    n, m, n_sup = view.n_obs, view.n_vars, assignment.n_sup
    counts, sizes = cluster_counts(assignment, view)
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
    table = counts[rows] / (n * n_sup * m)
    return BiplotModel(
        table=table,
        row_masses=table.sum(axis=1),
        col_masses=table.sum(axis=0),
        row_labels=tuple(labels),
        col_labels=view.column_labels,
        row_index=tuple(index),
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

    ``centers`` is the solver's stacked center matrix in natural
    (h, class, cluster) order; rows are permuted to the model's ordering.
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
    # Natural position of each (h, s, cluster) triple, i.e. its row in the
    # solver's stacked center matrix.
    natural = {t: i for i, t in enumerate(sorted(model.row_index))}
    perm = np.array([natural[t] for t in model.row_index], dtype=np.int64)
    work = model if model.residuals is not None else standardized_residuals(model)
    row_coords = np.sqrt(work.row_masses)[:, None] * centers[perm]
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


@dataclass(frozen=True)
class ResidualComparison:
    """Standardized residuals of the class-level (averaged) table next to
    the cluster-level table, with long-format records for rendering."""

    averaging: BiplotModel
    clustered: BiplotModel
    records: tuple[dict, ...]


def residual_comparison(
    dataset: CategoricalDataset,
    sup: SupplementaryData,
    solution,
) -> ResidualComparison:
    """Residual tables of the averaging table (one row per class) and the
    cluster table (one row per cluster), both on the 1/(N H m) scaling.

    ``solution`` is a converged fit (or a bare assignment).  Each record
    carries its class label so an averaging row can be mapped to the
    cluster rows that partition it.
    """
    assignment: HierarchicalAssignment = getattr(solution, "assignment", solution)
    if assignment.sup is not sup and not np.array_equal(assignment.sup.codes, sup.codes):
        raise ShapeError("assignment does not belong to the given supplementary data")
    view = stacked_indicators(dataset, sup.n_sup)
    averaging = standardized_residuals(
        contingency(HierarchicalAssignment.by_class(sup), view, order="size")
    )
    clustered = standardized_residuals(contingency(assignment, view, order="size"))
    records: list[dict] = []
    for name, model in (("averaging", averaging), ("mscca", clustered)):
        for i, (h, s, _k) in enumerate(model.row_index):
            for j, col in enumerate(model.col_labels):
                records.append(
                    {
                        "method": name,
                        "row": model.row_labels[i],
                        "class": sup.labels[h][s],
                        "column": col,
                        "value": float(model.residuals[i, j]),
                    }
                )
    return ResidualComparison(
        averaging=averaging, clustered=clustered, records=tuple(records)
    )
