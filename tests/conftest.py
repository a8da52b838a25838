"""Shared builders for randomized sweeps."""

from __future__ import annotations

import csv
import tracemalloc
from itertools import chain
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import settings

from mscca import (
    CategoricalDataset,
    ClusterSpec,
    ConstraintSpec,
    HierarchicalAssignment,
    MsccaSolution,
    SolverOptions,
    SupplementaryData,
    cluster_counts,
    init_random,
    object_scores,
    objective_phi,
    psi_value,
    repair_empty_clusters,
    update_U,
)
from mscca.errors import (
    EmptyClusterError,
    MissingValueError,
    ProjectorError,
    ShapeError,
    SpecError,
)
from mscca.linalg import TOL, SymEigResult, _one_blas_thread, _ordered_top, sym_eig_top
from mscca.solver import (
    WINNER_RTOL,
    ConstrainedFit,
    _between_factor,
    _between_quantify,
    _centroids,
    _quantify,
)

# Property tests draw the same examples on every run and write no example
# database into the checkout.
settings.register_profile("mscca", derandomize=True, max_examples=60, database=None, deadline=None)
settings.load_profile("mscca")


def encode_columns_by_cell(
    raw: Sequence[Sequence[str]],
    names: Sequence[str] | None,
    default_prefix: str,
) -> tuple[np.ndarray, tuple[tuple[str, ...], ...], tuple[str, ...]]:
    """Oracle for the table encoder: first-appearance integer coding of a
    rectangular table of labels, one column and one cell at a time."""
    if len(raw) == 0:
        raise ShapeError("table has no rows")
    width = len(raw[0])
    if width == 0:
        raise ShapeError("table has no columns")
    for i, row in enumerate(raw):
        if len(row) != width:
            raise ShapeError(f"row {i} has {len(row)} cells, expected {width}")
    codes = np.empty((len(raw), width), dtype=np.int64)
    labels: list[tuple[str, ...]] = []
    for j in range(width):
        seen: dict[str, int] = {}
        for i, row in enumerate(raw):
            cell = row[j]
            if cell is None or str(cell) == "":
                raise MissingValueError(f"empty cell at row {i}, column {j}")
            code = seen.setdefault(str(cell), len(seen))
            codes[i, j] = code
        labels.append(tuple(seen))
    if names is None:
        names = tuple(f"{default_prefix}{j + 1}" for j in range(width))
    else:
        names = tuple(str(n) for n in names)
        if len(names) != width:
            raise ShapeError("number of names does not match number of columns")
    return codes, tuple(labels), names


def code_table_by_sort(
    raw: Sequence[Sequence],
    row_name: Callable[[int], str] = lambda i: f"row {i}",
    header: Sequence[str] | None = None,
) -> tuple[np.ndarray, tuple[tuple[str, ...], ...]]:
    """Oracle for ``mscca.data._code_table``: one dict of the distinct
    cell texts, then each column renumbered by the first appearance of its
    ids through ``np.unique`` and an ``argsort``."""
    if len(raw) == 0:
        raise ShapeError("table has no rows")
    width = len(raw[0]) if header is None else len(header)
    if width == 0:
        raise ShapeError("table has no columns")
    if set(map(len, raw)) != {width}:
        i = next(i for i, row in enumerate(raw) if len(row) != width)
        raise ShapeError(f"{row_name(i)} has {len(raw[i])} cells, expected {width}")
    cells = list(chain.from_iterable(raw))
    ids = dict.fromkeys(cells)
    if any(type(text) is not str for text in ids):
        cells = [None if cell is None else str(cell) for cell in cells]
        ids = dict.fromkeys(cells)
    if None in ids or "" in ids:
        i, j = divmod(next(k for k, cell in enumerate(cells) if not cell), width)
        column = j if header is None else repr(header[j])
        raise MissingValueError(f"{row_name(i)}: empty cell in column {column}")
    texts = list(ids)
    ids = dict(zip(texts, range(len(texts))))
    table = np.fromiter(map(ids.__getitem__, cells), dtype=np.int64, count=len(cells))
    table = table.reshape(len(raw), width)
    codes = np.empty_like(table)
    labels = []
    for j in range(width):
        distinct, first, inverse = np.unique(table[:, j], return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        codes[:, j] = rank[inverse]
        labels.append(tuple(texts[k] for k in distinct[order]))
    return codes, tuple(labels)


def csv_line_by_reader(path: Path, index: int) -> int:
    """The line of ``path`` on which data row ``index`` starts (the header
    is line 1; blank rows are skipped, as ``read_csv_dataset`` skips them)."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        start = reader.line_num + 1
        for row in reader:
            if row:
                if index == 0:
                    return start
                index -= 1
            start = reader.line_num + 1
    raise ShapeError(f"{path} has no data row {index}")


def read_csv_by_reader(
    path: str | Path, sup_columns: Sequence[str]
) -> tuple[CategoricalDataset, SupplementaryData]:
    """Oracle for ``mscca.read_csv_dataset``: every file through
    ``csv.reader`` streaming from the open file, every row held as a list,
    then coded by ``code_table_by_sort``.  A file with a header and no data
    rows is reported as such."""
    path = Path(path)
    if len(set(sup_columns)) != len(sup_columns):
        raise ShapeError(f"supplementary columns {list(sup_columns)} repeat a column")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if len(set(header)) != len(header):
                raise ShapeError(f"{path}: duplicate column names in header")
            if "\0" in "".join(header):
                name = next(name for name in header if "\0" in name)
                raise ShapeError(f"{path} line 1: NUL byte in header column {name!r}")
            rows = list(filter(None, reader))
        except StopIteration:
            raise ShapeError(f"{path}: empty file, a header row is mandatory") from None
        except csv.Error as exc:
            raise ShapeError(f"{path} line {reader.line_num}: {exc}") from None
    missing = [c for c in sup_columns if c not in header]
    if missing:
        raise ShapeError(f"{path}: supplementary columns {missing} not in header {header}")
    sup_idx = [header.index(c) for c in sup_columns]
    var_idx = [j for j in range(len(header)) if j not in sup_idx]
    if not var_idx:
        raise ShapeError(f"{path}: no analysis variables left after removing {list(sup_columns)}")
    if not rows:
        raise ShapeError(f"{path}: no data rows after the header")
    codes, labels = code_table_by_sort(
        rows, lambda i: f"{path} line {csv_line_by_reader(path, i)}", header
    )
    if "\0" in "".join(chain.from_iterable(labels)):
        i, j = next(
            (i, j) for i, row in enumerate(rows) for j, cell in enumerate(row) if "\0" in cell
        )
        raise ShapeError(
            f"{path} line {csv_line_by_reader(path, i)}: NUL byte in column {header[j]!r}"
        )
    ds = CategoricalDataset(
        codes=codes[:, var_idx],
        labels=tuple(labels[j] for j in var_idx),
        names=tuple(header[j] for j in var_idx),
    )
    sup = SupplementaryData(
        codes=codes[:, sup_idx],
        labels=tuple(labels[j] for j in sup_idx),
        names=tuple(header[j] for j in sup_idx),
    )
    return ds, sup


def round_floats_recursive(obj: Any) -> Any:
    """Oracle for the archive rounding: every float to 15 significant
    digits, one element at a time."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.15g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return round_floats_recursive(obj.tolist())
    if isinstance(obj, dict):
        return {k: round_floats_recursive(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats_recursive(v) for v in obj]
    return obj


def residual_cells(section) -> list[tuple]:
    """Oracle for an archive's residual section (``ResidualTables``): per
    cell, table by table and row by row, its (method, row, class, column,
    value) read from the models one element at a time."""
    return [
        (method, model.row_labels[i], section.sup.labels[h][s], column,
         float(model.residuals[i, j]))
        for method, model in section.tables
        for i, (h, s, _k) in enumerate(model.row_index)
        for j, column in enumerate(model.col_labels)
    ]


def random_dataset(rng: np.random.Generator, n: int, m: int, q: int) -> CategoricalDataset:
    codes = rng.integers(0, q, size=(n, m))
    labels = tuple(tuple(f"c{x + 1}" for x in range(q)) for _ in range(m))
    return CategoricalDataset.from_codes(codes, labels)


def random_sup(rng: np.random.Generator, n: int, n_sup: int, r: int) -> SupplementaryData:
    codes = rng.integers(0, r, size=(n, n_sup))
    labels = tuple(tuple(f"g{x + 1}" for x in range(r)) for _ in range(n_sup))
    return SupplementaryData.from_codes(codes, labels)


def random_problem(
    rng: np.random.Generator,
    n: int = 60,
    m: int = 4,
    q: int = 3,
    n_sup: int = 2,
    r: int = 2,
    k_max: int = 3,
):
    """Dataset, supplementary data, and a feasible random cluster spec."""
    ds = random_dataset(rng, n, m, q)
    sup = random_sup(rng, n, n_sup, r)
    counts = []
    for h in range(sup.n_sup):
        sizes = sup.class_sizes(h)
        counts.append(
            tuple(int(rng.integers(1, min(k_max, sizes[s]) + 1)) for s in range(sup.r[h]))
        )
    return ds, sup, ClusterSpec(tuple(counts))


def random_mixed_problem(rng, n=120, m=6, q=4, n_sup=None):
    """Dataset plus supplementary data with mixed per-class cluster counts
    (1-3); ``n_sup`` supplementary variables, or 1-2 drawn from ``rng``."""
    ds = random_dataset(rng, n, m, q)
    if n_sup is None:
        n_sup = int(rng.integers(1, 3))
    r = int(rng.integers(2, 4))
    sup = random_sup(rng, n, n_sup, r)
    counts = tuple(
        tuple(int(rng.integers(1, 4)) for _ in range(sup.r[h])) for h in range(sup.n_sup)
    )
    return ds, sup, ClusterSpec(counts)


def random_assignment(
    rng: np.random.Generator, sup: SupplementaryData, spec: ClusterSpec
) -> HierarchicalAssignment:
    """Uniform random feasible assignment (clusters may be empty)."""
    clusters = np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64)
    for h in range(sup.n_sup):
        for s in range(sup.r[h]):
            members = sup.members(h, s)
            clusters[members, h] = rng.integers(0, spec.k_of(h, s), size=members.size)
    return HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


def z_var(dataset: CategoricalDataset, j: int) -> np.ndarray:
    """Z_j as a dense N x q_j 0/1 matrix."""
    z = np.zeros((dataset.n_obs, dataset.q[j]))
    z[np.arange(dataset.n_obs), dataset.codes[:, j]] = 1.0
    return z


def z_var_stacked(dataset: CategoricalDataset, n_stack: int, j: int) -> np.ndarray:
    """Z_j^H: H = ``n_stack`` vertically stacked copies of Z_j."""
    return np.tile(z_var(dataset, j), (n_stack, 1))


def z_full(dataset: CategoricalDataset) -> np.ndarray:
    """The N x Q concatenation of all Z_j."""
    z = np.zeros((dataset.n_obs, dataset.total_categories))
    for j in range(dataset.n_vars):
        z[np.arange(dataset.n_obs), dataset.offsets[j] + dataset.codes[:, j]] = 1.0
    return z


def z_full_stacked(dataset: CategoricalDataset, n_stack: int) -> np.ndarray:
    """Z^H: the NH x Q stack of the concatenated indicator, H = ``n_stack``."""
    return np.tile(z_full(dataset), (n_stack, 1))


def z_centered(dataset: CategoricalDataset) -> np.ndarray:
    """Column-centered Z (each replicate block of J Z^H equals this)."""
    return center_columns(z_full(dataset))


def center_columns(matrix: np.ndarray) -> np.ndarray:
    """Remove the column means: returns ``J @ matrix`` for the usual
    centering projector J.  Idempotent; constant columns map to zero."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ShapeError(f"expected a non-empty 2-d matrix, got shape {matrix.shape}")
    return matrix - matrix.mean(axis=0, keepdims=True)


def column_index(assignment: HierarchicalAssignment, h: int) -> np.ndarray:
    """Column of U_h indicated by each observation."""
    return assignment.rows[:, h] - assignment.spec.first_rows[h][0]


def cluster_sizes(assignment: HierarchicalAssignment, h: int) -> np.ndarray:
    """Member count of each column of U_h."""
    return np.bincount(column_index(assignment, h), minlength=assignment.spec.k_per_variable[h])


def indicator(assignment: HierarchicalAssignment, h: int) -> np.ndarray:
    """U_h as a dense N x K_h 0/1 matrix."""
    n, k_h = assignment.n_obs, assignment.spec.k_per_variable[h]
    u = np.zeros((n, k_h))
    u[np.arange(n), column_index(assignment, h)] = 1.0
    return u


def validate_assignment(
    matrices: HierarchicalAssignment | Sequence[np.ndarray],
    sup: SupplementaryData,
    spec: ClusterSpec | None = None,
) -> list[tuple[int, int, str]]:
    """Report violations of the hierarchical indicator constraint.

    Accepts either an assignment object or raw per-variable indicator
    matrices.  Returns one ``(h, i, message)`` entry per offending row;
    an empty list means the constraint holds everywhere.
    """
    if isinstance(matrices, HierarchicalAssignment):
        spec = matrices.spec
        matrices = [indicator(matrices, h) for h in range(matrices.n_sup)]
    if spec is None:
        raise ShapeError("a ClusterSpec is required with raw indicator matrices")
    violations: list[tuple[int, int, str]] = []
    for h, u in enumerate(matrices):
        u = np.asarray(u)
        k_h = spec.k_per_variable[h]
        if u.shape != (sup.n_obs, k_h):
            raise ShapeError(f"U_{h} must be {sup.n_obs} x {k_h}, got {u.shape}")
        offsets = spec.first_rows[h] - spec.first_rows[h][0]
        for i in range(sup.n_obs):
            row = u[i]
            if not np.isin(row, (0.0, 1.0)).all():
                violations.append((h, i, "entries must be 0 or 1"))
                continue
            ones = np.flatnonzero(row == 1.0)
            if ones.size != 1:
                violations.append((h, i, f"row indicates {ones.size} clusters, expected 1"))
                continue
            s = int(sup.codes[i, h])
            lo = offsets[s]
            hi = lo + spec.k_of(h, s)
            if not lo <= ones[0] < hi:
                violations.append((h, i, "cluster indicated outside the observed class"))
    return violations


def stacked_indicator(assignment: HierarchicalAssignment) -> np.ndarray:
    """The NH x K block-diagonal stacked indicator."""
    blocks = [indicator(assignment, h) for h in range(assignment.n_sup)]
    n, k = assignment.n_obs, assignment.spec.k_total
    u = np.zeros((n * assignment.n_sup, k))
    col = 0
    for h, block in enumerate(blocks):
        u[h * n : (h + 1) * n, col : col + block.shape[1]] = block
        col += block.shape[1]
    return u


def dense_objective(
    assignment: HierarchicalAssignment,
    centers: np.ndarray,
    quantifications: np.ndarray,
    dataset: CategoricalDataset,
) -> float:
    """Oracle for ``objective_phi``: (1/(N H m)) sum_j || U G - Z_j^H B_j ||^2
    from the dense stacked indicator U and each variable's dense Z_j, one
    residual per (observation, supplementary variable, variable)."""
    ug = stacked_indicator(assignment) @ centers
    total = 0.0
    for j, (lo, q) in enumerate(zip(dataset.offsets, dataset.q)):
        fitted = z_var_stacked(dataset, assignment.n_sup, j) @ quantifications[lo : lo + q]
        total += float(((ug - fitted) ** 2).sum())
    return total / (dataset.n_obs * assignment.n_sup * dataset.n_vars)


def _direct_objective(
    blocks: list[np.ndarray], quantifications: np.ndarray, dataset: CategoricalDataset
) -> np.ndarray | float:
    """(1/(N H m)) sum_j sum_h || blocks[h] - Z_j B_j ||^2 for H per-h
    N x p score blocks, one variable's quantified rows at a time; for S x
    N x p blocks and S x Q x p quantifications, one value per start.

    Each difference is squared in place and each start's flattened N p
    row summed by numpy's ``sum(axis=1)`` over the whole stack: every row
    is reduced on its own, pairwise, so a start's value has the bits of
    the lone start's whatever the stack.  No BLAS dot product is used,
    since its rounding depends on the thread count.

    The oracle for the ``identity`` and ``projector-off`` objectives of
    ``fit_constrained_mca``, which are read from the spectrum.
    """
    total = np.zeros(quantifications.shape[:-2])
    per_start = total.reshape(-1)
    for row, lo, q in zip(dataset.codes.T, dataset.offsets, dataset.q):
        fitted = np.take(quantifications[..., lo : lo + q, :], row, axis=-2)
        for block in blocks:
            diff = block - fitted
            np.square(diff, out=diff)
            per_start += diff.reshape(per_start.size, -1).sum(axis=1)
    return total / (dataset.n_obs * len(blocks) * dataset.n_vars)


def update_B_qxq(
    assignment: HierarchicalAssignment, dataset: CategoricalDataset, p: int
) -> np.ndarray:
    """Oracle for ``update_B``: the Q x Q route, ``sym_eig_top`` on the
    mass-scaled between-cluster target Z^H' J P_U J Z^H = F'F formed from
    the count table's factor F (the B-step of every fit before the K x K
    route, and the oracle for the K x K route's kept columns)."""
    table, sizes = cluster_counts(assignment, dataset)
    factor = _between_factor(table, sizes, dataset)
    return _quantify(factor.T @ factor, dataset, assignment.n_sup, p)[0]


def sym_eig_top_full_spectrum(matrix: np.ndarray, p: int) -> SymEigResult:
    """Oracle for ``sym_eig_top``'s ordering: the symmetric part formed on
    whole arrays, and every column of ``eigh``'s output, not only those
    near the top p, tie-ordered and sign-fixed before the top p are
    kept."""
    s = np.asarray(matrix, dtype=float)
    s = 0.5 * (s + s.T)
    with _one_blas_thread():
        values, vectors = np.linalg.eigh(s)
    values, vectors = _ordered_top(values[None, ::-1], vectors[None, :, ::-1], p)
    return SymEigResult(values=values[0], vectors=vectors[0])


def between_spectrum(assignment: HierarchicalAssignment, dataset: CategoricalDataset) -> np.ndarray:
    """All Q eigenvalues, descending, of the mass-scaled between-cluster
    target (1/m) D^-1/2 Z^H' J P_U J Z^H D^-1/2, from dense matrices."""
    u = stacked_indicator(assignment)
    zc = np.tile(z_centered(dataset), (assignment.n_sup, 1))
    between = zc.T @ u @ np.linalg.solve(u.T @ u, u.T @ zc)
    d_isqrt = 1.0 / np.sqrt(dataset.counts * assignment.n_sup)
    scaled = between * d_isqrt[:, None] * d_isqrt[None, :] / dataset.n_vars
    return np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[::-1]


def _variable_offsets(spec: ClusterSpec) -> np.ndarray:
    """Row offset of each variable's block inside the stacked G."""
    k_h = np.array(spec.k_per_variable, dtype=np.int64)
    return np.concatenate([[0], np.cumsum(k_h)[:-1]])


def _class_offsets(spec: ClusterSpec, h: int) -> np.ndarray:
    """Column offset of each class block inside U_h."""
    return np.concatenate([[0], np.cumsum(spec.counts[h])[:-1]]).astype(np.int64)


def update_U_by_class(
    scores: np.ndarray,
    centers: np.ndarray,
    sup: SupplementaryData,
    spec: ClusterSpec,
) -> HierarchicalAssignment:
    """Oracle for ``update_U``: one nearest-center search per class.

    Assign every observation to its nearest center inside its observed
    class; ties break toward the lowest cluster index.  Empty clusters may
    result and are repaired separately."""
    g_off = _variable_offsets(spec)
    clusters = np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64)
    for h in range(sup.n_sup):
        offsets = _class_offsets(spec, h)
        for s in range(sup.r[h]):
            members = sup.members(h, s)
            k = spec.k_of(h, s)
            block = centers[g_off[h] + offsets[s] : g_off[h] + offsets[s] + k]
            diff = scores[members][:, None, :] - block[None, :, :]
            d2 = np.einsum("ikd,ikd->ik", diff, diff)
            clusters[members, h] = d2.argmin(axis=1)
    return HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


def repair_empty_clusters_by_class(
    assignment: HierarchicalAssignment,
    scores: np.ndarray,
    centers: np.ndarray,
) -> HierarchicalAssignment:
    """Oracle for ``repair_empty_clusters``: one pass per class.

    Fill each empty cluster with the class member farthest from its
    current center, provided the donor cluster keeps at least one member;
    repeats until no cluster is empty.  A donor always exists because
    cluster counts never exceed class sizes."""
    g_off = _variable_offsets(assignment.spec)
    clusters = np.array(assignment.clusters)
    sup, spec = assignment.sup, assignment.spec
    for h in range(sup.n_sup):
        offsets = _class_offsets(spec, h)
        for s in range(sup.r[h]):
            members = sup.members(h, s)
            k = spec.k_of(h, s)
            if k == 1:
                continue
            local = clusters[members, h]
            sizes = np.bincount(local, minlength=k)
            for empty in range(k):
                while sizes[empty] == 0:
                    center_rows = centers[g_off[h] + offsets[s] + local]
                    gap = scores[members] - center_rows
                    dist = np.einsum("id,id->i", gap, gap)
                    dist[sizes[local] < 2] = -np.inf
                    donor = int(dist.argmax())
                    if not np.isfinite(dist[donor]):
                        raise EmptyClusterError(
                            f"class ({h}, {s}) cannot fill cluster {empty}"
                        )
                    sizes[local[donor]] -= 1
                    local[donor] = empty
                    sizes[empty] += 1
            clusters[members, h] = local
    return assignment.with_clusters(clusters)


def _constraint_basis(cspec: ConstraintSpec, n_obs: int) -> tuple[np.ndarray | None, int]:
    """Dense column basis W of the projector (or None for identity), plus
    the stacking count H implied by the source."""
    if cspec.kind == "identity":
        return None, 1
    if cspec.kind == "membership-projector":
        assignment = cspec.source
        sizes = np.concatenate(
            [cluster_sizes(assignment, h) for h in range(assignment.n_sup)]
        )
        if np.any(sizes == 0):
            raise ProjectorError("assignment has empty clusters; projector is rank deficient")
        return stacked_indicator(assignment), assignment.n_sup
    sup = cspec.source
    if sup.n_obs != n_obs:
        raise ShapeError("constraint source disagrees with the dataset on N")
    n_sup = sup.n_sup
    total = sum(sup.r)
    w = np.zeros((n_obs * n_sup, total))
    col = 0
    for h in range(n_sup):
        rows = h * n_obs + np.arange(n_obs)
        w[rows, col + sup.codes[:, h]] = 1.0
        col += sup.r[h]
    return w, n_sup


def dense_constrained_fit(
    dataset: CategoricalDataset, cspec: ConstraintSpec, p: int
) -> ConstrainedFit:
    """Oracle for ``fit_constrained_mca``: the projector route on dense
    NH-row matrices.  The constraint basis W, the H-fold tiled centered
    indicator and two linear solves give the eigenproblem target
    Z^H' J W (W'W)^-1 W' J Z^H (or the centered Gram minus it) and the
    projected scores W (W'W)^-1 W' F."""
    if cspec.kind == "membership-projector" and cspec.source.n_obs != dataset.n_obs:
        raise ShapeError("constraint source disagrees with the dataset on N")
    basis, n_stack = _constraint_basis(cspec, dataset.n_obs)
    bound = dataset.total_categories - dataset.n_vars
    if not 1 <= p <= bound:
        raise SpecError(f"p={p} outside [1, {bound}]")
    n, m = dataset.n_obs, dataset.n_vars
    zc = z_centered(dataset)
    zc_stacked = np.tile(zc, (n_stack, 1))

    gram = zc.T @ zc * n_stack  # Z^H' J Z^H
    if basis is None:
        target = gram
    else:
        wtw = basis.T @ basis
        t = basis.T @ zc_stacked
        try:
            solved = np.linalg.solve(wtw, t)
        except np.linalg.LinAlgError as exc:
            raise ProjectorError("projector source is rank deficient") from exc
        projected = t.T @ solved
        target = projected if cspec.kind != "projector-off" else gram - projected

    d = (dataset.counts * n_stack).astype(float)
    d_isqrt = 1.0 / np.sqrt(d)
    scaled = (target * d_isqrt[:, None] * d_isqrt[None, :]) / m
    eig = sym_eig_top(scaled, p)
    quantifications = float(np.sqrt(n * n_stack * m)) * (d_isqrt[:, None] * eig.vectors)

    free = zc_stacked @ quantifications / m  # (1/m) J Z^H B
    if basis is None:
        scores = free
    else:
        projected_scores = basis @ np.linalg.solve(basis.T @ basis, basis.T @ free)
        scores = projected_scores if cspec.kind != "projector-off" else free - projected_scores

    total = 0.0
    codes = dataset.codes
    for j in range(m):
        rows = quantifications[dataset.offsets[j] + codes[:, j]]
        diff = scores - np.tile(rows, (n_stack, 1))
        total += float(np.einsum("ij,ij->", diff, diff))
    return ConstrainedFit(
        scores=scores,
        quantifications=quantifications,
        objective=total / (n * n_stack * m),
    )


class SequentialStart(NamedTuple):
    assignment: HierarchicalAssignment
    centers: np.ndarray
    quantifications: np.ndarray
    trace: tuple[float, ...]
    converged: bool


def run_start_sequential(
    dataset: CategoricalDataset,
    sup: SupplementaryData,
    spec: ClusterSpec,
    options: SolverOptions,
    rng: np.random.Generator,
) -> SequentialStart:
    """Oracle for the chunked engine ``mscca.solver._run_start``: one
    initialization driven to convergence on its own.

    The trace records the objective after each centering update, where
    the centers are exact for the current assignment, so it reads
    phi = p - psi / (N H m^2) from the cluster sizes and centers; the
    final entry is replaced by ``objective_phi``, the residual sum grouped
    by the cells of the count table, which uses neither the centering nor
    the normalization.  The assignment step keeps the previous (feasible)
    assignment whenever an empty-cluster repair would have pushed the
    objective up, so the trace never increases beyond float jitter.  A
    start whose assignment does not move still runs one more cycle, which
    the engine skips, so the oracle checks that the skipped cycle would
    have changed nothing.
    """
    assignment = init_random(sup, spec, rng)
    table, sizes = cluster_counts(assignment, dataset)
    trace: list[float] = []
    converged = False
    centers = quantifications = None
    for t in range(options.max_iter):
        quantifications = _between_quantify(table, sizes, dataset, sup.n_sup, options.p)
        scores = object_scores(dataset, quantifications)
        centers = _centroids(table, sizes, dataset, quantifications)
        spread = float((sizes[:, None] * centers * centers).sum())
        trace.append(options.p - spread / (dataset.n_obs * sup.n_sup))
        if t > 0 and trace[-2] - trace[-1] < options.epsilon:
            converged = True
            break
        if t == options.max_iter - 1:
            break
        candidate = update_U(scores, centers, sup, spec)
        try:
            table, sizes = cluster_counts(candidate, dataset)
            assignment = candidate
        except EmptyClusterError:
            repaired = repair_empty_clusters(candidate, scores, centers)
            if objective_phi(repaired, centers, quantifications, dataset) <= objective_phi(
                assignment, centers, quantifications, dataset
            ):
                assignment = repaired
                table, sizes = cluster_counts(assignment, dataset)
    trace[-1] = objective_phi(assignment, centers, quantifications, dataset)
    return SequentialStart(
        assignment=assignment,
        centers=centers,
        quantifications=quantifications,
        trace=tuple(trace),
        converged=converged,
    )


def fit_mscca_sequential(
    dataset: CategoricalDataset,
    sup: SupplementaryData,
    spec: ClusterSpec,
    options: SolverOptions = SolverOptions(),
) -> MsccaSolution:
    """Oracle for ``fit_mscca``: the starts run one at a time, and the
    winner is picked by a running tie filter.

    Runs ``options.n_starts`` independent initializations (each with its
    own random stream derived from ``options.seed`` and the start index)
    and returns the lowest-indexed start whose objective is within
    ``WINNER_RTOL`` (relative) of the smallest, so starts that reach the
    same optimum up to rounding do not hand the win to float noise.  The
    returned (U, G, B) triple is mutually consistent: the centers and
    quantifications are the exact optimum for the returned assignment.
    """
    if dataset.n_obs != sup.n_obs:
        raise ShapeError("dataset and supplementary data disagree on N")
    spec.validate(sup)
    options.validate(dataset)
    seeds = np.random.SeedSequence(options.seed).spawn(options.n_starts)
    # Starts within WINNER_RTOL of the running minimum; objectives are
    # nonnegative, so a start dropped here can never tie the final minimum.
    tied: list[tuple[int, SequentialStart]] = []
    traces: list[tuple[float, ...]] = []
    for index, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        result = run_start_sequential(dataset, sup, spec, options, rng)
        traces.append(result.trace)
        tied.append((index, result))
        low = min(r.trace[-1] for _, r in tied)
        tied = [(i, r) for i, r in tied if r.trace[-1] <= low + WINNER_RTOL * abs(low)]
    best_index, best = tied[0]
    table, sizes = cluster_counts(best.assignment, dataset)
    return MsccaSolution(
        assignment=best.assignment,
        centers=best.centers,
        quantifications=best.quantifications,
        table=table,
        sizes=sizes,
        objective=best.trace[-1],
        psi=psi_value(best.assignment, best.quantifications, dataset),
        objective_trace=best.trace,
        start_index=best_index,
        converged=best.converged,
        start_traces=tuple(traces),
        options=options,
    )


def traced_peak(call: Callable[[], object]) -> int:
    """The ``tracemalloc`` peak, in bytes, of ``call()``.  Lazy set-up
    (cached dataset views, imports) is the caller's to do first."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gram_eig_top_every_kept_column(factors: np.ndarray, p: int) -> tuple[SymEigResult, np.ndarray]:
    """Oracle for ``gram_eig_top``: every clearly positive eigenvalue of
    each factor, one stack entry at a time, mapped back and tie-ordered
    (the route before the mapping stopped at the tie group of column
    p - 1)."""
    F = np.asarray(factors, dtype=float)
    values, u = np.linalg.eigh(F @ np.swapaxes(F, 1, 2))
    values = values[:, ::-1]
    kept = np.count_nonzero(values > TOL.eig_tie_rel * np.maximum(1.0, values), axis=1)
    top = np.zeros((len(F), p))
    top_vectors = np.zeros((len(F), F.shape[2], p))
    for s in np.flatnonzero(kept):
        k, one = kept[s], slice(s, s + 1)
        vectors = np.swapaxes(F[one], 1, 2) @ u[one][:, :, ::-1][:, :, :k]
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        r = min(k, p)
        top[one, :r], top_vectors[one, :, :r] = _ordered_top(values[one, :k], vectors, p)
    return SymEigResult(values=top, vectors=top_vectors), kept


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles between the column spaces of two full-column-rank matrices."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sing = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sing, -1.0, 1.0))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
