"""Categorical data containers and the hierarchical cluster-assignment
structure.

Observations are stored as integer category codes plus per-variable label
lists.  Every category that a container knows about occurs at least once,
so the diagonal frequency masses built from the indicators are always
invertible.  All containers are immutable after construction and safe to
share across concurrent solver runs.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AssignmentError,
    EmptyClusterError,
    MissingValueError,
    ShapeError,
    SpecError,
)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _encode_columns(
    raw: Sequence[Sequence[str]],
    names: Sequence[str] | None,
    default_prefix: str,
) -> tuple[np.ndarray, tuple[tuple[str, ...], ...], tuple[str, ...]]:
    """First-appearance integer coding of a rectangular table of labels."""
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


def _compact_codes(
    codes: np.ndarray, labels: Sequence[Sequence[str]]
) -> tuple[np.ndarray, tuple[tuple[str, ...], ...]]:
    """Drop categories that never occur, preserving the given label order."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty_like(codes)
    kept: list[tuple[str, ...]] = []
    for j, lab in enumerate(labels):
        col = codes[:, j]
        if col.min(initial=0) < 0 or col.max(initial=0) >= len(lab):
            raise ShapeError(f"column {j} holds codes outside [0, {len(lab)})")
        used = np.zeros(len(lab), dtype=bool)
        used[col] = True
        if not used.all():
            dropped = [lab[k] for k in np.flatnonzero(~used)]
            warnings.warn(
                f"dropping unused categories {dropped} in column {j}",
                stacklevel=3,
            )
        remap = np.cumsum(used) - 1
        out[:, j] = remap[col]
        kept.append(tuple(lab[k] for k in np.flatnonzero(used)))
    return out, tuple(kept)


@dataclass(frozen=True)
class CategoricalDataset:
    """N observations of m categorical variables, integer coded.

    ``codes[i, j]`` is the category index of observation ``i`` on variable
    ``j`` and always lies in ``[0, q[j])``; every category occurs at least
    once.  ``labels[j]`` maps codes back to the original category labels.
    """

    codes: np.ndarray
    labels: tuple[tuple[str, ...], ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", _freeze(np.asarray(self.codes, dtype=np.int64)))
        if self.codes.ndim != 2:
            raise ShapeError("codes must be a 2-d array")
        if len(self.labels) != self.codes.shape[1] or len(self.names) != self.codes.shape[1]:
            raise ShapeError("labels/names do not match the number of variables")
        for j, lab in enumerate(self.labels):
            col = self.codes[:, j]
            q = len(lab)
            if q == 0 or col.min() < 0 or col.max() >= q:
                raise ShapeError(f"codes of variable {j} outside [0, {q})")
            if len(np.unique(col)) != q:
                raise ShapeError(f"variable {j} has categories that never occur")

    @property
    def n_obs(self) -> int:
        return self.codes.shape[0]

    @property
    def n_vars(self) -> int:
        return self.codes.shape[1]

    @property
    def q(self) -> tuple[int, ...]:
        """Per-variable category counts."""
        return tuple(len(lab) for lab in self.labels)

    @property
    def total_categories(self) -> int:
        """Q, the total number of categories over all variables."""
        return sum(self.q)

    @classmethod
    def from_codes(
        cls,
        codes: np.ndarray,
        labels: Sequence[Sequence[str]],
        names: Sequence[str] | None = None,
    ) -> "CategoricalDataset":
        """Build from integer codes, dropping unused categories (a warning
        is emitted for each drop so silent label lists do not linger)."""
        codes, kept = _compact_codes(codes, labels)
        if names is None:
            names = tuple(f"v{j + 1}" for j in range(codes.shape[1]))
        return cls(codes=codes, labels=kept, names=tuple(names))

    def decode(self) -> list[list[str]]:
        """Recover the original table of labels, cell for cell."""
        return [
            [self.labels[j][self.codes[i, j]] for j in range(self.n_vars)]
            for i in range(self.n_obs)
        ]

    def subset(self, rows: Sequence[int]) -> "CategoricalDataset":
        """Restrict to the given observations; unused categories are dropped
        (label order preserved) so the result is again a valid dataset."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            raise ShapeError("subset needs at least one row")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return CategoricalDataset.from_codes(self.codes[rows], self.labels, self.names)


def encode_dataset(
    raw: Sequence[Sequence[str]], names: Sequence[str] | None = None
) -> CategoricalDataset:
    """Encode a rectangular table of category labels.

    Codes are assigned by first appearance per column, which makes the
    coding deterministic and locale independent.  Empty cells raise
    ``MissingValueError``; ragged input raises ``ShapeError``.
    """
    codes, labels, names = _encode_columns(raw, names, "v")
    return CategoricalDataset(codes=codes, labels=labels, names=names)


@dataclass(frozen=True)
class SupplementaryData:
    """Class memberships for H supplementary variables, integer coded.

    Same storage contract as ``CategoricalDataset``; every class has at
    least one member.
    """

    codes: np.ndarray
    labels: tuple[tuple[str, ...], ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", _freeze(np.asarray(self.codes, dtype=np.int64)))
        if self.codes.ndim != 2:
            raise ShapeError("codes must be a 2-d array")
        if len(self.labels) != self.codes.shape[1] or len(self.names) != self.codes.shape[1]:
            raise ShapeError("labels/names do not match the number of variables")
        for h, lab in enumerate(self.labels):
            col = self.codes[:, h]
            r = len(lab)
            if r == 0 or col.min() < 0 or col.max() >= r:
                raise ShapeError(f"classes of variable {h} outside [0, {r})")
            if len(np.unique(col)) != r:
                raise ShapeError(f"variable {h} has classes without members")

    @property
    def n_obs(self) -> int:
        return self.codes.shape[0]

    @property
    def n_sup(self) -> int:
        return self.codes.shape[1]

    @property
    def r(self) -> tuple[int, ...]:
        """Per-variable class counts."""
        return tuple(len(lab) for lab in self.labels)

    @classmethod
    def from_codes(
        cls,
        codes: np.ndarray,
        labels: Sequence[Sequence[str]],
        names: Sequence[str] | None = None,
    ) -> "SupplementaryData":
        codes, kept = _compact_codes(codes, labels)
        if names is None:
            names = tuple(f"s{j + 1}" for j in range(codes.shape[1]))
        return cls(codes=codes, labels=kept, names=tuple(names))

    def members(self, h: int, s: int) -> np.ndarray:
        """Indices of the observations in class ``s`` of variable ``h``."""
        return np.flatnonzero(self.codes[:, h] == s)

    def class_sizes(self, h: int) -> np.ndarray:
        return np.bincount(self.codes[:, h], minlength=self.r[h])


def encode_supplementary(
    raw: Sequence[Sequence[str]], names: Sequence[str] | None = None
) -> SupplementaryData:
    """First-appearance encoding of supplementary class labels."""
    codes, labels, names = _encode_columns(raw, names, "s")
    return SupplementaryData(codes=codes, labels=labels, names=names)


@dataclass(frozen=True)
class ClusterSpec:
    """Requested cluster counts: ``counts[h][s]`` clusters for class ``s``
    of supplementary variable ``h``."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "counts", tuple(tuple(int(k) for k in row) for row in self.counts)
        )

    @property
    def k_per_variable(self) -> tuple[int, ...]:
        """K_h, the total cluster count of each supplementary variable."""
        return tuple(sum(row) for row in self.counts)

    @property
    def k_total(self) -> int:
        return sum(self.k_per_variable)

    def k_of(self, h: int, s: int) -> int:
        return self.counts[h][s]

    @cached_property
    def first_rows(self) -> tuple[np.ndarray, ...]:
        """Per supplementary variable, the row of the stacked center matrix
        G (and column of the stacked U) of cluster 0 of each class: rows
        run in the natural (h, class, cluster) order, so cluster ``k`` of
        class ``s`` of variable ``h`` is row ``first_rows[h][s] + k``."""
        starts = np.cumsum((0, *(k for row in self.counts for k in row)))
        bounds = np.cumsum((0, *(len(row) for row in self.counts)))
        return tuple(_freeze(starts[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))

    @classmethod
    def uniform(cls, sup: SupplementaryData, k: int) -> "ClusterSpec":
        """The same cluster count for every class of every variable."""
        return cls(tuple(tuple(k for _ in range(r)) for r in sup.r))

    @classmethod
    def from_mapping(
        cls, sup: SupplementaryData, mapping: dict[tuple[str, str], int]
    ) -> "ClusterSpec":
        """Build from ``{(variable name, class label): K}``; every class of
        every supplementary variable must be covered."""
        counts = []
        for h, name in enumerate(sup.names):
            row = []
            for lab in sup.labels[h]:
                key = (name, lab)
                if key not in mapping:
                    raise SpecError(f"no cluster count given for class {key}")
                row.append(mapping[key])
            counts.append(tuple(row))
        extra = set(mapping) - {
            (name, lab) for h, name in enumerate(sup.names) for lab in sup.labels[h]
        }
        if extra:
            raise SpecError(f"cluster counts given for unknown classes: {sorted(extra)}")
        return cls(tuple(counts))

    def validate(self, sup: SupplementaryData) -> None:
        """Fail fast: K_hs must be >= 1 and no larger than its class."""
        if len(self.counts) != sup.n_sup:
            raise SpecError("cluster spec does not match the supplementary variables")
        for h in range(sup.n_sup):
            if len(self.counts[h]) != sup.r[h]:
                raise SpecError(f"variable {h}: expected {sup.r[h]} class entries")
            sizes = sup.class_sizes(h)
            for s, k in enumerate(self.counts[h]):
                if k < 1:
                    raise SpecError(f"K must be >= 1 for class ({h}, {s})")
                if k > sizes[s]:
                    raise SpecError(
                        f"class ({h}, {s}) has {sizes[s]} members, cannot host {k} clusters"
                    )


@dataclass(frozen=True)
class HierarchicalAssignment:
    """Per-variable cluster membership obeying the two-level constraint:
    each observation sits in exactly one cluster inside its observed class.

    ``clusters[i, h]`` is the within-class cluster index of observation
    ``i`` under supplementary variable ``h``.  Indicator matrices are
    materialized on demand; columns of U_h are ordered by class, then by
    cluster index, and the stacked U is block diagonal over h in the same
    order (this "natural" row order is also the order of the solver's
    center matrix G).
    """

    sup: SupplementaryData
    spec: ClusterSpec
    clusters: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "clusters", _freeze(np.asarray(self.clusters, dtype=np.int64)))
        if self.clusters.shape != (self.sup.n_obs, self.sup.n_sup):
            raise ShapeError("clusters must be one index per (observation, variable)")
        for h in range(self.sup.n_sup):
            limit = np.array([self.spec.k_of(h, s) for s in range(self.sup.r[h])])
            k = self.clusters[:, h]
            bad = (k < 0) | (k >= limit[self.sup.codes[:, h]])
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise AssignmentError(
                    f"observation {i}, variable {h}: cluster {k[i]} outside its class range"
                )

    @property
    def n_obs(self) -> int:
        return self.clusters.shape[0]

    @property
    def n_sup(self) -> int:
        return self.clusters.shape[1]

    @cached_property
    def rows(self) -> np.ndarray:
        """N x H: the row of the stacked center matrix G (equivalently the
        column of the stacked U) of each observation's cluster under each
        supplementary variable."""
        first = self.spec.first_rows
        offsets = np.stack([first[h][self.sup.codes[:, h]] for h in range(self.n_sup)], axis=1)
        return _freeze(offsets + self.clusters)

    def column_index(self, h: int) -> np.ndarray:
        """Column of U_h indicated by each observation."""
        return self.rows[:, h] - self.spec.first_rows[h][0]

    def cluster_sizes(self, h: int) -> np.ndarray:
        return np.bincount(self.column_index(h), minlength=self.spec.k_per_variable[h])

    def indicator(self, h: int) -> np.ndarray:
        """U_h as a dense N x K_h 0/1 matrix."""
        n, k_h = self.n_obs, self.spec.k_per_variable[h]
        u = np.zeros((n, k_h))
        u[np.arange(n), self.column_index(h)] = 1.0
        return u

    def with_clusters(self, clusters: np.ndarray) -> "HierarchicalAssignment":
        return HierarchicalAssignment(sup=self.sup, spec=self.spec, clusters=clusters)

    @classmethod
    def by_class(cls, sup: SupplementaryData) -> "HierarchicalAssignment":
        """One cluster per class: the partition of the observations by the
        classes of each supplementary variable."""
        clusters = np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64)
        return cls(sup=sup, spec=ClusterSpec.uniform(sup, 1), clusters=clusters)


def cluster_counts(
    assignment: HierarchicalAssignment, view: IndicatorView
) -> tuple[np.ndarray, np.ndarray]:
    """The K x Q cluster-by-category count table U'Z and the K cluster
    sizes, rows in the natural (h, class, cluster) order.

    The quantification step, the centers, psi and the biplot table are
    functions of these two arrays.  Both come from one ``bincount`` over
    the (cluster row, category column) pairs of all observations,
    variables and supplementary variables; the sizes are the row sums of
    the first variable's block.  Raises ``EmptyClusterError`` when a
    cluster has no members.
    """
    cols = view.dataset.codes + view.offsets
    big_k, big_q = assignment.spec.k_total, view.total_categories
    flat = (assignment.rows[:, :, None] * big_q + cols[:, None, :]).ravel()
    table = np.bincount(flat, minlength=big_k * big_q).reshape(big_k, big_q)
    sizes = table[:, : view.dataset.q[0]].sum(axis=1)
    if np.any(sizes == 0):
        row = int(np.flatnonzero(sizes == 0)[0])
        raise EmptyClusterError(f"cluster row {row} (h, class, cluster order) is empty")
    return table, sizes


def build_assignment(
    sup: SupplementaryData,
    spec: ClusterSpec,
    cluster_of: Callable[[int, int], int],
) -> HierarchicalAssignment:
    """Materialize an assignment from a ``(h, i) -> cluster`` function.

    Raises ``AssignmentError`` when the function returns an index outside
    ``[0, K_hs)`` for the observed class.
    """
    spec.validate(sup)
    clusters = np.empty((sup.n_obs, sup.n_sup), dtype=np.int64)
    for h in range(sup.n_sup):
        for i in range(sup.n_obs):
            k = int(cluster_of(h, i))
            limit = spec.k_of(h, int(sup.codes[i, h]))
            if not 0 <= k < limit:
                raise AssignmentError(
                    f"cluster_of({h}, {i}) = {k} outside [0, {limit})"
                )
            clusters[i, h] = k
    return HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


def validate_assignment(
    matrices: "HierarchicalAssignment | Sequence[np.ndarray]",
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
        matrices = [matrices.indicator(h) for h in range(matrices.n_sup)]
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


class IndicatorView:
    """Indicator matrices derived from a dataset, with the H-fold stacking
    used by the solver.

    Provides the concatenated Z and the diagonal masses D built from the
    stacked indicators (category frequency times H).  Arrays are cached
    and must not be mutated.
    """

    def __init__(self, dataset: CategoricalDataset, n_stack: int = 1) -> None:
        if n_stack < 1:
            raise ShapeError("the stacking count H must be >= 1")
        self.dataset = dataset
        self.n_stack = int(n_stack)

    @property
    def n_obs(self) -> int:
        return self.dataset.n_obs

    @property
    def n_vars(self) -> int:
        return self.dataset.n_vars

    @property
    def total_categories(self) -> int:
        return self.dataset.total_categories

    @cached_property
    def offsets(self) -> np.ndarray:
        """Column offset of each variable's block in the concatenated Z."""
        q = np.array(self.dataset.q, dtype=np.int64)
        return np.concatenate([[0], np.cumsum(q)[:-1]])

    @cached_property
    def counts(self) -> np.ndarray:
        """Category frequencies over all Q categories (one stack)."""
        out = np.empty(self.total_categories, dtype=np.int64)
        for j in range(self.n_vars):
            o = self.offsets[j]
            q = self.dataset.q[j]
            out[o : o + q] = np.bincount(self.dataset.codes[:, j], minlength=q)
        return _freeze(out)

    @cached_property
    def d_masses(self) -> np.ndarray:
        """Diagonal of D = Z~' Z~ built from the stacked indicators."""
        return _freeze(self.counts * self.n_stack)

    @cached_property
    def column_labels(self) -> tuple[str, ...]:
        return tuple(
            f"{self.dataset.names[j]}:{lab}"
            for j in range(self.n_vars)
            for lab in self.dataset.labels[j]
        )

    @cached_property
    def column_means(self) -> np.ndarray:
        return _freeze(self.counts / self.n_obs)


def stacked_indicators(dataset: CategoricalDataset, n_stack: int) -> IndicatorView:
    """Indicator view with H-fold vertical replication (H >= 1)."""
    return IndicatorView(dataset, n_stack)


def read_csv_dataset(
    path: str | Path, sup_columns: Sequence[str]
) -> tuple[CategoricalDataset, SupplementaryData]:
    """Read a UTF-8 CSV (with or without a byte-order mark) with a
    mandatory header row.

    Columns named in ``sup_columns`` become supplementary variables; all
    remaining columns are analysis variables, in header order.  Missing
    values are not supported.
    """
    path = Path(path)
    if len(set(sup_columns)) != len(sup_columns):
        raise ShapeError(f"supplementary columns {list(sup_columns)} repeat a column")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ShapeError(f"{path}: empty file, a header row is mandatory") from None
        if len(set(header)) != len(header):
            raise ShapeError(f"{path}: duplicate column names in header")
        rows = [row for row in reader if row]
    missing = [c for c in sup_columns if c not in header]
    if missing:
        raise ShapeError(f"{path}: supplementary columns {missing} not in header {header}")
    sup_idx = [header.index(c) for c in sup_columns]
    var_idx = [j for j in range(len(header)) if j not in sup_idx]
    if not var_idx:
        raise ShapeError(f"{path}: no analysis variables left after removing {list(sup_columns)}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ShapeError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
    ds = encode_dataset(
        [[row[j] for j in var_idx] for row in rows],
        names=[header[j] for j in var_idx],
    )
    sup = encode_supplementary(
        [[row[j] for j in sup_idx] for row in rows],
        names=[header[j] for j in sup_idx],
    )
    return ds, sup
