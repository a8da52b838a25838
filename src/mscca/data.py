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
import io
import warnings
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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


def _code_table(
    raw: Sequence[Sequence],
    row_name: Callable[[int], str] = lambda i: f"row {i}",
    header: Sequence[str] | None = None,
) -> tuple[np.ndarray, tuple[tuple[str, ...], ...]]:
    """First-appearance integer coding of every column of a rectangular
    table of labels.

    Every distinct cell text gets one id across the whole table (cells
    that are not strings are coded by ``str()``), so the whole table
    becomes one integer array; each column is then renumbered by the
    first appearance of its ids.  Rows must have the width of ``header``
    when one is given, else of the first row.  ``row_name(i)`` and the
    header name the offending row and column in error messages.
    """
    if len(raw) == 0:
        raise ShapeError("table has no rows")
    width = len(raw[0]) if header is None else len(header)
    if width == 0:
        raise ShapeError("table has no columns")
    if set(map(len, raw)) != {width}:
        i = next(i for i, row in enumerate(raw) if len(row) != width)
        raise ShapeError(f"{row_name(i)} has {len(raw[i])} cells, expected {width}")
    cells = list(chain.from_iterable(raw))
    table, ids = _code_blocks([cells], len(cells))
    if any(type(text) is not str for text in ids):
        cells = [None if cell is None else str(cell) for cell in cells]
        table, ids = _code_blocks([cells], len(cells))
    _check_filled(table, ids, width, row_name, header)
    return _renumbered(table, ids, width)


def _code_blocks(blocks: Iterable[list], size: int) -> tuple[np.ndarray, dict]:
    """Code blocks of cells, in order, through one id per distinct cell
    text (ids in order of first appearance).

    Returns the cells' ids as a flat int64 array, a view of the first
    cells of a preallocated array of ``size``, and the ids by text.
    """
    ids = defaultdict(count().__next__)
    table = np.empty(size, dtype=np.int64)
    end = 0
    for cells in blocks:
        n = len(cells)
        table[end : end + n] = np.fromiter(map(ids.__getitem__, cells), np.int64, n)
        end += n
    return table[:end], ids


def _first_cell(table: np.ndarray, keys: Sequence[int], width: int) -> tuple[int, int]:
    """Row and column of the first cell of a flat table coded as one of
    ``keys``."""
    return divmod(int(np.flatnonzero(np.isin(table, keys))[0]), width)


def _check_filled(
    table: np.ndarray,
    ids: dict,
    width: int,
    row_name: Callable[[int], str],
    header: Sequence[str] | None,
) -> None:
    """Raise ``MissingValueError`` naming the row and column of the first
    empty cell (``None`` or ``""``) of a flat table of cell ids."""
    if None in ids or "" in ids:
        i, j = _first_cell(table, [ids[text] for text in (None, "") if text in ids], width)
        column = j if header is None else repr(header[j])
        raise MissingValueError(f"{row_name(i)}: empty cell in column {column}")


def _renumbered(
    table: np.ndarray, ids: dict, width: int
) -> tuple[np.ndarray, tuple[tuple[str, ...], ...]]:
    """Codes and labels of a flat table of cell ids, ``width`` cells a row:
    each column renumbered by the first appearance of its ids.  The table
    is renumbered in place and returned as its n x width view."""
    texts = list(ids)
    codes = table.reshape(-1, width)
    n_rows = codes.shape[0]
    labels = []
    # Per column, the first row of each id (a deterministic minimum over
    # repeated ids) marks the rows where a label first appears, in order.
    first = np.empty(len(texts), dtype=np.int64)
    rank = np.empty(len(texts), dtype=np.int64)
    rows = np.arange(n_rows)
    for j in range(width):
        col = codes[:, j].copy()
        first[col] = n_rows
        np.minimum.at(first, col, rows)
        order = col[np.take(first, col) == rows]
        rank[order] = np.arange(order.size)
        codes[:, j] = np.take(rank, col)
        labels.append(tuple(map(texts.__getitem__, order.tolist())))
    return codes, tuple(labels)


def _column_names(
    names: Sequence[str] | None, width: int, default_prefix: str
) -> tuple[str, ...]:
    if names is None:
        return tuple(f"{default_prefix}{j + 1}" for j in range(width))
    names = tuple(str(n) for n in names)
    if len(names) != width:
        raise ShapeError("number of names does not match number of columns")
    return names


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


@dataclass(frozen=True, eq=False)
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
            if np.count_nonzero(np.bincount(col, minlength=q)) != q:
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

    @cached_property
    def offsets(self) -> np.ndarray:
        """Column offset of each variable's block in the concatenated Z."""
        return _freeze(np.cumsum((0, *self.q[:-1]), dtype=np.int64))

    @cached_property
    def cell_columns(self) -> np.ndarray:
        """m x N: the column of Z that each cell of the table is coded in,
        ``codes + offsets`` with one contiguous row per variable."""
        return _freeze((self.codes + self.offsets).T)

    @cached_property
    def counts(self) -> np.ndarray:
        """Category frequencies over all Q categories, in Z's column order."""
        columns = [np.bincount(self.codes[:, j], minlength=q) for j, q in enumerate(self.q)]
        return _freeze(np.concatenate(columns))

    @cached_property
    def column_means(self) -> np.ndarray:
        """Column means of Z, the category frequencies over N."""
        return _freeze(self.counts / self.n_obs)

    @cached_property
    def column_labels(self) -> tuple[str, ...]:
        """``variable:category`` for every column of Z."""
        return tuple(
            f"{name}:{lab}" for name, labels in zip(self.names, self.labels) for lab in labels
        )

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
    codes, labels = _code_table(raw)
    names = _column_names(names, codes.shape[1], "v")
    return CategoricalDataset(codes=codes, labels=labels, names=names)


@dataclass(frozen=True, eq=False)
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
        if self.codes.shape[1] == 0:
            raise ShapeError("supplementary data needs at least one variable")
        if len(self.labels) != self.codes.shape[1] or len(self.names) != self.codes.shape[1]:
            raise ShapeError("labels/names do not match the number of variables")
        for h, lab in enumerate(self.labels):
            col = self.codes[:, h]
            r = len(lab)
            if r == 0 or col.min() < 0 or col.max() >= r:
                raise ShapeError(f"classes of variable {h} outside [0, {r})")
            if np.count_nonzero(np.bincount(col, minlength=r)) != r:
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
        """Indices of the observations in class ``s`` of variable ``h``
        (read-only)."""
        return self._members[h][s]

    @cached_property
    def _members(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return tuple(
            tuple(_freeze(np.flatnonzero(self.codes[:, h] == s)) for s in range(r))
            for h, r in enumerate(self.r)
        )

    def class_sizes(self, h: int) -> np.ndarray:
        return np.bincount(self.codes[:, h], minlength=self.r[h])


def encode_supplementary(
    raw: Sequence[Sequence[str]], names: Sequence[str] | None = None
) -> SupplementaryData:
    """First-appearance encoding of supplementary class labels."""
    codes, labels = _code_table(raw)
    names = _column_names(names, codes.shape[1], "s")
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


@dataclass(frozen=True, eq=False)
class HierarchicalAssignment:
    """Per-variable cluster membership obeying the two-level constraint:
    each observation sits in exactly one cluster inside its observed class.

    ``clusters[i, h]`` is the within-class cluster index of observation
    ``i`` under supplementary variable ``h``.  Columns of the indicator
    U_h are ordered by class, then by cluster index, and the stacked U is
    block diagonal over h in the same order (this "natural" row order is
    also the order of the solver's center matrix G).
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

    def with_clusters(self, clusters: np.ndarray) -> "HierarchicalAssignment":
        return HierarchicalAssignment(sup=self.sup, spec=self.spec, clusters=clusters)

    @classmethod
    def by_class(cls, sup: SupplementaryData) -> "HierarchicalAssignment":
        """One cluster per class: the partition of the observations by the
        classes of each supplementary variable."""
        clusters = np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64)
        return cls(sup=sup, spec=ClusterSpec.uniform(sup, 1), clusters=clusters)


def cluster_counts(
    assignment: HierarchicalAssignment, dataset: CategoricalDataset
) -> tuple[np.ndarray, np.ndarray]:
    """The K x Q cluster-by-category count table U'Z and the K cluster
    sizes, rows in the natural (h, class, cluster) order.

    The quantification step, the centers, psi and the biplot table are
    functions of these two arrays (``stacked_counts`` of the assignment's
    rows).  Raises ``EmptyClusterError`` when a cluster has no members.
    """
    table, sizes = stacked_counts(assignment.rows[None], assignment.spec, dataset)
    if np.any(sizes == 0):
        row = int(np.flatnonzero(sizes[0] == 0)[0])
        raise EmptyClusterError(f"cluster row {row} (h, class, cluster order) is empty")
    return table[0], sizes[0]


def stacked_counts(
    rows: np.ndarray, spec: ClusterSpec, dataset: CategoricalDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Count tables of a stack of S assignments, each given by its N x H
    rows of G (``HierarchicalAssignment.rows``): S x K x Q tables U'Z and
    S x K cluster sizes.  An empty cluster is a zero row."""
    table = np.empty((len(rows), spec.k_total, dataset.total_categories), dtype=np.int64)
    return table, _count_into(table, rows, spec, dataset)


# Count cells one ``bincount`` takes at most, unless one start has more.
_CELL_BLOCK = 1 << 16


def _count_into(
    table: np.ndarray, rows: np.ndarray, spec: ClusterSpec, dataset: CategoricalDataset
) -> np.ndarray:
    """Count the S x N x H rows into the S x K x Q ``table``, overwriting
    it, and return the S x K cluster sizes.

    Each supplementary variable's block of rows comes from one
    ``bincount`` of the (start, cluster, category column) cells of all
    observations and variables of a group of starts, which holds at most
    ``_CELL_BLOCK`` cells or one start's; the sizes are the row sums of
    the first variable's block.
    """
    big_q = dataset.total_categories
    group = max(1, _CELL_BLOCK // dataset.cell_columns.size)
    bounds = np.cumsum((0, *spec.k_per_variable))
    for h, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        for a in range(0, len(rows), group):
            part = rows[a : a + group, :, h]
            local = part + ((hi - lo) * np.arange(len(part)) - lo)[:, None]
            cells = (local[:, None, :] * big_q + dataset.cell_columns).ravel()
            counts = np.bincount(cells, minlength=len(part) * (hi - lo) * big_q)
            table[a : a + group, lo:hi] = counts.reshape(len(part), hi - lo, big_q)
    return _sizes(table, dataset)


def moved_counts(
    table: np.ndarray,
    rows: np.ndarray,
    new_rows: np.ndarray,
    spec: ClusterSpec,
    dataset: CategoricalDataset,
) -> np.ndarray:
    """Update the S x K x Q tables ``table`` of the S x N x H rows
    ``rows``, in place, to those of ``new_rows``, and return the new S x K
    cluster sizes.

    While fewer than half of the (start, observation, variable) entries
    moved, ``table`` gets, per supplementary variable, one ``bincount`` of
    the moved entries' new cells minus one of their old cells, for every
    ``_CELL_BLOCK`` cells: that touches 2 cells per moved entry where a
    recount touches one per entry.  Otherwise the tables are counted
    afresh.  Counts are integers, so either way gives the same tables.
    """
    moved = rows != new_rows
    if 2 * np.count_nonzero(moved) >= moved.size:
        return _count_into(table, new_rows, spec, dataset)
    n_stack, big_q = len(rows), dataset.total_categories
    group = max(1, _CELL_BLOCK // dataset.n_vars)
    bounds = np.cumsum((0, *spec.k_per_variable))
    for h, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        size = n_stack * (hi - lo) * big_q
        entries = np.nonzero(moved[..., h])
        for a in range(0, entries[0].size, group):
            starts, obs = (index[a : a + group] for index in entries)
            new, old = new_rows[starts, obs, h], rows[starts, obs, h]
            cells = dataset.cell_columns[:, obs]
            cells += ((hi - lo) * starts - lo + new) * big_q
            counts = np.bincount(cells.ravel(), minlength=size)
            cells += (old - new) * big_q
            counts -= np.bincount(cells.ravel(), minlength=size)
            table[:, lo:hi] += counts.reshape(n_stack, hi - lo, big_q)
    return _sizes(table, dataset)


def _sizes(table: np.ndarray, dataset: CategoricalDataset) -> np.ndarray:
    """Cluster sizes of count tables: the row sums of the first variable's
    block of columns."""
    return table[..., : dataset.q[0]].sum(axis=-1)


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


# Lines coded per block when reading a CSV: only one block's cells are
# alive at a time.
_BLOCK_ROWS = 4096

# The low L bytes of a uint64, L = 0..8.
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _read_file(path: Path) -> tuple[np.ndarray, str]:
    """The bytes and the text of a UTF-8 file, both without a leading
    byte-order mark.  The whole file is decoded at once, so a
    ``UnicodeDecodeError``'s ``start`` is the offending byte's offset in
    the file."""
    data = path.read_bytes()
    text = data.decode("utf-8")
    bom = text.startswith("\ufeff")
    return np.frombuffer(data, dtype=np.uint8)[3 * bom :], text[bom:]


def _plain_coded(buf: np.ndarray, text: str) -> tuple[list[str], np.ndarray, dict, list] | None:
    """Header, flat cell-id table, ids by label and (no) ragged row of a
    CSV file of bytes ``buf`` and text ``text``, coded straight from the
    bytes; None when the bytes cannot be read so exactly as ``csv.reader``
    reads the text.

    They can when the file has a non-empty header of distinct names, no
    quote, carriage return or NUL byte (so lines end only at ``\\n`` and
    no field is quoted), no line longer than ``csv.field_size_limit()``
    bytes, and every line that is not blank has the header's width and no
    empty cell.  Lines are coded ``_BLOCK_ROWS`` at a time by
    ``_block_ids``.
    """
    if not text or any(map(text.__contains__, '"\r\0')):
        return None
    ends = np.flatnonzero(buf == ord("\n"))
    if buf[-1] != ord("\n"):
        ends = np.append(ends, buf.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if ends[0] == 0 or (ends - starts).max() > csv.field_size_limit():
        return None
    header = buf[: ends[0]].tobytes().decode("utf-8").split(",")
    if len(set(header)) != len(header):
        return None
    width = len(header)
    ids = defaultdict(count().__next__)
    table = np.empty((len(ends) - 1) * width, dtype=np.int64)
    end = 0
    for lo in range(1, len(ends), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(ends))
        block = _block_ids(buf[starts[lo] : ends[hi - 1]], width, ids)
        if block is None:
            return None
        table[end : end + block.size] = block
        end += block.size
    return header, table[:end], ids, []


def _block_ids(chunk: np.ndarray, width: int, ids: dict) -> np.ndarray | None:
    """The ids (from ``ids``, by label) of the cells of ``chunk``, the bytes
    of whole lines less the last line end; None when a line that is not
    blank has other than ``width`` cells, or an empty cell.

    A cell of L bytes is read as ceil(L / 8) little-endian uint64 words,
    the last one masked to its bytes.  No cell holds a NUL byte, so equal
    words are equal cells: an exact key, not a hash.  The cells of each
    word count get their ids from ``_cell_ids``.
    """
    seps = np.flatnonzero((chunk == ord(",")) | (chunk == ord("\n")))
    line_end = np.append(chunk[seps] == ord("\n"), True)
    seps = np.append(seps, chunk.size)
    starts = np.concatenate(([0], seps[:-1] + 1))
    lengths = seps - starts
    if not lengths.all():
        # a blank line is an empty cell that is a whole line
        line_start = np.append(True, line_end[:-1])
        kept = (lengths > 0) | ~(line_start & line_end)
        starts, lengths, line_end = starts[kept], lengths[kept], line_end[kept]
        if not lengths.all():
            return None
    if starts.size != np.count_nonzero(line_end) * width or not line_end[width - 1 :: width].all():
        return None
    padded = np.zeros(chunk.size + 8, dtype=np.uint8)
    padded[: chunk.size] = chunk
    # the 8 bytes from each offset, one unaligned little-endian word
    window = np.ndarray((chunk.size + 1,), dtype="<u8", buffer=padded, strides=(1,))
    counts = (lengths + 7) // 8
    groups = np.flatnonzero(np.bincount(counts)).tolist()
    block = np.empty(starts.size, dtype=np.int64)
    for w in groups:
        cells = slice(None) if len(groups) == 1 else np.flatnonzero(counts == w)
        block[cells] = _cell_ids(window, starts[cells], lengths[cells], w, ids)
    return block


def _cell_ids(
    window: np.ndarray, starts: np.ndarray, lengths: np.ndarray, w: int, ids: dict
) -> np.ndarray:
    """The ids (from ``ids``, by label) of the cells of ``w`` words that
    start at ``starts`` of ``window``.

    The cells are numbered by their first word, then each next word
    refines the numbering: the pairs (number, word number) are numbered
    again by one ``np.unique``.  Only one cell of each number is decoded.
    """
    words = [window.take(starts + 8 * k) for k in range(w)]
    words[-1] &= _MASKS[lengths - 8 * (w - 1)]
    distinct, numbers = np.unique(words[0], return_inverse=True)
    for word in words[1:]:
        values, word_numbers = np.unique(word, return_inverse=True)
        distinct, numbers = np.unique(numbers * len(values) + word_numbers, return_inverse=True)
    first = np.empty(len(distinct), dtype=np.intp)
    first[numbers] = np.arange(len(numbers))
    raw, size = np.stack([word[first] for word in words], axis=1).tobytes(), 8 * len(words)
    labels = [raw[i : i + size].rstrip(b"\0").decode("utf-8") for i in range(0, len(raw), size)]
    return np.fromiter(map(ids.__getitem__, labels), np.int64, len(labels))[numbers]


def _reader_rows(path: Path, text: str) -> Iterator[list[str]]:
    """``csv.reader`` rows of ``text``; a ``csv.Error`` is raised as a
    ``ShapeError`` naming its file line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise ShapeError(f"{path} line {reader.line_num}: {exc}") from None


def _reader_coded(path: Path, text: str) -> tuple[list[str], np.ndarray, dict, list]:
    """Header, flat cell-id table, ids by label and ragged row (as
    ``_cell_blocks`` gives it) of the CSV text of ``path``, read by
    ``csv.reader`` and coded block by block."""
    rows = _reader_rows(path, text)
    header = next(rows, None)
    if header is None:
        raise ShapeError(f"{path}: empty file, a header row is mandatory")
    if len(set(header)) != len(header):
        raise ShapeError(f"{path}: duplicate column names in header")
    if "\0" in "".join(header):
        name = next(name for name in header if "\0" in name)
        raise ShapeError(f"{path} line 1: NUL byte in header column {name!r}")
    width, ragged = len(header), []
    blocks = _cell_blocks(filter(None, rows), width, ragged)
    bound = text.count("\n") + text.count("\r") + 1  # lines, so at least the rows
    return header, *_code_blocks(blocks, bound * width), ragged


def _cell_blocks(
    rows: Iterator[list[str]], width: int, ragged: list[tuple[int, int]]
) -> Iterator[list[str]]:
    """The flat cell lists of successive blocks of ``_BLOCK_ROWS`` rows.

    At the first row that is not ``width`` cells wide, its index and width
    are appended to ``ragged`` and no more blocks are made; the remaining
    rows are still read, so that a ``csv.Error`` in a later row is still
    the error reported.
    """
    done = 0
    while block := list(islice(rows, _BLOCK_ROWS)):
        sizes = list(map(len, block))
        if sizes.count(width) != len(block):
            i = next(i for i, size in enumerate(sizes) if size != width)
            ragged.append((done + i, sizes[i]))
            deque(rows, maxlen=0)
            return
        yield list(chain.from_iterable(block))
        done += len(block)


def _csv_line(text: str, index: int) -> int:
    """The line of a CSV text on which data row ``index`` starts (the header
    is line 1; blank rows are skipped, as ``read_csv_dataset`` skips them)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    start = reader.line_num + 1
    for row in reader:
        if row:
            if index == 0:
                return start
            index -= 1
        start = reader.line_num + 1
    raise ShapeError(f"CSV text has no data row {index}")


def read_csv_dataset(
    path: str | Path, sup_columns: Sequence[str]
) -> tuple[CategoricalDataset, SupplementaryData]:
    """Read a UTF-8 CSV (with or without a byte-order mark) with a
    mandatory header row.

    Columns named in ``sup_columns`` become supplementary variables; all
    remaining columns are analysis variables, in header order.  Missing
    values and NUL bytes are not supported.

    The file is read once and decoded once as a whole.  A plain file is
    coded straight from its bytes (``_plain_coded``): one with no quote,
    carriage return or NUL, no line longer than the field size limit, a
    header of distinct names on its first line, and every other line
    blank or of the header's width with no empty cell.  Any other file
    goes through ``csv.reader`` (``_reader_coded``), which reports every
    error with its file line.  Both give the same codes, labels and
    errors.  The whole table is coded once, block by block, renumbered in
    place, and both containers copy their columns out of it once.
    """
    path = Path(path)
    if len(set(sup_columns)) != len(sup_columns):
        raise ShapeError(f"supplementary columns {list(sup_columns)} repeat a column")
    buf, text = _read_file(path)
    header, table, ids, ragged = _plain_coded(buf, text) or _reader_coded(path, text)
    width = len(header)
    missing = [c for c in sup_columns if c not in header]
    if missing:
        raise ShapeError(f"{path}: supplementary columns {missing} not in header {header}")
    sup_idx = [header.index(c) for c in sup_columns]
    var_idx = [j for j in range(width) if j not in sup_idx]
    if not var_idx:
        raise ShapeError(f"{path}: no analysis variables left after removing {list(sup_columns)}")

    def row_name(i: int) -> str:
        return f"{path} line {_csv_line(text, i)}"

    if ragged:
        i, cells = ragged[0]
        raise ShapeError(f"{row_name(i)} has {cells} cells, expected {width}")
    if table.size == 0:
        raise ShapeError(f"{path}: no data rows after the header")
    _check_filled(table, ids, width, row_name, header)
    nul = [k for cell, k in ids.items() if "\0" in cell]
    if nul:
        i, j = _first_cell(table, nul, width)
        raise ShapeError(f"{row_name(i)}: NUL byte in column {header[j]!r}")
    codes, labels = _renumbered(table, ids, width)
    ds = CategoricalDataset(
        codes=codes.take(var_idx, axis=1),
        labels=tuple(labels[j] for j in var_idx),
        names=tuple(header[j] for j in var_idx),
    )
    sup = SupplementaryData(
        codes=codes.take(sup_idx, axis=1),
        labels=tuple(labels[j] for j in sup_idx),
        names=tuple(header[j] for j in sup_idx),
    )
    return ds, sup
