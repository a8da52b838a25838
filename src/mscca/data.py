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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, groupby, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

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
    table of labels, each column by its own dict (of ``str()`` of its
    cells, if one is not a string), as the N x width view of width x N
    rows.  Rows must have the width of ``header`` when one is given, else
    of the first row.  ``row_name(i)`` and the header name the offending
    row and column in error messages.
    """
    if len(raw) == 0:
        raise ShapeError("table has no rows")
    width = len(raw[0]) if header is None else len(header)
    if width == 0:
        raise ShapeError("table has no columns")
    if set(map(len, raw)) != {width}:
        i = next(i for i, row in enumerate(raw) if len(row) != width)
        raise ShapeError(f"{row_name(i)} has {len(raw[i])} cells, expected {width}")
    columns = [
        cells if set(map(type, cells)) == {str} else [None if c is None else str(c) for c in cells]
        for cells in zip(*raw)
    ]
    rows, labels = _dict_coded([columns], width)
    _check_filled(rows, labels, range(width), row_name, header)
    return rows.T, tuple(map(tuple, labels))


def _dict_coded(blocks: Iterable[Sequence[Sequence]], width: int) -> tuple[np.ndarray, list]:
    """Codes (width x N) and labels of blocks of ``width`` columns of
    cells, each column coded by its own dict, in order of first
    appearance."""
    columns = [defaultdict(count().__next__) for _ in range(width)]
    parts = [np.empty((width, 0), dtype=np.int64)]
    for block in blocks:
        parts.append(np.empty((width, len(block[0])), dtype=np.int64))
        for cells, ids, row in zip(block, columns, parts[-1]):
            row[:] = np.fromiter(map(ids.__getitem__, cells), np.int64, len(cells))
    return np.concatenate(parts, axis=1), [list(ids) for ids in columns]


def _first_cell(rows: np.ndarray, columns: Sequence[int], keys: Sequence) -> tuple[int, int]:
    """Row and column of the row-major first cell of a table, given as
    rows of codes (row r holds column ``columns[r]``), whose code is one
    of ``keys[r]``."""
    return min(
        (int(np.flatnonzero(np.isin(row, codes))[0]), j)
        for row, j, codes in zip(rows, columns, keys)
        if codes
    )


def _check_filled(
    rows: np.ndarray,
    labels: Sequence[Sequence[str]],
    columns: Sequence[int],
    row_name: Callable[[int], str],
    header: Sequence[str] | None,
) -> None:
    """Raise ``MissingValueError`` naming the row and column of the
    row-major first empty cell (``None`` or ``""``) of a table given as in
    ``_first_cell``, with the labels of each row."""
    empty = [[lab.index(text) for text in (None, "") if text in lab] for lab in labels]
    if any(empty):
        i, j = _first_cell(rows, columns, empty)
        column = j if header is None else repr(header[j])
        raise MissingValueError(f"{row_name(i)}: empty cell in column {column}")


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
    """Drop categories that never occur, preserving the given label order.
    The N x m codes are returned as the transposed view of m x N rows."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.shape[::-1], dtype=np.int64)
    kept: list[tuple[str, ...]] = []
    for j, (col, lab) in enumerate(zip(codes.T, labels)):
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
        out[j] = remap[col]
        kept.append(tuple(lab[k] for k in np.flatnonzero(used)))
    return out.T, tuple(kept)


def _code_rows(
    codes: np.ndarray, labels: Sequence, names: Sequence[str], outside: str, unused: str
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The N x m ``codes`` of a container as read-only m x N rows (no copy
    when ``codes`` is the transpose of such rows), and the count of each
    label of each row.  Raises ``ShapeError`` unless there is one label
    list and name per row, and the codes of row j index its labels (else
    ``outside`` names j), each at least once (else ``unused`` does)."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ShapeError("codes must be a 2-d array")
    rows = _freeze(codes.T)
    if len(labels) != len(rows) or len(names) != len(rows):
        raise ShapeError("labels/names do not match the number of variables")
    counts, low, high = [], rows.min(axis=1, initial=0), rows.max(axis=1, initial=-1)
    for j, (row, lab) in enumerate(zip(rows, labels)):
        if not lab or low[j] < 0 or high[j] >= len(lab):
            raise ShapeError(f"{outside} of variable {j} outside [0, {len(lab)})")
        counts.append(_freeze(np.bincount(row, minlength=len(lab))))
        if not counts[-1].all():
            raise ShapeError(f"variable {j} {unused}")
    return rows, counts


_Coded = TypeVar("_Coded", bound="_CodedColumns")


@dataclass(frozen=True, eq=False)
class _CodedColumns:
    """Integer-coded columns of N observations, every label used, stored
    once as contiguous read-only rows that ``codes`` views transposed, so
    ``codes[:, j]`` is contiguous.  A subclass sets its default name
    ``_prefix`` and the ``_outside`` and ``_unused`` wording of ``_code_rows``."""

    codes: np.ndarray
    labels: tuple[tuple[str, ...], ...]
    names: tuple[str, ...]
    # Per column, the count of each label.
    _label_counts: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows, counts = _code_rows(self.codes, self.labels, self.names, self._outside, self._unused)
        object.__setattr__(self, "codes", rows.T)
        object.__setattr__(self, "_label_counts", tuple(counts))

    @property
    def n_obs(self) -> int:
        return self.codes.shape[0]

    def decode(self) -> list[list[str]]:
        """Recover the original table of labels, cell for cell."""
        return [[labels[c] for labels, c in zip(self.labels, row)] for row in self.codes.tolist()]

    @classmethod
    def from_codes(
        cls: type[_Coded],
        codes: np.ndarray,
        labels: Sequence[Sequence[str]],
        names: Sequence[str] | None = None,
    ) -> _Coded:
        """Build from integer codes, dropping unused labels (a warning is
        emitted for each drop so silent label lists do not linger)."""
        codes, kept = _compact_codes(codes, labels)
        if names is None:
            names = tuple(f"{cls._prefix}{j + 1}" for j in range(codes.shape[1]))
        return cls(codes=codes, labels=kept, names=tuple(names))

    @classmethod
    def _encode(
        cls: type[_Coded], raw: Sequence[Sequence[str]], names: Sequence[str] | None
    ) -> _Coded:
        """First-appearance coding of a rectangular table of labels."""
        codes, labels = _code_table(raw)
        return cls(codes, labels, _column_names(names, codes.shape[1], cls._prefix))


def _marginal_matrix(shape: tuple[int, ...]) -> np.ndarray:
    """The prod(shape) x sum(shape) 0/1 matrix whose row w has a 1 in the
    column of each digit of the mixed-radix code w, digit i of radix
    ``shape[i]`` in the columns after those of digits 0..i-1: a row of
    joint counts times it gives each variable's marginal counts."""
    digits = np.indices(shape).reshape(len(shape), -1)
    columns = digits + np.cumsum((0, *shape[:-1]))[:, None]
    matrix = np.zeros((digits.shape[1], sum(shape)))
    np.put_along_axis(matrix, columns.T, 1.0, axis=1)
    return _freeze(matrix)


# A packed group of variables has at most this many joint codes, and at
# least this many observations per joint code (``CategoricalDataset.packed``).
_PACK_CODES = 128
_PACK_OBS = 64


class PackedCodes(NamedTuple):
    """The m variables as G groups of consecutive ones, each group one
    packed variable.  ``rows[g]`` holds, per observation, the mixed-radix
    joint code of the variables ``groups[g]``, ((c_j1 q_j2 + c_j2) q_j3 +
    c_j3) and so on, one of ``sizes[g]``; ``offsets[g]`` is the first of
    group g's joint columns in a W = ``width`` axis that lays the groups
    side by side, as Z's columns lay the variables (a one-variable group's
    joint columns are its Z columns).  ``marginals[g]`` is None for a
    one-variable group, else the 0/1 matrix (``_marginal_matrix``) that
    maps the group's joint columns to its variables' Z columns, one shared
    by the groups of one shape."""

    rows: np.ndarray
    groups: tuple[range, ...]
    sizes: tuple[int, ...]
    offsets: np.ndarray
    marginals: tuple[np.ndarray | None, ...]

    @property
    def width(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True, eq=False)
class CategoricalDataset(_CodedColumns):
    """N observations of m categorical variables, integer coded.

    ``codes[i, j]`` is the category index of observation ``i`` on variable
    ``j`` and always lies in ``[0, q[j])``; every category occurs at least
    once.  ``labels[j]`` maps codes back to the original category labels.
    The codes are stored as m x N rows (``_CodedColumns``).  The count
    tables and the Burt matrix are counted from ``packed``, one joint code
    per group of consecutive small variables: a second G x N array, made
    only where some group holds two variables or more.
    """

    _prefix, _outside, _unused = "v", "codes", "has categories that never occur"

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
    def counts(self) -> np.ndarray:
        """Category frequencies over all Q categories, in Z's column order."""
        return _freeze(np.concatenate([np.zeros(0, dtype=np.int64), *self._label_counts]))

    @cached_property
    def offsets(self) -> np.ndarray:
        """Column offset of each variable's block in the concatenated Z."""
        return _freeze(np.cumsum((0, *self.q[:-1]), dtype=np.int64))

    @cached_property
    def packed(self) -> PackedCodes:
        """The variables in groups of consecutive ones, each group coded by
        one joint code (``PackedCodes``).

        A group grows, in variable order, while the product of its
        category counts stays within ``_PACK_CODES`` joint codes and N
        holds at least ``_PACK_OBS`` observations per joint code; a
        variable above that bound stands alone.  Where no group has two
        variables, the rows are the code rows themselves, not a copy; else
        they are one more G x N int64 array.
        """
        bound = min(_PACK_CODES, self.n_obs // _PACK_OBS)
        groups, sizes = [], []
        for j, q in enumerate(self.q):
            if groups and sizes[-1] * q <= bound:
                groups[-1], sizes[-1] = range(groups[-1].start, j + 1), sizes[-1] * q
            else:
                groups.append(range(j, j + 1))
                sizes.append(q)
        code_rows = self.codes.T
        if len(groups) == self.n_vars:
            rows = code_rows
        else:
            rows = np.empty((len(groups), self.n_obs), dtype=np.int64)
            for row, group in zip(rows, groups):
                row[:] = code_rows[group.start]
                for j in group[1:]:
                    row *= self.q[j]
                    row += code_rows[j]
            rows = _freeze(rows)
        offsets = _freeze(np.cumsum((0, *sizes[:-1]), dtype=np.int64))
        shapes = [tuple(self.q[j] for j in group) for group in groups]
        matrices = {shape: _marginal_matrix(shape) for shape in shapes if len(shape) > 1}
        marginals = tuple(matrices.get(shape) for shape in shapes)
        return PackedCodes(rows, tuple(groups), tuple(sizes), offsets, marginals)

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
    return CategoricalDataset._encode(raw, names)


@dataclass(frozen=True, eq=False)
class SupplementaryData(_CodedColumns):
    """Class memberships for H supplementary variables, integer coded and
    stored as H x N rows (``_CodedColumns``); every class has a member."""

    _prefix, _outside, _unused = "s", "classes", "has classes without members"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self._label_counts:
            raise ShapeError("supplementary data needs at least one variable")

    @property
    def n_sup(self) -> int:
        return self.codes.shape[1]

    @property
    def r(self) -> tuple[int, ...]:
        """Per-variable class counts."""
        return tuple(len(lab) for lab in self.labels)

    def members(self, h: int, s: int) -> np.ndarray:
        """Indices of the observations in class ``s`` of variable ``h``
        (read-only)."""
        return self._members[h][s]

    @cached_property
    def _members(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return tuple(
            tuple(_freeze(np.flatnonzero(row == s)) for s in range(r))
            for row, r in zip(self.codes.T, self.r)
        )

    def class_sizes(self, h: int) -> np.ndarray:
        """Member count of each class of variable ``h`` (read-only)."""
        return self._label_counts[h]


def encode_supplementary(
    raw: Sequence[Sequence[str]], names: Sequence[str] | None = None
) -> SupplementaryData:
    """First-appearance encoding of supplementary class labels."""
    return SupplementaryData._encode(raw, names)


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
            for k, size, label in zip(self.counts[h], sup.class_sizes(h), sup.labels[h]):
                name = f"{sup.names[h]}:{label}"  # as --k names it
                if k < 1:
                    raise SpecError(f"K must be >= 1 for class {name}")
                if k > size:
                    raise SpecError(f"class {name} has {size} members, cannot host {k} clusters")


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
    ``bincount`` of the (start, cluster, joint column) cells of all
    observations and packed variables (``CategoricalDataset.packed``) of a
    group of starts, which holds at most ``_CELL_BLOCK`` cells or one
    start's: N G cells per start, where m variables pack into G.  Where
    some group holds two variables or more, the counts fill S x K x W
    joint tables, unpacked into ``table`` once (``_unpacked``); else they
    are the table's columns and go straight in.  The sizes are the row
    sums of the first variable's block.
    """
    packed = dataset.packed
    width = packed.width
    packs = len(packed.rows) < dataset.n_vars
    joint = np.empty((*table.shape[:2], width), dtype=np.int64) if packs else table
    group = max(1, _CELL_BLOCK // packed.rows.size)
    bounds = np.cumsum((0, *spec.k_per_variable))
    for h, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        for a in range(0, len(rows), group):
            part = rows[a : a + group, :, h]
            local = part + ((hi - lo) * np.arange(len(part)) - lo)[:, None]
            cells = np.empty((len(part), *packed.rows.shape), dtype=np.int64)
            np.add(local[:, None, :] * width, packed.rows, out=cells)
            cells += packed.offsets[:, None]
            counts = np.bincount(cells.ravel(), minlength=len(part) * (hi - lo) * width)
            del cells  # one group's cells at a time
            joint[a : a + group, lo:hi] = counts.reshape(len(part), hi - lo, width)
    if packs:
        table[...] = _unpacked(joint, dataset)
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
    ``_CELL_BLOCK`` cells: that touches 2 cells per moved entry and
    variable where a recount touches one per entry and variable.
    Otherwise the tables are counted afresh.  Counts are integers, so
    either way gives the same tables.

    The cells are joint cells, as ``_count_into`` counts them, when the
    2 (m - G) cells per moved entry that packing saves outnumber twice the
    S x K x W joint tables their changes are summed in and unpacked from
    (``_unpacked``); else they are the variables' own cells, added
    straight into ``table``.  A few moved entries over large tables, as in
    the late cycles of a fit, take the variables' cells.
    """
    moved = rows != new_rows
    n_moved = np.count_nonzero(moved)
    if 2 * n_moved >= moved.size:
        return _count_into(table, new_rows, spec, dataset)
    packed, (n_stack, big_k, big_q) = dataset.packed, table.shape
    packs = n_moved * (dataset.n_vars - len(packed.rows)) > n_stack * big_k * packed.width
    if packs:
        codes, offsets, width = packed.rows, packed.offsets, packed.width
        joint = np.zeros((n_stack, big_k, width), dtype=np.int64)
    else:
        codes, offsets, width, joint = dataset.codes.T, dataset.offsets, big_q, table
    group = max(1, _CELL_BLOCK // len(codes))
    bounds = np.cumsum((0, *spec.k_per_variable))
    for h, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        size = n_stack * (hi - lo) * width
        entries = np.nonzero(moved[..., h])
        for a in range(0, entries[0].size, group):
            starts, obs = (index[a : a + group] for index in entries)
            new, old = new_rows[starts, obs, h], rows[starts, obs, h]
            cells = codes[:, obs]
            cells += offsets[:, None]
            cells += ((hi - lo) * starts - lo + new) * width
            counts = np.bincount(cells.ravel(), minlength=size)
            cells += (old - new) * width
            counts -= np.bincount(cells.ravel(), minlength=size)
            joint[:, lo:hi] += counts.reshape(n_stack, hi - lo, width)
    if packs:
        table += _unpacked(joint, dataset)
    return _sizes(table, dataset)


def _unpacked(joint: np.ndarray, dataset: CategoricalDataset, first: int = 0) -> np.ndarray:
    """The per-category counts of joint-code counts: ``joint``'s last axis
    holds the joint columns of the packed groups ``first``.. side by side
    (``PackedCodes``), and the result's holds the Z columns of their
    variables.  A one-variable group's joint columns are its Z columns; a
    larger group's counts are multiplied by its ``marginals`` matrix,
    which sums each variable's marginal.  A run of groups that share a
    matrix takes one product, and a run of one-variable groups is one
    slice.  The product is in float64, so it is exact while the counts,
    integers, stay below 2^53 in magnitude.  Where no group has two
    variables, ``joint`` itself is returned."""
    packed = dataset.packed
    if len(packed.rows) == dataset.n_vars:
        return joint
    parts, lo = [], 0
    groups = zip(packed.marginals[first:], packed.sizes[first:])
    for _, run in groupby(groups, key=lambda group: id(group[0])):
        matrices, sizes = zip(*run)
        block = joint[..., lo : lo + sum(sizes)]
        lo += sum(sizes)
        if matrices[0] is None:
            parts.append(block)
            continue
        sums = block.reshape(-1, sizes[0]).astype(np.float64) @ matrices[0]
        parts.append(sums.astype(np.int64).reshape(*joint.shape[:-1], -1))
    return np.concatenate(parts, axis=-1)


def _sizes(table: np.ndarray, dataset: CategoricalDataset) -> np.ndarray:
    """Cluster sizes of count tables: the row sums of the first variable's
    block of columns."""
    return table[..., : dataset.q[0]].sum(axis=-1)


# Lines coded per block when reading a CSV: only one block's cells are
# alive at a time.
_BLOCK_ROWS = 4096

# The low L bytes of a uint64, L = 0..8.
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _storage_order(header: Sequence[str], sup_columns: Sequence[str]) -> list[int]:
    """The header columns in the order their codes are stored: the
    analysis variables in header order, then the supplementary columns
    found in the header, in ``sup_columns`` order."""
    sup = [header.index(c) for c in sup_columns if c in header]
    return [j for j in range(len(header)) if j not in sup] + sup


class _ColumnCoder:
    """One CSV column's vocabulary, in order of first appearance.

    While every cell seen fits 8 bytes, a cell's key is its masked
    little-endian word (``_block_cells``): ``by_code[c]`` is the key of
    code c, and ``keys`` holds the same keys sorted, with the code of each
    in ``codes``.  No cell holds a NUL byte, so equal keys are equal
    cells: an exact key, not a hash.  From the first longer cell on, the
    column is coded by a dict of its labels (``ids``), as ``_dict_coded``
    codes a column.
    """

    def __init__(self) -> None:
        self.by_code = self.keys = np.empty(0, dtype=np.uint64)
        self.codes = np.empty(0, dtype=np.intp)
        self.ids: dict | None = None

    def code(self, cells: np.ndarray | list[str], out: np.ndarray) -> None:
        """Write the codes of a block's cells into ``out``.  Cells given by
        their keys are looked up by ``searchsorted`` and an equality check;
        the cells missing from the vocabulary get the next codes, in order
        of first appearance.  Cells given as texts are coded by the dict
        of labels, which starts from the keys' labels."""
        if isinstance(cells, list):
            if self.ids is None:
                labels = self.labels
                self.ids = defaultdict(count(len(labels)).__next__, zip(labels, count()))
            out[:] = np.fromiter(map(self.ids.__getitem__, cells), np.int64, len(cells))
            return
        keys, missed = cells, np.arange(len(cells))
        if not len(keys):
            return
        if self.keys.size:
            at = np.searchsorted(self.keys, keys)
            self.codes.take(at, out=out, mode="clip")
            missed = np.flatnonzero(self.keys.take(at, mode="clip") != keys)
            if not missed.size:
                return
            keys = keys[missed]
        order = keys.argsort()
        ranked = keys[order]
        new = np.concatenate(([True], ranked[1:] != ranked[:-1]))
        runs = new.nonzero()[0]
        first = np.minimum.reduceat(order, runs).argsort()  # the new keys by first appearance
        codes = first.argsort() + self.by_code.size
        out[missed[order]] = codes.take(np.cumsum(new) - 1)
        self.by_code = np.concatenate((self.by_code, ranked[runs[first]]))
        self.codes = self.by_code.argsort()
        self.keys = self.by_code[self.codes]

    @property
    def labels(self) -> list[str]:
        """The label of each code."""
        if self.ids is not None:
            return list(self.ids)
        return [cell.decode("utf-8") for cell in self.by_code.view("S8").tolist()]


def _plain_coded(buf: np.ndarray, text: str, sup_columns: Sequence[str]) -> tuple | None:
    """What ``_reader_coded`` gives for a CSV file of bytes ``buf`` and
    text ``text``, coded straight from the bytes; None when the bytes
    cannot be read so exactly as ``csv.reader`` reads the text.

    They can when the file has a non-empty header of distinct names, no
    quote, carriage return or NUL byte (so lines end only at ``\\n`` and
    no field is quoted), no line longer than ``csv.field_size_limit()``
    bytes, and every line that is not blank has the header's width and no
    empty cell.  Each column of each block of ``_BLOCK_ROWS`` lines
    (``_block_cells``) is coded by its ``_ColumnCoder`` into its row of
    the table.
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
    starts, ends = starts[ends > starts], ends[ends > starts]  # blank lines are skipped
    order, coders = _storage_order(header, sup_columns), [_ColumnCoder() for _ in header]
    table = np.empty((len(order), len(ends) - 1), dtype=np.int64)
    done = 0
    for lo in range(1, len(ends), _BLOCK_ROWS):
        hi, base = min(lo + _BLOCK_ROWS, len(ends)), starts[lo]
        decoded = [coder.ids is not None for coder in coders]
        raw = buf[base : ends[hi - 1]]
        cells = _block_cells(raw, starts[lo:hi] - base, ends[lo:hi] - base, decoded)
        if cells is None:
            return None
        k = len(cells[0])
        for j, row in zip(order, table):
            coders[j].code(cells[j], row[done : done + k])
        done += k
    return header, order, table, [coders[j].labels for j in order], []


def _block_cells(
    raw: np.ndarray, starts: np.ndarray, ends: np.ndarray, decoded: Sequence[bool]
) -> list | None:
    """Per column, the cells of ``raw``, the bytes of the lines that start
    at ``starts`` and end at ``ends`` (and of blank lines between them).
    None when a line has other than ``len(decoded)`` cells, or an empty
    cell.

    A column's cells are given by their keys, each cell's bytes as one
    little-endian uint64 masked to its length, unless the column is
    ``decoded`` or has a cell longer than 8 bytes: then they are given as
    their texts.
    """
    width = len(decoded)
    commas = np.flatnonzero(raw == ord(","))
    per_line = np.searchsorted(commas, ends) - np.searchsorted(commas, starts)
    if not (per_line == width - 1).all():
        return None
    cuts = commas.reshape(len(starts), width - 1).T
    at = np.vstack((starts, cuts + 1))
    lengths = np.vstack((cuts, ends)) - at
    if not lengths.all():
        return None
    padded = np.zeros(raw.size + 8, dtype=np.uint8)
    padded[: raw.size] = raw
    # the 8 bytes from each offset, one unaligned little-endian word
    window = np.ndarray((raw.size + 1,), dtype="<u8", buffer=padded, strides=(1,))
    words = window.take(at)
    words &= _MASKS.take(lengths, mode="clip")
    columns = list(words)
    for j in np.flatnonzero(np.logical_or(decoded, lengths.max(axis=1, initial=0) > 8)):
        # the column's cells and the byte after each, made a line end
        size = lengths[j] + 1
        stops = np.cumsum(size)
        joined = padded[np.arange(stops[-1]) - np.repeat(stops - size - at[j], size)]
        joined[stops - 1] = ord("\n")
        columns[j] = joined[:-1].tobytes().decode("utf-8").split("\n")
    return columns


def _reader_rows(path: Path, text: str) -> Iterator[list[str]]:
    """``csv.reader`` rows of ``text``; a ``csv.Error`` is raised as a
    ``ShapeError`` naming its file line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise ShapeError(f"{path} line {reader.line_num}: {exc}") from None


def _reader_coded(path: Path, text: str, sup_columns: Sequence[str]) -> tuple:
    """Header, storage order (``_storage_order``), table (row r holds the
    codes of header column ``order[r]``), labels of each row and ragged
    row (``_column_blocks``) of the CSV text of ``path``, read by
    ``csv.reader`` and coded by ``_dict_coded``."""
    rows = _reader_rows(path, text)
    header = next(rows, None)
    if header is None:
        raise ShapeError(f"{path}: empty file, a header row is mandatory")
    if len(set(header)) != len(header):
        raise ShapeError(f"{path}: duplicate column names in header")
    if "\0" in "".join(header):
        name = next(name for name in header if "\0" in name)
        raise ShapeError(f"{path} line 1: NUL byte in header column {name!r}")
    order, ragged = _storage_order(header, sup_columns), []
    blocks = _column_blocks(filter(None, rows), len(header), ragged)
    table, labels = _dict_coded(([cells[j] for j in order] for cells in blocks), len(order))
    return header, order, table, labels, ragged


def _column_blocks(
    rows: Iterator[list[str]], width: int, ragged: list[tuple[int, int]]
) -> Iterator[list[tuple[str, ...]]]:
    """The columns of successive blocks of ``_BLOCK_ROWS`` rows.

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
        yield list(zip(*block))
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
    errors.  Each column is coded by the first appearance of its labels
    into its row of one width x N table, analysis variables first, and
    both containers keep their rows of that table without a copy.
    """
    path = Path(path)
    if len(set(sup_columns)) != len(sup_columns):
        raise ShapeError(f"supplementary columns {list(sup_columns)} repeat a column")
    data = path.read_bytes()
    text = data.decode("utf-8")  # at once, so an error's start is the byte's file offset
    bom = text.startswith("\ufeff")
    buf, text = np.frombuffer(data, dtype=np.uint8)[3 * bom :], text[bom:]
    coded = _plain_coded(buf, text, sup_columns) or _reader_coded(path, text, sup_columns)
    header, order, table, labels, ragged = coded
    missing = [c for c in sup_columns if c not in header]
    if missing:
        raise ShapeError(f"{path}: supplementary columns {missing} not in header {header}")
    m = len(header) - len(sup_columns)
    if not m:
        raise ShapeError(f"{path}: no analysis variables left after removing {list(sup_columns)}")

    def row_name(i: int) -> str:
        return f"{path} line {_csv_line(text, i)}"

    if ragged:
        i, cells = ragged[0]
        raise ShapeError(f"{row_name(i)} has {cells} cells, expected {len(header)}")
    if table.shape[1] == 0:
        raise ShapeError(f"{path}: no data rows after the header")
    _check_filled(table, labels, order, row_name, header)
    nul = [[k for k, cell in enumerate(lab) if "\0" in cell] for lab in labels]
    if any(nul):
        i, j = _first_cell(table, order, nul)
        raise ShapeError(f"{row_name(i)}: NUL byte in column {header[j]!r}")
    labels, names = tuple(map(tuple, labels)), tuple(header[j] for j in order)
    ds = CategoricalDataset(codes=table[:m].T, labels=labels[:m], names=names[:m])
    sup = SupplementaryData(codes=table[m:].T, labels=labels[m:], names=names[m:])
    return ds, sup
