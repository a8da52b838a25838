"""Alternating least squares for joint class-specific clustering and
category quantification, plus the row-constrained quantification variants.

The minimized objective is, over all variables j and supplementary
variables h,

    phi = (1/(N H m)) * sum_j sum_h || U_h G_h - Z_j B_j ||^2

subject to the quantification normalization
(1/(N H m)) sum_j B_j' Z_j^H' Z_j^H B_j = I_p and centered cluster scores.
Each cycle refreshes the quantifications B (an eigenproblem on the
mass-scaled between-cluster cross-product, solved through its K x K
cluster Gram matrix), recenters G, and reassigns observations to their
nearest center inside their own class.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import (
    CategoricalDataset,
    ClusterSpec,
    HierarchicalAssignment,
    SupplementaryData,
    _unpacked,
    cluster_counts,
    moved_counts,
    stacked_counts,
)
from .errors import EmptyClusterError, ProjectorError, ShapeError, SpecError
from .linalg import ROW_BLOCK, TOL, gram_eig_top, mass_scale, sign_fixed, sym_eig_top

# Final objectives this close (relative) to the best count as ties, which
# go to the lowest start index.
WINNER_RTOL = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the alternating least squares fit.

    ``epsilon`` bounds the objective decrease between consecutive cycles;
    iteration stops once the decrease falls below it.
    """

    p: int = 2
    n_starts: int = 100
    max_iter: int = 100
    epsilon: float = 1e-8
    seed: int = 0

    def validate(self, dataset: CategoricalDataset | None = None) -> None:
        if self.p < 1:
            raise SpecError("p must be >= 1")
        if self.n_starts < 1:
            raise SpecError("n_starts must be >= 1")
        if self.max_iter < 1:
            raise SpecError("max_iter must be >= 1")
        if not self.epsilon > 0:
            raise SpecError("epsilon must be positive")
        if self.seed < 0:
            raise SpecError("seed must be >= 0")
        if dataset is not None:
            bound = dataset.total_categories - dataset.n_vars
            if self.p > bound:
                raise SpecError(
                    f"p={self.p} exceeds the rank bound Q - m = {bound} of the centered indicators"
                )


@dataclass(frozen=True, eq=False)
class MsccaSolution:
    """A converged fit: assignment, centers, quantifications, diagnostics.

    ``centers`` stacks the per-variable center blocks G_h in the natural
    (h, class, cluster) order, matching the rows of ``table`` and ``sizes``,
    the assignment's ``cluster_counts`` as the engine left them.
    ``objective_trace`` holds the winning start's objective after each
    centering update; ``start_traces`` keeps every start's trace so
    monotonicity can be audited across the whole multistart.
    """

    assignment: HierarchicalAssignment
    centers: np.ndarray
    quantifications: np.ndarray
    table: np.ndarray
    sizes: np.ndarray
    objective: float
    psi: float
    objective_trace: tuple[float, ...]
    start_index: int
    converged: bool
    start_traces: tuple[tuple[float, ...], ...]
    options: SolverOptions


def object_scores(dataset: CategoricalDataset, quantifications: np.ndarray) -> np.ndarray:
    """Mean object scores: one replicate block of J Z^H B divided by the
    variable count, i.e. (1/m) * centered(Z B).  Rows i and i + N of the
    stacked version are identical, so one block carries everything.

    Each group of packed variables (``CategoricalDataset.packed``) adds
    one gather by its joint codes, from its rows of B summed per joint
    code (``_joint_rows``).  Every sum is elementwise, in a fixed order,
    so the bits do not depend on the BLAS thread count, and a stack of S
    quantifications (S x Q x p, giving S x N x p) gives each start the
    bits of the lone start."""
    packed, q, offsets = dataset.packed, dataset.q, dataset.offsets
    scores = np.zeros((*quantifications.shape[:-2], dataset.n_obs, quantifications.shape[-1]))
    for row, group in zip(packed.rows, packed.groups):
        lo, hi = group.start, group.stop
        scores += np.take(_joint_rows(quantifications, q[lo:hi], offsets[lo:hi]), row, axis=-2)
    scores -= (dataset.column_means @ quantifications)[..., None, :]
    return scores / dataset.n_vars


def _joint_rows(
    quantifications: np.ndarray, q: tuple[int, ...], offsets: np.ndarray
) -> np.ndarray:
    """Row w holds the sum, in variable order, of the rows of B of the
    categories that joint code w of a group of variables stands for: the
    group's category counts are ``q``, its variables' first columns of Z
    are ``offsets``, and w is their mixed-radix code (``PackedCodes``).
    A one-variable group's rows are its own q rows of B."""
    if len(q) == 1:
        return quantifications[..., offsets[0] : offsets[0] + q[0], :]
    columns = np.indices(q).reshape(len(q), -1) + offsets[:, None]
    rows = quantifications[..., columns[0], :]
    for column in columns[1:]:
        rows += quantifications[..., column, :]
    return rows


def objective_phi(
    assignment: HierarchicalAssignment,
    centers: np.ndarray,
    quantifications: np.ndarray,
    dataset: CategoricalDataset,
) -> float:
    """Evaluation of the objective at (U, G, B), with no use of the
    centering or the normalization: the squared residuals
    || U_h G_h - Z_j B_j ||^2 over every (variable, supplementary variable)
    pair, scaled by 1/(N H m), summed per cell of the assignment's count
    table (``_table_objective``).  An empty cluster is a zero row there,
    so any assignment can be evaluated.
    """
    table, _sizes = stacked_counts(assignment.rows[None], assignment.spec, dataset)
    return _table_objective(table[0], centers, quantifications, dataset, assignment.n_sup)


def _table_objective(
    table: np.ndarray,
    centers: np.ndarray,
    quantifications: np.ndarray,
    dataset: CategoricalDataset,
    n_stack: int,
) -> float:
    """(1/(N H m)) sum_{k,c} n_kc || g_k - b_c ||^2 for one K x Q count
    table, its K x p centers and its Q x p quantifications, H = ``n_stack``.

    Every member of cluster k that has category c leaves the residual
    g_k - b_c, so this is the residual sum over all N H m (observation,
    supplementary variable, variable) terms, grouped by cell.  The squared
    distances are built one coordinate at a time as K x Q arrays, weighted
    by the integer counts (exact in float64 below 2^53) and reduced by one
    ``sum``, so a start's value depends only on its own arrays.
    """
    dist = np.zeros(table.shape)
    for d in range(centers.shape[-1]):
        gap = np.subtract.outer(centers[:, d], quantifications[:, d])
        np.square(gap, out=gap)
        dist += gap
    dist *= table
    return float(dist.sum()) / (dataset.n_obs * n_stack * dataset.n_vars)


def psi_value(
    assignment: HierarchicalAssignment,
    quantifications: np.ndarray,
    dataset: CategoricalDataset,
) -> float:
    """The maximization-form value tr B' Z^H' J U (U'U)^-1 U' J Z^H B.

    Computed from the count table as the size-weighted squared norms of
    the per-cluster means of the centered scores Z_c B (m times the
    centers); raises
    ``EmptyClusterError`` when a cluster has no members (singular U'U).
    """
    table, sizes = cluster_counts(assignment, dataset)
    centers = _centroids(table, sizes, dataset, quantifications)
    return float(dataset.n_vars**2 * (sizes[:, None] * centers * centers).sum())


def init_random(
    sup: SupplementaryData, spec: ClusterSpec, rng: np.random.Generator
) -> HierarchicalAssignment:
    """Random initial clusters inside each class.

    The first K_hs members (in a random permutation) seed the K_hs
    clusters so none starts empty; the rest draw uniformly.
    """
    spec.validate(sup)
    clusters = np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64)
    _draw_clusters(sup, spec, rng, clusters)
    return HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


def _draw_clusters(
    sup: SupplementaryData, spec: ClusterSpec, rng: np.random.Generator, clusters: np.ndarray
) -> None:
    """``init_random``'s draw into the N x H array ``clusters``, for a
    spec already validated against ``sup``.  The classes draw in order,
    each its permutation and then its uniform tail, and each variable's
    column is written by one scatter."""
    for h in range(sup.n_sup):
        members, drawn = [], []
        for s in range(sup.r[h]):
            k = spec.k_of(h, s)
            members.append(rng.permutation(sup.members(h, s)))
            drawn.append(np.arange(k))
            if members[-1].size > k:
                drawn.append(rng.integers(0, k, size=members[-1].size - k))
        clusters[np.concatenate(members), h] = np.concatenate(drawn)


def update_B(
    assignment: HierarchicalAssignment, dataset: CategoricalDataset, p: int
) -> np.ndarray:
    """Refresh the category quantifications for a fixed assignment.

    B is sqrt(N H m) D^{-1/2} times the top-p eigenvectors of the
    mass-scaled between-cluster cross-product

        (1/m) D^{-1/2} Z^H' J P_U J Z^H D^{-1/2},

    which satisfies the normalization constraint by construction.  The
    scaling uses the stacked masses D (category counts times H), so the
    constraint (1/(N H m)) sum_j B_j' Z_j^H' Z_j^H B_j = I_p holds for
    every H, not only the single-set case; H is the assignment's count of
    supplementary variables.  This is the B-step every fit cycle runs.
    """
    SolverOptions(p=p).validate(dataset)
    table, sizes = cluster_counts(assignment, dataset)
    return _between_quantify(table, sizes, dataset, assignment.n_sup, p)


def _between_quantify(
    table: np.ndarray,
    sizes: np.ndarray,
    dataset: CategoricalDataset,
    n_stack: int,
    p: int,
) -> np.ndarray:
    """The B-step from a K x Q count table and its K sizes, or from a
    stack of S of each (giving S x Q x p).

    The mass-scaled target is F'F for the K x Q factor F of
    ``_between_factor``, columns scaled by D^{-1/2} / sqrt(m).
    Its rank is at most K - H, so the eigenproblem is solved on the K x K
    matrix F F' (``gram_eig_top``).  When fewer than p of its eigenvalues
    are clearly positive (a flat K = 2 fit at p = 2, say) the remaining
    columns span part of the zero eigenspace, and ``_centered_completion``
    fills them by a fixed rule.
    """
    n, m = dataset.n_obs, dataset.n_vars
    d = (dataset.counts * n_stack).astype(float)
    factors = _between_factor(table, sizes, dataset)
    factors /= np.sqrt(d * m)
    factors = factors.reshape(-1, *table.shape[-2:])
    eig, kept = gram_eig_top(factors, p)
    vectors = _centered_completion(eig.vectors, kept, dataset)
    out = float(np.sqrt(n * n_stack * m)) * mass_scale(vectors, d, -0.5)
    return out.reshape(*table.shape[:-2], *out.shape[1:])


def _centered_completion(
    vectors: np.ndarray, kept: np.ndarray, dataset: CategoricalDataset
) -> np.ndarray:
    """Fill columns kept..p-1 of each S x Q x p stack entry of orthonormal
    mass-scaled quantifications, whose first ``kept`` columns are set.

    Gram-Schmidt, run twice, over the category axes in column order, each
    first centered per variable (less its component along sqrt(d_j) on
    its variable's block): a candidate is accepted when its squared
    residual exceeds the threshold ``gram_eig_top`` applies to
    eigenvalues, then scaled to unit length and sign-fixed like an
    eigenvector.  The kept columns span the factor's row space, which is
    centered per variable, so every column comes out centered and the
    completed ones lie in the factor's null space.  The candidates span
    the centered space, of dimension Q - m >= p, so every column is
    filled.  Each entry sees only elementwise operations and sums along
    its own rows, so its result does not depend on the rest of the stack.
    """
    p = vectors.shape[2]
    need = np.flatnonzero(kept < p)
    if need.size == 0:
        return vectors
    root = np.sqrt(dataset.column_means)
    fill = kept[need]  # the next column to set, per entry
    basis = np.ascontiguousarray(np.swapaxes(vectors[need], 1, 2))  # columns as rows
    lows = np.repeat(dataset.offsets, dataset.q)  # each category's variable block
    highs = lows + np.repeat(dataset.q, dataset.q)
    for c, (lo, hi) in enumerate(zip(lows, highs)):
        open_ = fill < p
        if not open_.any():
            break
        residual = np.zeros((need.size, dataset.total_categories))
        residual[:, lo:hi] = -root[c] * root[lo:hi]
        residual[:, c] += 1.0
        for _ in range(2):
            for k in range(p):  # unset columns are zero and change nothing
                residual -= (basis[:, k] * residual).sum(axis=1)[:, None] * basis[:, k]
        norm2 = (residual * residual).sum(axis=1)
        accept = np.flatnonzero(open_ & (norm2 > TOL.eig_tie_rel))
        unit = residual[accept] / np.sqrt(norm2[accept])[:, None]
        basis[accept, fill[accept]] = sign_fixed(unit[:, :, None])[:, :, 0]
        fill[accept] += 1
    out = vectors.copy()
    out[need] = np.swapaxes(basis, 1, 2)
    return out


def _between_factor(
    table: np.ndarray, sizes: np.ndarray, dataset: CategoricalDataset
) -> np.ndarray:
    """The K x Q factor F whose row k is (table_k - n_k mu) / sqrt(n_k),
    from a count table and its sizes (or a stack of each), so that F'F is
    Z^H' J P_U J Z^H: the sum over the supplementary variables of the
    between-group cross-product of that variable's block of rows."""
    factor = sizes[..., None] * dataset.column_means
    np.subtract(table, factor, out=factor)
    factor /= np.sqrt(sizes)[..., None]
    return factor


def _subtract_between(
    target: np.ndarray, table: np.ndarray, sizes: np.ndarray, dataset: CategoricalDataset
) -> None:
    """Subtract Z^H' J P_U J Z^H = F'F from a Q x Q ``target`` in place,
    one block of ``ROW_BLOCK`` rows at a time, so no Q x Q temporary is
    formed."""
    factor = _between_factor(table, sizes, dataset)
    for lo in range(0, len(target), ROW_BLOCK):
        hi = lo + ROW_BLOCK
        target[lo:hi] -= factor[:, lo:hi].T @ factor


# Q x Q arrays of doubles the solve of ``_quantify`` peaks at, with the
# Burt count that builds its target.
_SOLVE_ARRAYS = 2.5


def _memory_budget() -> int:
    """Bytes a Q x Q solve may take: the machine's physical memory, as
    ``os.sysconf`` reports it (no limit where it reports none)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return np.iinfo(np.int64).max


def _check_solve_budget(dataset: CategoricalDataset) -> None:
    """Raise ``MemoryError``, naming Q and the bytes needed, when the Q x Q
    solve would take more than ``_memory_budget()``: before any Q x Q
    array is made, so the fill cannot exhaust the machine's memory."""
    big_q = dataset.total_categories
    need = int(_SOLVE_ARRAYS * 8 * big_q * big_q)
    budget = _memory_budget()
    if need > budget:
        raise MemoryError(
            f"the Q x Q solve at Q = {big_q} categories needs about {need} bytes, "
            f"more than the {budget} bytes of physical memory"
        )


def _quantify(
    target: np.ndarray, dataset: CategoricalDataset, n_stack: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(N H m) D^{-1/2} times the top-p eigenvectors of
    (1/m) D^{-1/2} target D^{-1/2}, with H = ``n_stack`` and D the stacked
    masses (category counts times H), and those p eigenvalues.  H cancels
    out of both, since ``target`` carries it too.  This is the Q x Q
    solve of the ``identity`` and ``projector-off`` constraints, whose
    centered Burt target has no low-rank factor.

    ``target`` is consumed: it is scaled in place, so the solve holds two
    Q x Q arrays, it and ``sym_eig_top``'s symmetric part of it.  LAPACK's
    ``dsyevr`` reduces that part in its own buffer and returns only the
    vectors of the top p + 1 or so eigenvalues, a Q x k block; only where
    numpy's BLAS exports no ``dsyevr`` does ``eigh`` add its full Q x Q
    output and workspace.
    """
    n, m = dataset.n_obs, dataset.n_vars
    d = (dataset.counts * n_stack).astype(float)
    d_isqrt = 1.0 / np.sqrt(d)
    target *= d_isqrt[:, None]
    target *= d_isqrt[None, :]
    target /= m
    eig = sym_eig_top(target, p)
    return float(np.sqrt(n * n_stack * m)) * mass_scale(eig.vectors, d, -0.5), eig.values


def _centered_burt(dataset: CategoricalDataset, n_stack: int) -> np.ndarray:
    """Z^H' J Z^H = H (Z'Z - N mu mu'), built in one Q x Q float array.

    The Burt matrix Z'Z is counted over the variable pairs j < j' only:
    those cells lie above the diagonal, which holds the category counts.
    They are counted on the packed variables (``CategoricalDataset.packed``),
    one group's cells at a time.  Per group a, one ``bincount`` of a's
    joint code against the joint codes of all later groups gives the rows
    of a's variables in the later groups' columns: the later axis is
    unpacked (``_unpacked``), and a's axis is multiplied by a's marginal
    matrix when a holds two variables or more.  Such a group also gets one
    ``bincount`` of its own joint codes, whose product with its marginal
    matrix on both sides holds the pairs inside it.  The lower triangle is
    then mirrored in, the diagonal set and the independence term
    subtracted, one block of rows at a time.  The counts are exact
    integers, in float64 below 2^53, so every entry gets the same float
    value as on whole arrays.
    """
    packed, q, n, big_q = dataset.packed, dataset.q, dataset.n_obs, dataset.total_categories
    bins = [*packed.offsets.tolist(), packed.width]  # each group's joint columns
    columns = [*dataset.offsets.tolist(), big_q]  # each variable's Z columns
    target = np.zeros((big_q, big_q))
    packs = len(packed.rows) < dataset.n_vars
    for a, (group, matrix) in enumerate(zip(packed.groups, packed.marginals)):
        lo, after = columns[group.start], columns[group.stop]  # a's rows
        if matrix is not None:
            own = np.bincount(packed.rows[a], minlength=len(matrix))
            variable = np.repeat(np.arange(len(group)), [q[j] for j in group])
            upper = variable[:, None] < variable  # pairs of two of a's variables
            target[lo:after, lo:after] += np.where(upper, (matrix.T * own) @ matrix, 0.0)
        if after == big_q:
            break
        width = bins[-1] - bins[a + 1]  # the later groups' joint columns
        cells = packed.rows[a + 1 :] + packed.offsets[a + 1 :, None]
        cells += packed.rows[a] * width
        pairs = np.bincount(cells.ravel(), minlength=packed.sizes[a] * width + bins[a + 1])
        del cells  # one group's cells at a time
        pairs = pairs[bins[a + 1] :].reshape(packed.sizes[a], width)
        if packs:
            pairs = _unpacked(pairs, dataset, a + 1)
        if matrix is not None:
            pairs = matrix.T @ pairs.astype(np.float64)
        target[lo:after, after:] += pairs
    mu = dataset.column_means
    for lo in range(0, big_q, ROW_BLOCK):
        hi = lo + ROW_BLOCK
        target[lo:, lo:hi] += target[lo:hi, lo:].T  # rows lo:hi are now complete
        rows = target[lo:hi]
        np.fill_diagonal(rows[:, lo:], dataset.counts[lo:hi])
        rows -= n * np.outer(mu[lo:hi], mu)
        rows *= n_stack
    return target


def _centroids(
    table: np.ndarray,
    sizes: np.ndarray,
    dataset: CategoricalDataset,
    quantifications: np.ndarray,
) -> np.ndarray:
    """Per-cluster means of the object scores, stacked over h: the row
    profiles of the count table, centered by the category means, times
    B / m.  Stacks of S tables, sizes and quantifications give S x K x p."""
    profiles = table / sizes[..., None]
    profiles -= dataset.column_means
    return profiles @ quantifications / dataset.n_vars


def update_G(
    assignment: HierarchicalAssignment,
    dataset: CategoricalDataset,
    quantifications: np.ndarray,
) -> np.ndarray:
    """Recenter: each row of G becomes the mean object score of its
    cluster's members (the closed-form optimum for a fixed assignment)."""
    return _centroids(*cluster_counts(assignment, dataset), dataset, quantifications)


def update_U(
    scores: np.ndarray,
    centers: np.ndarray,
    sup: SupplementaryData,
    spec: ClusterSpec,
) -> HierarchicalAssignment:
    """Assign every observation to its nearest center inside its observed
    class; ties break toward the lowest cluster index.  Empty clusters may
    result and are repaired separately."""
    clusters = _nearest_clusters(scores, centers, sup, spec)
    return HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


def _nearest_clusters(
    scores: np.ndarray, centers: np.ndarray, sup: SupplementaryData, spec: ClusterSpec
) -> np.ndarray:
    """The assignment step on N x p scores and K x p centers, or on stacks
    of S of each (giving S x N x H): per supplementary variable, the
    within-class index of each observation's nearest center of its own
    class, the lowest index on ties.  One pass per cluster slot measures
    every observation's distance to its class's center in that slot and
    keeps a running minimum, so no observation-by-cluster array is built.

    A slot's centers are gathered per class (r_h x p), then per
    observation by its class code.  Each squared distance is a running sum
    of per-column squares, which has the bits of ``einsum``'s dot product
    at p <= 2 (not above) and costs less.  A closer slot k is written
    as the maximum of the nearest index so far (below k) and k times the
    comparison, which costs no branch per observation."""
    clusters = np.empty((*scores.shape[:-1], sup.n_sup), dtype=np.int64)
    best, dist = np.empty(scores.shape[:-1]), np.empty(scores.shape[:-1])
    nearest, closer = np.empty(best.shape, dtype=np.int64), np.empty(best.shape, dtype=np.int64)
    for h, codes in enumerate(sup.codes.T):
        counts = np.array(spec.counts[h])
        slots = np.arange(counts.max())
        # Row s holds class s's rows of G; slots past K_hs repeat its first
        # row, so they tie slot 0 and never win.
        own = spec.first_rows[h][:, None] + np.where(slots < counts[:, None], slots, 0)
        nearest.fill(0)
        for k in slots:
            gap = scores - np.take(np.take(centers, own[:, k], axis=-2), codes, axis=-2)
            np.square(gap, out=gap)
            out = dist if k else best
            np.copyto(out, gap[..., 0])
            for d in range(1, gap.shape[-1]):
                out += gap[..., d]
            if k:
                np.less(dist, best, out=closer)  # strict, so ties stay with the lower slot
                closer *= k
                np.maximum(nearest, closer, out=nearest)
                np.minimum(best, dist, out=best)
        clusters[..., h] = nearest
    return clusters


def repair_empty_clusters(
    assignment: HierarchicalAssignment,
    scores: np.ndarray,
    centers: np.ndarray,
) -> HierarchicalAssignment:
    """Fill each empty cluster, in natural (h, class, cluster) order, with
    the class member farthest from its current center, provided the donor
    cluster keeps at least one member (lowest observation index on ties).
    A donor always exists because cluster counts never exceed class sizes,
    and filling one cluster never empties another."""
    rows = np.array(assignment.rows)
    first = rows - assignment.clusters  # G row of cluster 0 of each class
    class_starts = np.concatenate(assignment.spec.first_rows)
    sizes = np.bincount(rows.ravel(), minlength=assignment.spec.k_total)
    for empty in np.flatnonzero(sizes == 0):
        start = class_starts[np.searchsorted(class_starts, empty, side="right") - 1]
        # G rows of different variables differ, so every match is in one column h.
        members, columns = np.nonzero(first == start)
        h = columns[0]
        local = rows[members, h]
        gap = scores[members] - centers[local]
        dist = np.einsum("id,id->i", gap, gap)
        dist[sizes[local] < 2] = -np.inf
        donor = int(dist.argmax())
        if not np.isfinite(dist[donor]):
            raise EmptyClusterError(f"no donor can fill cluster row {empty} of G")
        sizes[local[donor]] -= 1
        rows[members[donor], h] = empty
        sizes[empty] += 1
    return assignment.with_clusters(rows - first)


# Bytes of working arrays one chunk of starts may hold (``_chunk_size``):
# 34 starts at the size of acceptance criterion 10, one at N = 20 000.
_CHUNK_BYTES = int(3.6 * 2**20)


def _start_bytes(dataset: CategoricalDataset, spec: ClusterSpec, p: int) -> int:
    """One start's share of the engine's largest arrays: N x m count
    cells, three N x H arrays of rows (current, candidate and end), N x p
    scores, gathered centers and differences, two N-long distances, and
    three K x Q arrays (the count table, the factors, and a fresh count
    or copy of a block).  The assignment step's two N-long index arrays
    live only while no count cells do, so the sum covers them for m >= 2.

    Where variables pack (``CategoricalDataset.packed``), a count takes
    N x G cells, G < m, a K x W joint table and K_h x W bins; the N x m
    term still stands for them, so the chunk sizes do not depend on the
    packing.  A group of two or more variables has at most N / 64 joint
    codes, so its share of both fits in the N (m - G) cells packing saves
    while K <= 32; a lone variable's share is its K x q_j table columns."""
    n, m, n_sup = dataset.n_obs, dataset.n_vars, len(spec.counts)
    big_k, big_q = spec.k_total, dataset.total_categories
    return 8 * (n * (m + 3 * n_sup + 3 * p + 2) + 3 * big_k * big_q)


def _chunk_size(dataset: CategoricalDataset, spec: ClusterSpec, p: int) -> int:
    """Starts per chunk: as many as ``_CHUNK_BYTES`` holds, at least one."""
    return max(1, _CHUNK_BYTES // _start_bytes(dataset, spec, p))


class _StartEnd(NamedTuple):
    """Where one start ended: its N x H clusters, K x p centers, Q x p
    quantifications, K x Q count table and K sizes (each its own copy),
    its objective trace and whether it converged."""

    clusters: np.ndarray
    centers: np.ndarray
    quantifications: np.ndarray
    table: np.ndarray
    sizes: np.ndarray
    trace: tuple[float, ...]
    converged: bool


def _run_start(
    dataset: CategoricalDataset,
    sup: SupplementaryData,
    spec: ClusterSpec,
    options: SolverOptions,
    seeds: list[np.random.SeedSequence],
) -> list[_StartEnd]:
    """A chunk of starts, one per seed, driven to convergence together as
    one array program over stacked count tables, quantifications, scores
    and centers; one ``_StartEnd`` per seed, in seed order.

    Every start draws its initial clusters from its own seed (``spec``
    is already validated against ``sup``, once per fit) and then runs
    exactly the cycle it would run alone: each array operation gives
    a start the numpy call, shape and memory layout of a lone start, so
    its trace and result do not depend on the other starts of the chunk.

    A cycle forms B, the centers and the objective from the count table.
    A start leaves the stack there when its objective fell by less than
    ``epsilon`` or it reaches ``max_iter``; only the starts that go on get
    object scores and an assignment step.  A start whose rows come out of
    that step (and any repair) unchanged is at a fixed point and leaves
    too: the next cycle would rebuild the same table, B, centers and
    objective bit for bit and settle, so the start ends as that cycle
    would end it, converged, with its objective once more in its trace.

    The trace records the objective after each centering update, where
    the centers are exact for the current assignment, so it reads
    phi = p - psi / (N H m^2) from the cluster sizes and centers.  The
    final entry is replaced by the residual sum of the start's end, read
    from the count table its ``_StartEnd`` keeps (``_table_objective``, as
    ``objective_phi`` reads it), which uses neither the centering nor the
    normalization.  A start whose
    assignment step empties a cluster is repaired alone, and keeps its
    previous (feasible) assignment whenever the repair would have pushed
    the objective up, so the trace never increases beyond float jitter.
    """
    n_sup, p, max_iter = sup.n_sup, options.p, options.max_iter
    template = HierarchicalAssignment(
        sup=sup, spec=spec, clusters=np.zeros((sup.n_obs, n_sup), dtype=np.int64)
    )
    first = template.rows  # G row of cluster 0 of each observation's class
    # Each start's assignment is held as its N x H rows of G, first + clusters.
    rows = np.zeros((len(seeds), sup.n_obs, n_sup), dtype=np.int64)
    for seed, drawn in zip(seeds, rows):
        _draw_clusters(sup, spec, np.random.default_rng(seed), drawn)
    rows += first
    table, sizes = stacked_counts(rows, spec, dataset)
    traces: list[list[float]] = [[] for _ in seeds]
    ends: list[_StartEnd] = [None] * len(seeds)
    live = np.arange(len(seeds))  # chunk position of each start still running
    previous = np.full(len(seeds), np.inf)  # no start settles on its first cycle

    def finish(stop: np.ndarray, converged: np.ndarray) -> np.ndarray:
        for i in np.flatnonzero(stop):
            ends[live[i]] = _StartEnd(
                rows[i] - first, centers[i].copy(), quantifications[i].copy(),
                table[i].copy(), sizes[i].copy(), traces[live[i]], bool(converged[i]),
            )
        return ~stop

    for t in range(max_iter):
        quantifications = _between_quantify(table, sizes, dataset, n_sup, p)
        centers = _centroids(table, sizes, dataset, quantifications)
        spread = (sizes[..., None] * centers * centers).sum(axis=(1, 2))
        objective = p - spread / (dataset.n_obs * n_sup)
        for s, value in zip(live, objective.tolist()):
            traces[s].append(value)
        settled = previous - objective < options.epsilon
        stop = settled | (t == max_iter - 1)
        if stop.any():
            go = finish(stop, settled)
            live, rows, table, objective = live[go], rows[go], table[go], objective[go]
            centers, quantifications = centers[go], quantifications[go]
            if not live.size:  # filtered first, so the chunk's arrays are freed
                break
        scores = object_scores(dataset, quantifications)
        candidate = _nearest_clusters(scores, centers, sup, spec)
        candidate += first
        sizes = moved_counts(table, rows, candidate, spec, dataset)
        for s in np.flatnonzero((sizes == 0).any(axis=1)):
            kept = template.with_clusters(rows[s] - first)
            repaired = repair_empty_clusters(
                template.with_clusters(candidate[s] - first), scores[s], centers[s]
            )
            if objective_phi(repaired, centers[s], quantifications[s], dataset) <= objective_phi(
                kept, centers[s], quantifications[s], dataset
            ):
                kept = repaired
            # The table counts the candidate; move it to the rows kept.
            sizes[s] = moved_counts(
                table[s : s + 1], candidate[s : s + 1], kept.rows[None], spec, dataset
            )[0]
            candidate[s] = kept.rows
        del scores
        # Unmoved rows: the next cycle would repeat this one bit for bit and
        # settle, so the start ends as that cycle would end it.
        fixed = (candidate == rows).all(axis=(1, 2))
        if fixed.any():
            for i in np.flatnonzero(fixed):
                traces[live[i]].append(float(objective[i]))
            go = finish(fixed, fixed)
            live, candidate, table, sizes, objective = (
                live[go], candidate[go], table[go], sizes[go], objective[go]
            )
            if not live.size:
                break
        previous = objective
        rows = candidate
    finals = [
        _table_objective(end.table, end.centers, end.quantifications, dataset, n_sup)
        for end in ends
    ]
    return [end._replace(trace=(*end.trace[:-1], f)) for end, f in zip(ends, finals)]


def _ties(finals: Sequence[float]) -> np.ndarray:
    """Which starts' final objectives lie within ``WINNER_RTOL`` (relative)
    of the smallest."""
    finals = np.asarray(finals)
    low = finals.min()
    return finals <= low + WINNER_RTOL * abs(low)


def _contenders(finals: Sequence[float]) -> np.ndarray:
    """Which starts can still win once more starts have ended: those tied
    for the smallest final objective (``_ties``) whose objective is below
    that of every lower-indexed tie.

    The tie threshold only falls as starts are added, so a start outside
    the ties now stays outside, and a start with a lower-indexed tie at
    or below its objective is in no later tie without it, and loses to it.
    """
    finals = np.asarray(finals)
    ties = _ties(finals)
    lower = np.minimum.accumulate(np.where(ties, finals, np.inf))
    ties[1:] &= finals[1:] < lower[:-1]
    return ties


def fit_mscca(
    dataset: CategoricalDataset,
    sup: SupplementaryData,
    spec: ClusterSpec,
    options: SolverOptions = SolverOptions(),
) -> MsccaSolution:
    """Multistart alternating least squares fit.

    Runs ``options.n_starts`` independent initializations (each with its
    own random stream derived from ``options.seed`` and the start index)
    and returns the lowest-indexed start whose objective is within
    ``WINNER_RTOL`` (relative) of the smallest, so starts that reach the
    same optimum up to rounding do not hand the win to float noise.  The
    starts run in chunks (``_run_start``) whose size is set by a fixed
    memory budget; the result does not depend on it.  A start's final
    objective is ``objective_phi`` at its end, summed over the cells of
    its count table.  The returned
    (U, G, B) triple is mutually consistent: the centers and
    quantifications are the exact optimum for the returned assignment.
    """
    if dataset.n_obs != sup.n_obs:
        raise ShapeError("dataset and supplementary data disagree on N")
    spec.validate(sup)
    options.validate(dataset)
    seeds = np.random.SeedSequence(options.seed).spawn(options.n_starts)
    chunk = _chunk_size(dataset, spec, options.p)
    traces: list[tuple[float, ...]] = []
    contenders: dict[int, _StartEnd] = {}  # a start dropped here can never win
    for lo in range(0, options.n_starts, chunk):
        ends = _run_start(dataset, sup, spec, options, seeds[lo : lo + chunk])
        traces.extend(end.trace for end in ends)
        can_win = _contenders([trace[-1] for trace in traces])
        contenders = {index: end for index, end in contenders.items() if can_win[index]}
        contenders.update((lo + int(s), ends[s]) for s in np.flatnonzero(can_win[lo:]))
        del ends  # the other ends' arrays go before the next chunk's are made
    # the lowest-indexed tie has no lower-indexed tie, so it is the first contender
    best_index = int(np.argmax(can_win))
    best = contenders[best_index]
    return MsccaSolution(
        assignment=HierarchicalAssignment(sup=sup, spec=spec, clusters=best.clusters),
        centers=best.centers,
        quantifications=best.quantifications,
        table=best.table,
        sizes=best.sizes,
        objective=best.trace[-1],
        psi=float(dataset.n_vars**2 * (best.sizes[:, None] * best.centers * best.centers).sum()),
        objective_trace=best.trace,
        start_index=best_index,
        converged=best.converged,
        start_traces=tuple(traces),
        options=options,
    )


def fit_cluster_ca(
    dataset: CategoricalDataset,
    n_clusters: int,
    options: SolverOptions = SolverOptions(),
) -> MsccaSolution:
    """Joint clustering and quantification with one flat partition.

    Structurally this is the hierarchical fit with a single supplementary
    variable holding a single class, so the same engine runs it.  ``K = 1``
    is rejected: centering annihilates a lone cluster and the fit would be
    vacuous.
    """
    if not 2 <= n_clusters <= dataset.n_obs:
        raise SpecError(f"cluster count {n_clusters} outside [2, {dataset.n_obs}]")
    sup = SupplementaryData(
        codes=np.zeros((dataset.n_obs, 1), dtype=np.int64),
        labels=(("all",),),
        names=("cluster",),
    )
    spec = ClusterSpec(counts=((n_clusters,),))
    return fit_mscca(dataset, sup, spec, options)


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """Which linear row constraint to impose on the object scores.

    kind:
      - ``identity``: no constraint (plain multiple correspondence analysis)
      - ``projector-off``: class means removed from the scores
      - ``membership-projector``: scores projected onto a fixed hierarchical
        cluster assignment (the quantification step of the clustering fit);
        over ``HierarchicalAssignment.by_class(sup)`` each class is
        represented by its members' average
    """

    kind: str
    source: SupplementaryData | HierarchicalAssignment | None = None

    _KINDS = ("identity", "projector-off", "membership-projector")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise SpecError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "identity":
            if self.source is not None:
                raise SpecError("identity constraint takes no source")
        elif self.kind == "membership-projector":
            if not isinstance(self.source, HierarchicalAssignment):
                raise SpecError("membership-projector needs a HierarchicalAssignment")
        elif not isinstance(self.source, SupplementaryData):
            raise SpecError(f"{self.kind} needs SupplementaryData")


class ConstrainedFit(NamedTuple):
    """Result of a row-constrained quantification: the constrained object
    scores (NH x p, one block per supplementary variable), the
    quantifications, and the objective at them."""

    scores: np.ndarray
    quantifications: np.ndarray
    objective: float


def fit_constrained_mca(
    dataset: CategoricalDataset, cspec: ConstraintSpec, p: int
) -> ConstrainedFit:
    """Quantification under a linear row constraint on the object scores.

    Solves min (1/(N H m)) sum_j || C F - Z_j^H B_j ||^2 under the usual
    normalization, with C the projector implied by ``cspec``.  The
    identity kind reproduces plain multiple correspondence analysis.

    Every projector is onto the indicators of a partition (the source
    assignment, or one group per class), so the projected scores are the
    group means of the object scores.  ``membership-projector`` solves the
    clustering fit's B-step on the partition's count table
    (``_between_quantify``: a K x K problem, with its centered completion
    when K - H < p); every residual is then a center less a category's
    quantification, so the objective is summed per cell of that table
    (``_table_objective``).  ``identity`` and ``projector-off`` solve the
    Q x Q problem on the centered Burt matrix, less the partition's
    between-group cross-product for removal; at the solution the residual
    sum is p less the top p eigenvalues (``_quantify``), whichever of
    tied eigenvectors is taken.  That solve peaks at about 2.5 Q x Q
    arrays of doubles; when those bytes exceed the machine's physical
    memory (``_memory_budget``), ``MemoryError`` is raised before any of
    them is made.
    """
    kind, source = cspec.kind, cspec.source
    if source is not None and source.n_obs != dataset.n_obs:
        raise ShapeError("constraint source disagrees with the dataset on N")
    partition = HierarchicalAssignment.by_class(source) if kind == "projector-off" else source
    n_stack = 1 if partition is None else partition.n_sup
    if partition is not None:
        try:
            table, sizes = cluster_counts(partition, dataset)
        except EmptyClusterError as exc:
            raise ProjectorError(
                "assignment has empty clusters; projector is rank deficient"
            ) from exc
    SolverOptions(p=p).validate(dataset)

    if kind == "membership-projector":  # constant on each cell of the table
        quantifications = _between_quantify(table, sizes, dataset, n_stack, p)
        means = _centroids(table, sizes, dataset, quantifications)
        objective = _table_objective(table, means, quantifications, dataset, n_stack)
        return ConstrainedFit(means[partition.rows.T].reshape(-1, p), quantifications, objective)
    _check_solve_budget(dataset)
    target = _centered_burt(dataset, n_stack)
    if kind == "projector-off":
        _subtract_between(target, table, sizes, dataset)
    quantifications, values = _quantify(target, dataset, n_stack, p)
    scores = object_scores(dataset, quantifications)  # (1/m) J Z B, one block
    if kind == "projector-off":
        means = _centroids(table, sizes, dataset, quantifications)
        blocks = means[partition.rows.T]  # H x N x p: each observation's class means
        scores = np.subtract(scores, blocks, out=blocks).reshape(-1, p)
    return ConstrainedFit(scores, quantifications, float(p - values.sum()))
