"""Alternating least squares for joint class-specific clustering and
category quantification, plus the row-constrained quantification variants.

The minimized objective is, over all variables j and supplementary
variables h,

    phi = (1/(N H m)) * sum_j sum_h || U_h G_h - Z_j B_j ||^2

subject to the quantification normalization
(1/(N H m)) sum_j B_j' Z_j^H' Z_j^H B_j = I_p and centered cluster scores.
Each cycle refreshes the quantifications B (an eigenproblem on the
mass-scaled between-cluster cross-product), recenters G, and reassigns
observations to their nearest center inside their own class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import (
    CategoricalDataset,
    ClusterSpec,
    HierarchicalAssignment,
    IndicatorView,
    SupplementaryData,
    cluster_counts,
    stacked_indicators,
)
from .errors import EmptyClusterError, ProjectorError, ShapeError, SpecError
from .linalg import mass_scale, sym_eig_top

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

    def validate(self, view: IndicatorView | None = None) -> None:
        if self.p < 1:
            raise SpecError("p must be >= 1")
        if self.n_starts < 1:
            raise SpecError("n_starts must be >= 1")
        if self.max_iter < 1:
            raise SpecError("max_iter must be >= 1")
        if not self.epsilon > 0:
            raise SpecError("epsilon must be positive")
        if view is not None:
            bound = view.total_categories - view.n_vars
            if self.p > bound:
                raise SpecError(
                    f"p={self.p} exceeds the rank bound Q - m = {bound} of the centered indicators"
                )


@dataclass(frozen=True)
class MsccaSolution:
    """A converged fit: assignment, centers, quantifications, diagnostics.

    ``centers`` stacks the per-variable center blocks G_h in the natural
    (h, class, cluster) order, matching the rows of ``cluster_counts``.
    ``objective_trace`` holds the winning start's objective after each
    centering update; ``start_traces`` keeps every start's trace so
    monotonicity can be audited across the whole multistart.
    """

    assignment: HierarchicalAssignment
    centers: np.ndarray
    quantifications: np.ndarray
    objective: float
    psi: float
    objective_trace: tuple[float, ...]
    start_index: int
    converged: bool
    start_traces: tuple[tuple[float, ...], ...]
    options: SolverOptions


def object_scores(view: IndicatorView, quantifications: np.ndarray) -> np.ndarray:
    """Mean object scores: one replicate block of J Z^H B divided by the
    variable count, i.e. (1/m) * centered(Z B).  Rows i and i + N of the
    stacked version are identical, so one block carries everything."""
    codes = view.dataset.codes
    scores = np.zeros((view.n_obs, quantifications.shape[1]))
    for j in range(view.n_vars):
        scores += quantifications[view.offsets[j] + codes[:, j]]
    scores -= view.column_means @ quantifications
    return scores / view.n_vars


def objective_phi(
    assignment: HierarchicalAssignment,
    centers: np.ndarray,
    quantifications: np.ndarray,
    view: IndicatorView,
) -> float:
    """Direct evaluation of the objective at (U, G, B).

    Sums the squared residuals || U_h G_h - Z_j B_j ||^2 over every
    (variable, supplementary variable) pair and scales by 1/(N H m).
    """
    blocks = [centers[assignment.rows[:, h]] for h in range(assignment.n_sup)]
    return _direct_objective(blocks, quantifications, view)


def _direct_objective(
    blocks: list[np.ndarray], quantifications: np.ndarray, view: IndicatorView
) -> float:
    """(1/(N H m)) sum_j sum_h || blocks[h] - Z_j B_j ||^2 for H per-h
    N x p score blocks, one variable's quantified rows at a time."""
    codes = view.dataset.codes
    total = 0.0
    for j in range(view.n_vars):
        fitted = quantifications[view.offsets[j] + codes[:, j]]
        for block in blocks:
            diff = block - fitted
            total += float(np.einsum("ij,ij->", diff, diff))
    return total / (view.n_obs * len(blocks) * view.n_vars)


def psi_value(
    assignment: HierarchicalAssignment,
    quantifications: np.ndarray,
    view: IndicatorView,
) -> float:
    """The maximization-form value tr B' Z^H' J U (U'U)^-1 U' J Z^H B.

    Computed from the count table as the size-weighted squared norms of
    the per-cluster means of the centered scores Z_c B (m times the
    centers); raises
    ``EmptyClusterError`` when a cluster has no members (singular U'U).
    """
    table, sizes = cluster_counts(assignment, view)
    centers = _centroids(table, sizes, view, quantifications)
    return float(view.n_vars**2 * (sizes[:, None] * centers * centers).sum())


def init_random(
    sup: SupplementaryData, spec: ClusterSpec, rng: np.random.Generator
) -> HierarchicalAssignment:
    """Random initial clusters inside each class.

    The first K_hs members (in a random permutation) seed the K_hs
    clusters so none starts empty; the rest draw uniformly.
    """
    spec.validate(sup)
    clusters = np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64)
    for h in range(sup.n_sup):
        for s in range(sup.r[h]):
            members = sup.members(h, s)
            k = spec.k_of(h, s)
            perm = rng.permutation(members)
            clusters[perm[:k], h] = np.arange(k)
            if perm.size > k:
                clusters[perm[k:], h] = rng.integers(0, k, size=perm.size - k)
    return HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


def update_B(
    assignment: HierarchicalAssignment, view: IndicatorView, p: int
) -> np.ndarray:
    """Refresh the category quantifications for a fixed assignment.

    B is sqrt(N H m) D^{-1/2} times the top-p eigenvectors of the
    mass-scaled between-cluster cross-product

        (1/m) D^{-1/2} Z^H' J P_U J Z^H D^{-1/2},

    which satisfies the normalization constraint by construction.  The
    scaling uses the stacked masses D (category counts times H), so the
    constraint (1/(N H m)) sum_j B_j' Z_j^H' Z_j^H B_j = I_p holds for
    every H, not only the single-set case.
    """
    table, sizes = cluster_counts(assignment, view)
    return _quantify(_between_target(table, sizes, assignment.spec, view), view, p)


def _between_target(
    table: np.ndarray, sizes: np.ndarray, spec: ClusterSpec, view: IndicatorView
) -> np.ndarray:
    """Z^H' J P_U J Z^H from the count table: the sum over the
    supplementary variables of the between-group cross-product of that
    variable's block of rows."""
    mu = view.column_means
    target = np.zeros((view.total_categories, view.total_categories))
    bounds = np.cumsum((0, *spec.k_per_variable))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        centered = table[lo:hi] - sizes[lo:hi, None] * mu[None, :]
        target += centered.T @ (centered / sizes[lo:hi, None])
    return target


def _quantify(target: np.ndarray, view: IndicatorView, p: int) -> np.ndarray:
    """sqrt(N H m) D^{-1/2} times the top-p eigenvectors of
    (1/m) D^{-1/2} target D^{-1/2}, with H the view's stacking count."""
    n, m = view.n_obs, view.n_vars
    d = view.d_masses.astype(float)
    d_isqrt = 1.0 / np.sqrt(d)
    scaled = (target * d_isqrt[:, None] * d_isqrt[None, :]) / m
    eig = sym_eig_top(scaled, p)
    return float(np.sqrt(n * view.n_stack * m)) * mass_scale(eig.vectors, d, -0.5, side="left")


def _centroids(
    table: np.ndarray, sizes: np.ndarray, view: IndicatorView, quantifications: np.ndarray
) -> np.ndarray:
    """Per-cluster means of the object scores, stacked over h: the row
    profiles of the count table, centered by the category means, times
    B / m."""
    return (table / sizes[:, None] - view.column_means) @ quantifications / view.n_vars


def update_G(
    assignment: HierarchicalAssignment, view: IndicatorView, quantifications: np.ndarray
) -> np.ndarray:
    """Recenter: each row of G becomes the mean object score of its
    cluster's members (the closed-form optimum for a fixed assignment)."""
    return _centroids(*cluster_counts(assignment, view), view, quantifications)


def update_U(
    scores: np.ndarray,
    centers: np.ndarray,
    sup: SupplementaryData,
    spec: ClusterSpec,
) -> HierarchicalAssignment:
    """Assign every observation to its nearest center inside its observed
    class; ties break toward the lowest cluster index.  Empty clusters may
    result and are repaired separately."""
    clusters = np.zeros((sup.n_obs, sup.n_sup), dtype=np.int64)
    for h in range(sup.n_sup):
        counts = np.array(spec.counts[h])
        slots = np.arange(counts.max())
        # Row s holds class s's centers; slots past K_hs repeat its first
        # center and are masked to +inf, so argmin ties still go to the
        # lowest cluster.
        padded = slots >= counts[:, None]
        own = centers[spec.first_rows[h][:, None] + np.where(padded, 0, slots)]
        codes = sup.codes[:, h]
        diff = scores[:, None, :] - own[codes]
        d2 = np.einsum("ikd,ikd->ik", diff, diff)
        d2[padded[codes]] = np.inf
        clusters[:, h] = d2.argmin(axis=1)
    return HierarchicalAssignment(sup=sup, spec=spec, clusters=clusters)


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


class _StartResult(NamedTuple):
    assignment: HierarchicalAssignment
    centers: np.ndarray
    quantifications: np.ndarray
    trace: tuple[float, ...]
    converged: bool


def _run_start(
    view: IndicatorView,
    sup: SupplementaryData,
    spec: ClusterSpec,
    options: SolverOptions,
    rng: np.random.Generator,
) -> _StartResult:
    """One initialization driven to convergence.

    The trace records the objective after each centering update, where
    the centers are exact for the current assignment; the assignment step
    keeps the previous (feasible) assignment whenever an empty-cluster
    repair would have pushed the objective up, so the trace never
    increases beyond float jitter.
    """
    assignment = init_random(sup, spec, rng)
    table, sizes = cluster_counts(assignment, view)
    trace: list[float] = []
    converged = False
    centers = quantifications = None
    for t in range(options.max_iter):
        quantifications = _quantify(_between_target(table, sizes, spec, view), view, options.p)
        scores = object_scores(view, quantifications)
        centers = _centroids(table, sizes, view, quantifications)
        phi = objective_phi(assignment, centers, quantifications, view)
        trace.append(phi)
        if t > 0 and trace[-2] - trace[-1] < options.epsilon:
            converged = True
            break
        if t == options.max_iter - 1:
            break
        candidate = update_U(scores, centers, sup, spec)
        try:
            table, sizes = cluster_counts(candidate, view)
            assignment = candidate
        except EmptyClusterError:
            repaired = repair_empty_clusters(candidate, scores, centers)
            if objective_phi(repaired, centers, quantifications, view) <= phi:
                assignment = repaired
                table, sizes = cluster_counts(assignment, view)
    return _StartResult(
        assignment=assignment,
        centers=centers,
        quantifications=quantifications,
        trace=tuple(trace),
        converged=converged,
    )


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
    returned (U, G, B) triple is mutually consistent: the centers and
    quantifications are the exact optimum for the returned assignment.
    """
    if dataset.n_obs != sup.n_obs:
        raise ShapeError("dataset and supplementary data disagree on N")
    spec.validate(sup)
    view = stacked_indicators(dataset, sup.n_sup)
    options.validate(view)
    seeds = np.random.SeedSequence(options.seed).spawn(options.n_starts)
    # Starts within WINNER_RTOL of the running minimum; objectives are
    # nonnegative, so a start dropped here can never tie the final minimum.
    tied: list[tuple[int, _StartResult]] = []
    traces: list[tuple[float, ...]] = []
    for index, seed in enumerate(seeds):
        result = _run_start(view, sup, spec, options, np.random.default_rng(seed))
        traces.append(result.trace)
        tied.append((index, result))
        low = min(r.trace[-1] for _, r in tied)
        tied = [(i, r) for i, r in tied if r.trace[-1] <= low + WINNER_RTOL * abs(low)]
    best_index, best = tied[0]
    return MsccaSolution(
        assignment=best.assignment,
        centers=best.centers,
        quantifications=best.quantifications,
        objective=best.trace[-1],
        psi=psi_value(best.assignment, best.quantifications, view),
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


@dataclass(frozen=True)
class ConstraintSpec:
    """Which linear row constraint to impose on the object scores.

    kind:
      - ``identity``: no constraint (plain multiple correspondence analysis)
      - ``projector-on``: scores projected onto class indicators (each class
        represented by its members' average)
      - ``projector-off``: class means removed from the scores
      - ``membership-projector``: scores projected onto a fixed hierarchical
        cluster assignment (the quantification step of the clustering fit)
    """

    kind: str
    source: SupplementaryData | HierarchicalAssignment | None = None

    _KINDS = ("identity", "projector-on", "projector-off", "membership-projector")

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
    quantifications, and the directly evaluated objective."""

    scores: np.ndarray
    quantifications: np.ndarray
    objective: float


def fit_constrained_mca(
    dataset: CategoricalDataset, cspec: ConstraintSpec, p: int
) -> ConstrainedFit:
    """Quantification under a linear row constraint on the object scores.

    Solves min (1/(N H m)) sum_j || C F - Z_j^H B_j ||^2 under the usual
    normalization, with C the projector implied by ``cspec``.  The
    identity kind reproduces plain multiple correspondence analysis; the
    reported objective is evaluated directly from the residuals.

    Every projector is onto the indicators of a partition (the source
    assignment, or one group per class), so the eigenproblem target is the
    partition's between-group cross-product from its count table, or the
    centered Burt matrix minus it for ``projector-off``; the projected
    scores are the group means of the object scores.
    """
    kind, source = cspec.kind, cspec.source
    if source is not None and source.n_obs != dataset.n_obs:
        raise ShapeError("constraint source disagrees with the dataset on N")
    partition = None
    if kind == "membership-projector":
        partition = source
    elif kind != "identity":
        partition = HierarchicalAssignment.by_class(source)
    n_stack = 1 if partition is None else partition.n_sup
    view = stacked_indicators(dataset, n_stack)
    if partition is not None:
        try:
            table, sizes = cluster_counts(partition, view)
        except EmptyClusterError as exc:
            raise ProjectorError(
                "assignment has empty clusters; projector is rank deficient"
            ) from exc
    bound = view.total_categories - view.n_vars
    if not 1 <= p <= bound:
        raise SpecError(f"p={p} outside [1, {bound}]")
    n, m, big_q = view.n_obs, view.n_vars, view.total_categories

    if kind in ("identity", "projector-off"):
        # Z^H' J Z^H = H (Z'Z - N mu mu'), with the Burt matrix Z'Z counted
        # one variable's rows at a time.
        cols = dataset.codes + view.offsets
        burt = np.zeros(big_q * big_q, dtype=np.int64)
        for j in range(m):
            burt += np.bincount((cols[:, j, None] * big_q + cols).ravel(), minlength=big_q**2)
        mu = view.column_means
        target = n_stack * (burt.reshape(big_q, big_q) - n * np.outer(mu, mu))
    if partition is not None:
        between = _between_target(table, sizes, partition.spec, view)
        target = target - between if kind == "projector-off" else between
    quantifications = _quantify(target, view, p)

    scores = object_scores(view, quantifications)  # (1/m) J Z B, one block
    blocks = [scores]
    if partition is not None:
        means = _centroids(table, sizes, view, quantifications)
        blocks = [means[partition.rows[:, h]] for h in range(n_stack)]
        if kind == "projector-off":
            blocks = [scores - block for block in blocks]
    return ConstrainedFit(
        scores=np.concatenate(blocks),
        quantifications=quantifications,
        objective=_direct_objective(blocks, quantifications, view),
    )
