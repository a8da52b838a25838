"""Evaluation and model-selection measures: adjusted Rand index,
congruence (goodness-of-fit) coefficient, and the Krzanowski-Lai rule
for choosing cluster counts."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb
from typing import Hashable, Sequence

import numpy as np

from .data import CategoricalDataset, HierarchicalAssignment, SupplementaryData, cluster_counts
from .errors import DegenerateGeometryError, ShapeError, SpecError

# A partition is any equal-length sequence of hashable cluster ids; the ids
# themselves carry no meaning beyond equality.
Partition = Sequence[Hashable]


def adjusted_rand_index(a: Partition, b: Partition) -> float:
    """Chance-corrected pair-counting agreement between two partitions.

    Returns 1 exactly when the partitions coincide up to relabeling, and
    is symmetric in its arguments.  Degenerate comparisons whose chance
    correction vanishes (for example two all-singleton partitions) return
    1 since the partitions then agree on every pair.
    """
    if len(a) != len(b):
        raise ShapeError(f"partitions have lengths {len(a)} and {len(b)}")
    n = len(a)
    if n < 2:
        raise ShapeError("need at least two elements to compare partitions")
    table: dict[tuple[Hashable, Hashable], int] = {}
    count_a: dict[Hashable, int] = {}
    count_b: dict[Hashable, int] = {}
    for x, y in zip(a, b):
        table[(x, y)] = table.get((x, y), 0) + 1
        count_a[x] = count_a.get(x, 0) + 1
        count_b[y] = count_b.get(y, 0) + 1
    same_both = sum(comb(v, 2) for v in table.values())
    same_a = sum(comb(v, 2) for v in count_a.values())
    same_b = sum(comb(v, 2) for v in count_b.values())
    expected = same_a * same_b / comb(n, 2)
    top = same_both - expected
    bottom = 0.5 * (same_a + same_b) - expected
    if bottom == 0.0:
        return 1.0
    return top / bottom


def goodness_of_fit(y: np.ndarray, h: np.ndarray) -> float:
    """Squared congruence of two configurations:
    tr^2(Y'H) / (tr(Y'Y) tr(H'H)), in [0, 1], invariant to rescaling."""
    y = np.asarray(y, dtype=float)
    h = np.asarray(h, dtype=float)
    if y.shape != h.shape:
        raise ShapeError(f"configurations differ in shape: {y.shape} vs {h.shape}")
    yy = float(np.einsum("ij,ij->", y, y))
    hh = float(np.einsum("ij,ij->", h, h))
    if yy == 0.0 or hh == 0.0:
        raise DegenerateGeometryError("an all-zero configuration has no direction")
    yh = float(np.einsum("ij,ij->", y, h))
    return yh * yh / (yy * hh)


def _match_clusters(fitted: np.ndarray, true: np.ndarray, k: int) -> tuple[int, ...]:
    """Fitted cluster paired with each true cluster of one class: the
    permutation with the largest total member overlap, ties going to the
    lexicographically lowest permutation."""
    overlap = np.zeros((k, k), dtype=np.int64)
    np.add.at(overlap, (true, fitted), 1)
    rows = np.arange(k)
    return max(permutations(range(k)), key=lambda perm: overlap[rows, perm].sum())


def gf_against_truth(
    solution,
    true_assignment: HierarchicalAssignment,
    dataset: CategoricalDataset,
) -> float:
    """Congruence between the true standardized residual table and the
    fitted rank-p reconstruction.

    Both sides live in standardized-deviation units: the reconstruction
    G B' is scaled by the square-root masses of the true table, so an
    exact-recovery full-rank fit scores 1.  Fitted cluster labels inside
    a class are arbitrary, so within each class the fitted clusters are
    paired with the true ones by the largest total member overlap and the
    center rows are permuted to the true order.  This requires the fitted
    cluster counts to match the true ones.
    """
    from .biplot import contingency, standardized_residuals

    fitted = solution.assignment
    if fitted.spec.counts != true_assignment.spec.counts:
        raise ShapeError("fitted and true cluster counts differ; rows cannot align")
    sup, spec = true_assignment.sup, true_assignment.spec
    order: list[int] = []
    for h in range(sup.n_sup):
        for s in range(sup.r[h]):
            members = sup.members(h, s)
            perm = _match_clusters(
                fitted.clusters[members, h], true_assignment.clusters[members, h], spec.k_of(h, s)
            )
            base = len(order)
            order.extend(base + c for c in perm)
    counts = cluster_counts(true_assignment, dataset)
    truth = standardized_residuals(contingency(true_assignment, dataset, counts, order="natural"))
    recon = solution.centers[order] @ solution.quantifications.T
    scaled = (
        np.sqrt(truth.row_masses)[:, None] * recon * np.sqrt(truth.col_masses)[None, :]
    )
    return goodness_of_fit(truth.residuals, scaled)


@dataclass(frozen=True)
class KlCurve:
    """Within-dispersion values over consecutive cluster counts.

    ``w_values[i]`` is the dispersion at ``k_values[i]`` (for these fits,
    N * H * m times the objective at the multistart optimum).  ``nu`` is
    the effective dimensionality in the index exponent; distances live in
    the p-dimensional quantified space, so ``select_k_per_class`` uses
    ``nu = p``.
    """

    k_values: tuple[int, ...]
    w_values: tuple[float, ...]
    nu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "w_values", tuple(float(w) for w in self.w_values))
        if len(self.k_values) != len(self.w_values):
            raise ShapeError("k_values and w_values differ in length")
        for a, b in zip(self.k_values, self.k_values[1:]):
            if b != a + 1:
                raise SpecError("k_values must be consecutive and ascending")
        if any(w <= 0 for w in self.w_values):
            raise SpecError("dispersion values must be positive")
        if not self.nu > 0:
            raise SpecError("nu must be positive")


def kl_select(curve: KlCurve) -> int:
    """Pick the cluster count maximizing the Krzanowski-Lai ratio.

    DIFF(K) = (K-1)^{2/nu} W_{K-1} - K^{2/nu} W_K and
    KL(K) = |DIFF(K)| / |DIFF(K+1)|; the interior K with the largest
    ratio wins, ties going to the smaller K.  The function is total: a
    curve with no elbow still returns the argmax.
    """
    if len(curve.k_values) < 4:
        raise SpecError("need at least four consecutive K values (K-1, K, K+1 terms)")
    k = np.array(curve.k_values, dtype=float)
    w = np.array(curve.w_values, dtype=float)
    e = 2.0 / curve.nu
    diff = k[:-1] ** e * w[:-1] - k[1:] ** e * w[1:]  # DIFF at k_values[1:]
    num = np.abs(diff[:-1])
    den = np.abs(diff[1:])
    ratio = np.where(
        den > 0, num / np.where(den > 0, den, 1.0), np.where(num > 0, np.inf, 0.0)
    )
    return int(curve.k_values[1 + int(ratio.argmax())])


@dataclass(frozen=True)
class ClassSelection:
    """Chosen cluster count for one class, with its selection curve."""

    chosen: int
    curve: KlCurve


def select_k_per_class(
    dataset: CategoricalDataset,
    sup: SupplementaryData,
    k_max: int,
    options=None,
) -> dict[tuple[int, int], ClassSelection]:
    """Per-class cluster counts via flat cluster fits on class-restricted data.

    For every class of every supplementary variable, the class's rows are
    refit with K = 2..k_max clusters and the dispersion curve (including
    the exact K = 1 value, N_class * m * p, where the objective is p by
    the normalization) feeds the Krzanowski-Lai rule.  A ``k_max`` larger
    than some class raises ``SpecError`` before any fit runs.
    """
    from .solver import SolverOptions, fit_cluster_ca

    if options is None:
        options = SolverOptions()
    if k_max < 4:
        raise SpecError("k_max must be at least 4 for the selection rule")
    for h in range(sup.n_sup):
        for s, size in enumerate(sup.class_sizes(h)):
            if k_max > size:
                raise SpecError(
                    f"k_max={k_max} exceeds the {size} members of class "
                    f"{sup.labels[h][s]!r} of {sup.names[h]!r}"
                )
    out: dict[tuple[int, int], ClassSelection] = {}
    for h in range(sup.n_sup):
        for s in range(sup.r[h]):
            members = sup.members(h, s)
            sub = dataset.subset(members)
            n_c, m = sub.n_obs, sub.n_vars
            w = [n_c * m * float(options.p)]
            for k in range(2, k_max + 1):
                fit = fit_cluster_ca(sub, k, options)
                w.append(n_c * m * fit.objective)
            curve = KlCurve(
                k_values=tuple(range(1, k_max + 1)), w_values=tuple(w), nu=float(options.p)
            )
            out[(h, s)] = ClassSelection(chosen=kl_select(curve), curve=curve)
    return out
