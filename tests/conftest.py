"""Shared builders for randomized sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from mscca import (
    CategoricalDataset,
    ClusterSpec,
    ConstraintSpec,
    HierarchicalAssignment,
    IndicatorView,
    SupplementaryData,
    stacked_indicators,
)
from mscca.errors import ProjectorError, ShapeError, SpecError
from mscca.linalg import sym_eig_top
from mscca.solver import ConstrainedFit


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


def z_var(view: IndicatorView, j: int) -> np.ndarray:
    """Z_j as a dense N x q_j 0/1 matrix."""
    z = np.zeros((view.n_obs, view.dataset.q[j]))
    z[np.arange(view.n_obs), view.dataset.codes[:, j]] = 1.0
    return z


def z_var_stacked(view: IndicatorView, j: int) -> np.ndarray:
    """Z_j^H: H vertically stacked copies of Z_j."""
    return np.tile(z_var(view, j), (view.n_stack, 1))


def z_full_stacked(view: IndicatorView) -> np.ndarray:
    """Z^H: the NH x Q stack of the concatenated indicator."""
    return np.tile(view.z_full, (view.n_stack, 1))


def z_centered(view: IndicatorView) -> np.ndarray:
    """Column-centered Z (each replicate block of J Z^H equals this)."""
    z = view.z_full
    return z - z.mean(axis=0, keepdims=True)


def stacked_indicator(assignment: HierarchicalAssignment) -> np.ndarray:
    """The NH x K block-diagonal stacked indicator."""
    blocks = [assignment.indicator(h) for h in range(assignment.n_sup)]
    n, k = assignment.n_obs, assignment.spec.k_total
    u = np.zeros((n * assignment.n_sup, k))
    col = 0
    for h, block in enumerate(blocks):
        u[h * n : (h + 1) * n, col : col + block.shape[1]] = block
        col += block.shape[1]
    return u


def _constraint_basis(cspec: ConstraintSpec, n_obs: int) -> tuple[np.ndarray | None, int]:
    """Dense column basis W of the projector (or None for identity), plus
    the stacking count H implied by the source."""
    if cspec.kind == "identity":
        return None, 1
    if cspec.kind == "membership-projector":
        assignment = cspec.source
        sizes = np.concatenate(
            [assignment.cluster_sizes(h) for h in range(assignment.n_sup)]
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
    view = stacked_indicators(dataset, n_stack)
    bound = view.total_categories - view.n_vars
    if not 1 <= p <= bound:
        raise SpecError(f"p={p} outside [1, {bound}]")
    n, m = view.n_obs, view.n_vars
    zc = z_centered(view)
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

    d = view.d_masses.astype(float)
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
    codes = view.dataset.codes
    for j in range(m):
        rows = quantifications[view.offsets[j] + codes[:, j]]
        diff = scores - np.tile(rows, (n_stack, 1))
        total += float(np.einsum("ij,ij->", diff, diff))
    return ConstrainedFit(
        scores=scores,
        quantifications=quantifications,
        objective=total / (n * n_stack * m),
    )


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles between the column spaces of two full-column-rank matrices."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sing = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sing, -1.0, 1.0))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
