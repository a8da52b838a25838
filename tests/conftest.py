"""Shared builders for randomized sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from mscca import (
    CategoricalDataset,
    ClusterSpec,
    HierarchicalAssignment,
    IndicatorView,
    SupplementaryData,
)


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


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles between the column spaces of two full-column-rank matrices."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sing = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sing, -1.0, 1.0))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
