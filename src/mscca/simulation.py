"""Synthetic data generation and the factorial study harness.

The clustered generator plants one high-probability category per
(active variable, cluster); the remaining categories share the leftover
probability in random proportions.  Noise variables draw uniformly.
Supplementary variables are generated independently of the clusters,
either balanced or with probabilities proportional to the class index.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import (
    CategoricalDataset,
    ClusterSpec,
    HierarchicalAssignment,
    SupplementaryData,
)
from .errors import ConfigError, MsccaError, SpecError
from .metrics import adjusted_rand_index, gf_against_truth
from .solver import SolverOptions, fit_mscca


@dataclass(frozen=True)
class GenSpec:
    """Clustered categorical data: N observations, m variables with q
    categories each, K planted clusters.

    ``active_ratio`` is the fraction of variables tied to the clusters
    (floor(m * ratio) of them, the rest pure noise); ``high_prob`` is the
    probability of a cluster's own category on an active variable.
    """

    q: int
    k: int
    n_obs: int = 300
    n_vars: int = 10
    high_prob: float = 0.8
    active_ratio: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.high_prob <= 1.0:
            raise SpecError("high_prob must lie in (0, 1]")
        if self.q < 2:
            raise SpecError("q must be at least 2")
        if self.k < 1:
            raise SpecError("K must be at least 1")
        if not 0.0 <= self.active_ratio <= 1.0:
            raise SpecError("active_ratio must lie in [0, 1]")
        if self.n_active > 0 and self.q < self.k:
            raise SpecError(f"q={self.q} < K={self.k}: distinct signal categories are impossible")
        if self.seed < 0:
            raise SpecError("seed must be >= 0")

    @property
    def n_active(self) -> int:
        return int(self.n_vars * self.active_ratio)


def signal_distributions(
    rng: np.random.Generator, q: int, k: int, high_prob: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster category distributions for one active variable.

    Returns the cluster-specific signal categories (distinct across the K
    clusters) and a K x q probability matrix: the signal category carries
    ``high_prob`` and the remaining categories share exactly
    ``1 - high_prob`` in uniformly drawn random proportions.
    """
    if q < k:
        raise SpecError(f"q={q} < K={k}: distinct signal categories are impossible")
    signal = rng.choice(q, size=k, replace=False)
    probs = np.zeros((k, q))
    for c in range(k):
        low = rng.uniform(0.0, 1.0 - high_prob, size=q - 1)
        total = low.sum()
        if total == 0.0:
            low = np.full(q - 1, 1.0)
            total = float(q - 1)
        low = (1.0 - high_prob) * low / total
        row = np.empty(q)
        others = np.setdiff1d(np.arange(q), [signal[c]])
        row[others] = low
        row[signal[c]] = high_prob
        probs[c] = row
    return signal, probs


def generate_clustered(spec: GenSpec) -> tuple[CategoricalDataset, np.ndarray]:
    """Draw a dataset and its planted cluster allocation.

    Cluster labels come from a uniform multinomial.  Active variables use
    ``signal_distributions``; noise variables draw uniformly over the q
    categories.  Categories that happen never to be drawn are dropped at
    encoding.
    """
    rng = np.random.default_rng(spec.seed)
    n, m, q, k = spec.n_obs, spec.n_vars, spec.q, spec.k
    truth = rng.integers(0, k, size=n)
    codes = np.empty((m, n), dtype=np.int64)  # the containers' layout, a row per variable
    for j in range(spec.n_active):
        _signal, probs = signal_distributions(rng, q, k, spec.high_prob)
        cumulative = probs.cumsum(axis=1)
        u = rng.random(n)
        codes[j] = (u[:, None] > cumulative[truth]).sum(axis=1)
    for j in range(spec.n_active, m):
        codes[j] = rng.integers(0, q, size=n)
    labels = tuple(tuple(f"c{x + 1}" for x in range(q)) for _ in range(m))
    names = tuple(f"v{j + 1}" for j in range(m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # synthetic labels, drops are routine
        dataset = CategoricalDataset.from_codes(codes.T, labels, names)
    return dataset, truth


@dataclass(frozen=True)
class SupGenSpec:
    """Supplementary class memberships, independent of any cluster truth.

    Balanced classes are equiprobable; unbalanced ones have probability
    proportional to the class number (1/S, ..., r/S with S = r(r+1)/2).
    """

    n_sup: int
    r: int
    balance: str = "balanced"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sup < 1:
            raise SpecError("need at least one supplementary variable")
        if self.r < 2:
            raise SpecError("classes per supplementary variable must be >= 2")
        if self.balance not in ("balanced", "unbalanced"):
            raise SpecError(f"balance must be 'balanced' or 'unbalanced', got {self.balance!r}")
        if self.seed < 0:
            raise SpecError("seed must be >= 0")


def class_probabilities(r: int, balance: str) -> np.ndarray:
    """Class probabilities: 1/r each when balanced, s/S (s = 1..r,
    S = r(r+1)/2) when unbalanced."""
    if balance == "balanced":
        return np.full(r, 1.0 / r)
    weights = np.arange(1, r + 1, dtype=float)
    return weights / weights.sum()


def generate_supplementary(spec: SupGenSpec, n_obs: int) -> SupplementaryData:
    """Draw class memberships for every supplementary variable."""
    rng = np.random.default_rng(spec.seed)
    r = spec.r
    cumulative = class_probabilities(r, spec.balance).cumsum()
    codes = np.empty((spec.n_sup, n_obs), dtype=np.int64)  # a row per variable, as stored
    for h in range(spec.n_sup):
        u = rng.random(n_obs)
        codes[h] = (u[:, None] > cumulative[None, :]).sum(axis=1)
    labels = tuple(tuple(f"c{s + 1}" for s in range(r)) for _ in range(spec.n_sup))
    names = tuple(f"s{h + 1}" for h in range(spec.n_sup))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # synthetic labels, drops are routine
        return SupplementaryData.from_codes(codes.T, labels, names)


# Illustration composition: (cluster, nationality, gender, member count).
# The alcohol cluster is small and sits entirely inside American males;
# males lean toward the Asian-meal/tea cluster so the class average is
# dominated by that contrast rather than by alcohol.
_ILLUSTRATION_CELLS = (
    ("WJ", "American", "Male", 10),
    ("WJ", "American", "Female", 70),
    ("WJ", "Japanese", "Male", 8),
    ("WJ", "Japanese", "Female", 20),
    ("AT", "Japanese", "Male", 70),
    ("AT", "Japanese", "Female", 10),
    ("WA", "American", "Male", 12),
)

_ILLUSTRATION_SIGNATURES = {
    "WJ": ("Western", "Fruit juice"),
    "AT": ("Asian", "Tea"),
    "WA": ("Western", "Alcohol"),
}

_MEAL_LABELS = ("Western", "Asian")
_DRINK_LABELS = ("Fruit juice", "Tea", "Alcohol")


def generate_illustration(
    seed: int = 7, high_prob: float = 0.9
) -> tuple[CategoricalDataset, SupplementaryData, HierarchicalAssignment]:
    """A 200-observation meal/drink illustration with three planted clusters.

    Members emit their cluster's full (meal, drink) signature with
    probability ``high_prob``.  Off-signature draws stay among the
    mainstream meal/drink combinations; only members of the small alcohol
    cluster ever drift to the rare drink, which is the point of the
    illustration (the rare choice belongs to one small group).  Restricted
    to classes, the truth has two clusters for Americans, Japanese and
    females, and three for males; the alcohol cluster sits entirely inside
    the American males.  Raises ``SpecError`` for a negative ``seed``.
    """
    if seed < 0:
        raise SpecError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    mainstream = [(mi, di) for mi in range(len(_MEAL_LABELS)) for di in (0, 1)]
    all_patterns = [
        (mi, di) for mi in range(len(_MEAL_LABELS)) for di in range(len(_DRINK_LABELS))
    ]
    rows: list[tuple[str, str, str]] = []
    for cluster, nat, gender, count in _ILLUSTRATION_CELLS:
        rows.extend((cluster, nat, gender) for _ in range(count))
    n = len(rows)
    codes = np.empty((n, 2), dtype=np.int64)
    for i, (cluster, _nat, _gender) in enumerate(rows):
        meal, drink = _ILLUSTRATION_SIGNATURES[cluster]
        sig = (_MEAL_LABELS.index(meal), _DRINK_LABELS.index(drink))
        if rng.random() < high_prob:
            codes[i] = sig
        else:
            pool = all_patterns if cluster == "WA" else mainstream
            others = [pat for pat in pool if pat != sig]
            codes[i] = others[rng.integers(0, len(others))]
    dataset = CategoricalDataset.from_codes(
        codes, (_MEAL_LABELS, _DRINK_LABELS), ("Meal", "Drink")
    )
    sup_codes = np.array(
        [
            (("American", "Japanese").index(nat), ("Male", "Female").index(gender))
            for _cluster, nat, gender in rows
        ],
        dtype=np.int64,
    )
    sup = SupplementaryData.from_codes(
        sup_codes,
        (("American", "Japanese"), ("Male", "Female")),
        ("Nationality", "Gender"),
    )
    order = ("WJ", "AT", "WA")
    clusters = np.empty((n, 2), dtype=np.int64)
    counts: list[tuple[int, ...]] = []
    for h in range(2):
        per_class: list[int] = []
        for s, class_label in enumerate(sup.labels[h]):
            present = [
                c
                for c in order
                if any(
                    row[0] == c and (row[1], row[2])[h] == class_label
                    for row in rows
                )
            ]
            rank = {c: i for i, c in enumerate(present)}
            per_class.append(len(present))
            for i, row in enumerate(rows):
                if (row[1], row[2])[h] == class_label:
                    clusters[i, h] = rank[row[0]]
        counts.append(tuple(per_class))
    assignment = HierarchicalAssignment(
        sup=sup, spec=ClusterSpec(tuple(counts)), clusters=clusters
    )
    return dataset, sup, assignment


@dataclass(frozen=True)
class StudyDesign:
    """Full factorial grid over data and supplementary-variable settings."""

    qs: tuple[int, ...] = (5, 7)
    ks: tuple[int, ...] = (2, 3)
    hs: tuple[int, ...] = (1, 3)
    rs: tuple[int, ...] = (3, 5)
    balances: tuple[str, ...] = ("balanced", "unbalanced")
    replicates: int = 100
    starts: int = 100
    n_obs: int = 300
    n_vars: int = 10
    high_prob: float = 0.8
    active_ratio: float = 0.5
    p: int = 2
    max_iter: int = 100
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("qs", "ks", "hs", "rs", "balances"):
            values = getattr(self, name)
            kind = str if name == "balances" else (int, np.integer)
            if not isinstance(values, (list, tuple)) or not all(
                isinstance(v, kind) and not isinstance(v, bool) for v in values
            ):
                noun = "strings" if kind is str else "integers"
                raise SpecError(f"{name} must be a list of {noun}, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        if not (self.qs and self.ks and self.hs and self.rs and self.balances):
            raise SpecError("the factorial grid must not be empty")
        # The GenSpec / SupGenSpec ranges, checked before any cell runs.
        for name, low in (("qs", 2), ("ks", 1), ("hs", 1), ("rs", 2)):
            if min(getattr(self, name)) < low:
                raise SpecError(f"{name} values must be >= {low}, got {list(getattr(self, name))}")
        unknown = set(self.balances) - {"balanced", "unbalanced"}
        if unknown:
            raise SpecError(f"balances must be 'balanced' or 'unbalanced', got {sorted(unknown)}")
        for name in ("replicates", "starts", "n_obs", "n_vars", "p", "max_iter", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise SpecError(f"{name} must be an integer, got {value!r}")
        real = (int, float, np.integer, np.floating)
        for name in ("high_prob", "active_ratio", "epsilon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, real):
                raise SpecError(f"{name} must be a number, got {value!r}")
        for name in ("replicates", "n_obs", "n_vars"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be >= 1, got {getattr(self, name)}")
        # Every cell's generator and solver settings share these fields; the
        # fewest categories against the most clusters is the hardest cell.
        GenSpec(
            q=min(self.qs), k=max(self.ks), n_vars=self.n_vars,
            high_prob=self.high_prob, active_ratio=self.active_ratio,
        )
        self.options(seed=self.seed).validate()

    def options(self, seed: int) -> SolverOptions:
        """The solver settings of every cell, with the given fit seed."""
        return SolverOptions(
            p=self.p,
            n_starts=self.starts,
            max_iter=self.max_iter,
            epsilon=self.epsilon,
            seed=seed,
        )

    def cells(self) -> list[tuple[int, int, int, int, str]]:
        return [
            (q, k, h, r, balance)
            for q in self.qs
            for k in self.ks
            for h in self.hs
            for r in self.rs
            for balance in self.balances
        ]


def condition_label(r: int, balance: str) -> str:
    """Short condition tag: 'b3' for balanced r=3, 'u5' for unbalanced r=5."""
    return f"{'b' if balance == 'balanced' else 'u'}{r}"


def _true_assignment(
    sup: SupplementaryData, truth: np.ndarray, k: int
) -> HierarchicalAssignment | None:
    """The planted allocation as a hierarchical assignment with K clusters
    per class, or None when some class misses one of the K clusters."""
    for h in range(sup.n_sup):
        for s in range(sup.r[h]):
            if len(np.unique(truth[sup.members(h, s)])) != k:
                return None
    clusters = np.tile(truth[:, None], (1, sup.n_sup))
    return HierarchicalAssignment(
        sup=sup, spec=ClusterSpec.uniform(sup, k), clusters=clusters
    )


def _study_task(design: StudyDesign, cell_index: int, replicate: int) -> list[dict]:
    """One (cell, replicate): generate, fit, evaluate per class."""
    q, k, n_sup, r, balance = design.cells()[cell_index]
    root = np.random.SeedSequence(entropy=design.seed, spawn_key=(cell_index, replicate))
    data_seed, sup_seed, fit_seed = (int(x) for x in root.generate_state(3))
    dataset, truth = generate_clustered(
        GenSpec(
            q=q,
            k=k,
            n_obs=design.n_obs,
            n_vars=design.n_vars,
            high_prob=design.high_prob,
            active_ratio=design.active_ratio,
            seed=data_seed,
        )
    )
    sup = generate_supplementary(
        SupGenSpec(n_sup=n_sup, r=r, balance=balance, seed=sup_seed), design.n_obs
    )
    base = {
        "q": q,
        "K": k,
        "H": n_sup,
        "r": r,
        "balance": balance,
        "replicate": replicate,
    }
    started = time.perf_counter()
    try:
        spec = ClusterSpec.uniform(sup, k)
        spec.validate(sup)
        solution = fit_mscca(dataset, sup, spec, design.options(fit_seed))
        elapsed = int(1000 * (time.perf_counter() - started))
        reference = _true_assignment(sup, truth, k)
        gf = None
        if reference is not None:
            gf = gf_against_truth(solution, reference, dataset)
        rows = []
        for h in range(sup.n_sup):
            for s in range(sup.r[h]):
                members = sup.members(h, s)
                ari = adjusted_rand_index(
                    solution.assignment.clusters[members, h].tolist(),
                    truth[members].tolist(),
                )
                rows.append(
                    {**base, "h": h, "s": s, "ari": ari, "gf": gf,
                     "phi": solution.objective, "runtime_ms": elapsed, "error": ""}
                )
    except MsccaError as exc:  # a cell that cannot be fitted or scored is recorded, not fatal
        elapsed = int(1000 * (time.perf_counter() - started))
        error = type(exc).__name__ + ": " + str(exc).partition("\n")[0]
        return [
            {**base, "h": h, "s": s, "ari": None, "gf": None, "phi": None,
             "runtime_ms": elapsed, "error": error}
            for h in range(sup.n_sup)
            for s in range(sup.r[h])
        ]
    return rows


def study_workers() -> int:
    """The worker count set by the MSCCA_THREADS environment variable (1
    if unset); anything but a positive integer raises ``ConfigError``."""
    raw = os.environ.get("MSCCA_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"MSCCA_THREADS must be a positive integer, got {raw!r}")
    return workers


def run_study(design: StudyDesign, workers: int | None = None) -> list[dict]:
    """Run the whole grid; rows come back in canonical (cell, replicate,
    class) order regardless of execution order.

    ``workers`` defaults to ``study_workers()``; values above 1 run
    replicates in parallel processes, never more than the CPU count or
    the number of (cell, replicate) tasks.
    """
    if workers is None:
        workers = study_workers()
    tasks = [
        (cell_index, replicate)
        for cell_index in range(len(design.cells()))
        for replicate in range(design.replicates)
    ]
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        # imported here so that importing mscca does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(
                pool.map(_study_task, [design] * len(tasks), *zip(*tasks))
            )
    else:
        chunks = [_study_task(design, ci, rep) for ci, rep in tasks]
    return [row for chunk in chunks for row in chunk]


def summarize_study(rows: Iterable[dict]) -> list[dict]:
    """Per-cell medians over all class rows with recorded values, cells in
    the order they first appear (``run_study``'s canonical order)."""
    cells: dict[tuple, dict] = {}
    for row in rows:
        key = (row["q"], row["K"], row["H"], row["r"], row["balance"])
        cell = cells.setdefault(key, {"ari": [], "gf": [], "failures": 0})
        if row["ari"] is None:
            cell["failures"] += 1
            continue
        cell["ari"].append(row["ari"])
        if row["gf"] is not None:
            cell["gf"].append(row["gf"])
    out = []
    for (q, k, n_sup, r, balance), cell in cells.items():
        out.append(
            {
                "q": q,
                "K": k,
                "H": n_sup,
                "r": r,
                "cond": condition_label(r, balance),
                "median_ari": float(np.median(cell["ari"])) if cell["ari"] else None,
                "median_gf": float(np.median(cell["gf"])) if cell["gf"] else None,
                "n_rows": len(cell["ari"]),
                "failures": cell["failures"],
            }
        )
    return out
