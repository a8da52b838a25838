"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The two simulation-backed criteria dominate the
runtime (a few minutes on a desktop-class machine).
"""

import time
from contextlib import contextmanager
from math import comb
from pathlib import Path

import numpy as np
import pytest

from mscca import (
    ClusterSpec,
    ConstraintSpec,
    GenSpec,
    KlCurve,
    SolverOptions,
    StudyDesign,
    SupGenSpec,
    adjusted_rand_index,
    biplot_coordinates,
    contingency,
    fit_constrained_mca,
    fit_mscca,
    generate_clustered,
    generate_illustration,
    generate_supplementary,
    goodness_of_fit,
    init_random,
    kl_select,
    objective_phi,
    psi_value,
    repair_empty_clusters,
    residual_comparison,
    run_study,
    stacked_indicators,
    standardized_residuals,
    update_B,
    update_G,
    update_U,
)
from mscca.cli import main
from mscca.errors import DegenerateGeometryError

from conftest import (
    dense_constrained_fit,
    principal_angles,
    random_dataset,
    random_sup,
    z_centered,
)


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    else:
        elapsed = time.perf_counter() - started
        print(f"[PASS] criterion {number}: {title} ({elapsed:.1f}s)")


def random_mixed_problem(rng, n=120, m=6, q=4):
    """Dataset plus supplementary data with mixed per-class cluster counts."""
    ds = random_dataset(rng, n, m, q)
    n_sup = int(rng.integers(1, 3))
    r = int(rng.integers(2, 4))
    sup = random_sup(rng, n, n_sup, r)
    counts = tuple(
        tuple(int(rng.integers(1, 4)) for _ in range(sup.r[h])) for h in range(sup.n_sup)
    )
    return ds, sup, ClusterSpec(counts)


def test_criterion_1_monotonicity():
    with criterion(1, "objective trace never increases, every start"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(100):
            ds, sup, spec = random_mixed_problem(rng)
            sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=3, seed=int(rng.integers(1 << 31))))
            for trace in sol.start_traces:
                diffs = np.diff(np.array(trace))
                assert (diffs <= 1e-12).all(), f"uphill step {diffs.max()}"
        assert time.perf_counter() - started < 120.0


def test_criterion_2_min_max_identity():
    with criterion(2, "phi equals p - psi/(N H m^2) at every post-centering iterate"):
        rng = np.random.default_rng(202)
        for case in range(50):
            if case % 2 == 0:
                ds, sup, spec = random_mixed_problem(rng, n=80, m=4, q=3)
            else:
                # flat single-class case (the H = 1 form with N m^2)
                ds = random_dataset(rng, 80, 4, 3)
                sup = random_sup(rng, 80, 1, 1)
                spec = ClusterSpec(((int(rng.integers(2, 5)),),))
            view = stacked_indicators(ds, sup.n_sup)
            p = 2
            assignment = init_random(sup, spec, rng)
            n, n_sup, m = ds.n_obs, sup.n_sup, ds.n_vars
            for _ in range(6):
                b = update_B(assignment, view, p)
                scores = (z_centered(view) @ b) / m
                g = update_G(assignment, view, b)
                phi = objective_phi(assignment, g, b, view)
                psi = psi_value(assignment, b, view)
                assert abs(phi - (p - psi / (n * n_sup * m * m))) < 1e-8
                candidate = update_U(scores, g, sup, spec)
                if any(
                    (candidate.cluster_sizes(h) == 0).any() for h in range(candidate.n_sup)
                ):
                    candidate = repair_empty_clusters(candidate, scores, g)
                assignment = candidate


def test_criterion_3_frozen_assignment_equivalence():
    with criterion(3, "frozen-assignment refit matches the projector route"):
        rng = np.random.default_rng(303)
        for _ in range(20):
            # at least two clusters per class keeps the top-2 eigenspace
            # well separated, so the column-space comparison is well posed
            ds = random_dataset(rng, 60, 4, 3)
            sup = random_sup(rng, 60, int(rng.integers(1, 3)), 2)
            spec = ClusterSpec(
                tuple(
                    tuple(int(rng.integers(2, 4)) for _ in range(sup.r[h]))
                    for h in range(sup.n_sup)
                )
            )
            sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=3, seed=int(rng.integers(1 << 31))))
            cspec = ConstraintSpec(kind="membership-projector", source=sol.assignment)
            fit = fit_constrained_mca(ds, cspec, 2)
            assert abs(fit.objective - sol.objective) < 1e-8
            angles = principal_angles(fit.quantifications, sol.quantifications)
            assert angles.max() < 1e-6
            # the dense projector route does not go through the count table
            dense = dense_constrained_fit(ds, cspec, 2)
            assert abs(dense.objective - sol.objective) < 1e-8
            angles = principal_angles(dense.quantifications, sol.quantifications)
            assert angles.max() < 1e-6


def test_criterion_4_rank_p_residual_optimality():
    with criterion(4, "biplot reconstruction error equals the discarded spectrum"):
        rng = np.random.default_rng(404)
        for _ in range(20):
            ds, sup, spec = random_mixed_problem(rng, n=60, m=4, q=3)
            sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=3, seed=int(rng.integers(1 << 31))))
            view = stacked_indicators(ds, sup.n_sup)
            model = biplot_coordinates(
                standardized_residuals(contingency(sol.assignment, view)),
                sol.centers,
                sol.quantifications,
            )
            achieved = float(((model.residuals - model.row_coords @ model.col_coords.T) ** 2).sum())
            svals = np.linalg.svd(model.residuals, compute_uv=False)
            assert abs(achieved - float((svals[2:] ** 2).sum())) < 1e-6


def test_criterion_5_exact_recovery():
    with criterion(5, "noise-free separable data recovered exactly in 20 of 20"):
        root = np.random.SeedSequence(505)
        for rep, seed in enumerate(root.spawn(20)):
            s1, s2, s3 = (int(x) for x in seed.generate_state(3))
            ds, truth = generate_clustered(
                GenSpec(q=4, k=3, n_obs=120, n_vars=4, high_prob=1.0, active_ratio=1.0, seed=s1)
            )
            sup = generate_supplementary(SupGenSpec(n_sup=1, r=2, seed=s2), 120)
            counts = tuple(
                len(np.unique(truth[sup.members(0, s)])) for s in range(sup.r[0])
            )
            spec = ClusterSpec((counts,))
            sol = fit_mscca(ds, sup, spec, SolverOptions(n_starts=20, seed=s3))
            for s in range(sup.r[0]):
                members = sup.members(0, s)
                ari = adjusted_rand_index(
                    sol.assignment.clusters[members, 0].tolist(), truth[members].tolist()
                )
                assert ari == 1.0, f"replicate {rep} class {s}: ARI {ari}"


def _median(values):
    return float(np.median(np.array(values, dtype=float)))


@pytest.mark.slow
def test_criterion_6_simulation_trends():
    with criterion(6, "factorial trends: easier cells score at least as well"):
        started = time.perf_counter()
        base = dict(
            hs=(1,),
            replicates=30,
            starts=100,
            n_obs=300,
            n_vars=10,
            seed=606,
        )
        # (a) recovery: more categories with fewer clusters beats the reverse
        easy = run_study(StudyDesign(qs=(7,), ks=(2,), rs=(3,), balances=("balanced",), **base))
        hard = run_study(StudyDesign(qs=(5,), ks=(3,), rs=(3,), balances=("balanced",), **base))
        ari_easy = _median([row["ari"] for row in easy if row["ari"] is not None])
        ari_hard = _median([row["ari"] for row in hard if row["ari"] is not None])
        assert ari_easy >= ari_hard, f"median ARI {ari_easy} < {ari_hard}"
        # (b) biplot accuracy: balanced few-class beats unbalanced many-class
        bal = run_study(StudyDesign(qs=(5,), ks=(2,), rs=(3,), balances=("balanced",), **base))
        unb = run_study(StudyDesign(qs=(5,), ks=(2,), rs=(5,), balances=("unbalanced",), **base))
        gf_bal = _median([row["gf"] for row in bal if row["gf"] is not None])
        gf_unb = _median([row["gf"] for row in unb if row["gf"] is not None])
        assert gf_bal >= gf_unb, f"median GF {gf_bal} < {gf_unb}"
        assert time.perf_counter() - started < 1800.0


def test_criterion_7_illustration_contrast():
    with criterion(7, "clustering isolates the choice that averaging hides"):
        ds, sup, truth = generate_illustration()
        sol = fit_mscca(ds, sup, truth.spec, SolverOptions(n_starts=100, seed=0))
        drink = ds.codes[:, 1]
        alcohol_code = ds.labels[1].index("Alcohol")
        members = sup.members(1, 0)  # the male class
        fitted = sol.assignment.clusters[members, 1]
        true_local = truth.clusters[members, 1]
        found = None
        for k in range(truth.spec.k_of(1, 0)):
            inside = fitted == k
            if inside.any():
                modal = np.bincount(drink[members[inside]], minlength=3).argmax()
                if modal == alcohol_code:
                    found = k
        assert found is not None, "no fitted male cluster is alcohol-modal"
        # membership agreement with its true counterpart, inside the class
        binary_ari = adjusted_rand_index(
            (fitted == found).astype(int).tolist(),
            (true_local == 2).astype(int).tolist(),
        )
        assert binary_ari >= 0.8, f"alcohol-cluster agreement {binary_ari}"
        # the averaged table shows no class whose strongest positive
        # deviation is the alcohol column
        comp = residual_comparison(ds, sup, sol.assignment)
        ave = comp.averaging
        alcohol_col = list(ave.col_labels).index("Drink:Alcohol")
        for i in range(len(ave.row_labels)):
            top = int(ave.residuals[i].argmax())
            assert top != alcohol_col, f"class {ave.row_labels[i]} peaks at alcohol"


def _partitions(n, max_blocks):
    out = []

    def grow(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for block in range(min(used + 1, max_blocks - 1) + 1):
            grow(prefix + [block], max(used, block))

    grow([0], 0)
    return out


def _brute_force_ari(a, b):
    n = len(a)
    both = in_a = in_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            in_a += sa
            in_b += sb
            both += sa and sb
    pairs = comb(n, 2)
    expected = in_a * in_b / pairs
    bottom = 0.5 * (in_a + in_b) - expected
    return 1.0 if bottom == 0 else (both - expected) / bottom


def test_criterion_8_metric_oracles():
    with criterion(8, "metric implementations match their oracles"):
        for n in range(2, 7):
            parts = _partitions(n, 3)
            for a in parts:
                for b in parts:
                    assert adjusted_rand_index(a, b) == pytest.approx(
                        _brute_force_ari(a, b), abs=1e-12
                    )
        rng = np.random.default_rng(808)
        for _ in range(100):
            y = rng.normal(size=(4, 3))
            h = rng.normal(size=(4, 3))
            value = goodness_of_fit(y, h)
            assert 0.0 <= value <= 1.0
            assert goodness_of_fit(y, 2.5 * h) == pytest.approx(value, abs=1e-12)
        y = np.zeros((2, 2))
        y[0, 0] = 1.0
        h = np.zeros((2, 2))
        h[1, 1] = 1.0
        assert goodness_of_fit(y, h) == 0.0
        curve = KlCurve(k_values=(1, 2, 3, 4, 5), w_values=(100, 40, 10, 9, 8), nu=2)
        assert kl_select(curve) == 3


def test_criterion_9_byte_identical_archives(tmp_path):
    with criterion(9, "identical input, config and seed give identical archives"):
        assert main(["illustrate", "--out", str(tmp_path / "data")]) == 0
        csv_path = str(tmp_path / "data" / "data.csv")
        argv_tail = [
            "--input", csv_path,
            "--sup-cols", "Nationality,Gender",
            "--k", "Nationality:American:2",
            "--k", "Nationality:Japanese:2",
            "--k", "Gender:Male:3",
            "--k", "Gender:Female:2",
            "--starts", "50",
            "--seed", "1",
            "--export", "solution-json",
            "--export", "coords-csv",
            "--export", "residuals-csv",
            "--export", "svg",
        ]
        assert main(["fit", *argv_tail, "--out", str(tmp_path / "run1")]) == 0
        assert main(["fit", *argv_tail, "--out", str(tmp_path / "run2")]) == 0
        for name in ("solution.json", "coords.csv", "residuals.csv", "biplot.svg"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b, f"{name} differs between reruns"


def test_criterion_10_performance_envelope():
    with criterion(10, "desk-scale multistart fit completes inside a minute"):
        ds, _truth = generate_clustered(GenSpec(q=7, k=3, n_obs=300, n_vars=10, seed=10))
        sup = generate_supplementary(SupGenSpec(n_sup=3, r=3, seed=11), 300)
        spec = ClusterSpec.uniform(sup, 3)
        started = time.perf_counter()
        fit_mscca(ds, sup, spec, SolverOptions(p=2, n_starts=100, seed=0))
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"fit took {elapsed:.1f}s"
