import csv
import json
import re

import numpy as np
import pytest

from mscca import objective_phi, read_csv_dataset, stacked_indicators
from mscca.archive import assignment_from_records, load_json
from mscca.cli import main
from mscca.data import ClusterSpec


ILLUSTRATION_K = [
    "--k", "Nationality:American:2",
    "--k", "Nationality:Japanese:2",
    "--k", "Gender:Male:3",
    "--k", "Gender:Female:2",
]


@pytest.fixture(scope="module")
def illustration_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("illu")
    assert main(["illustrate", "--out", str(out)]) == 0
    return out / "data.csv"


def run_fit(illustration_csv, out_dir, extra=None):
    argv = [
        "fit",
        "--input", str(illustration_csv),
        "--sup-cols", "Nationality,Gender",
        *ILLUSTRATION_K,
        "--starts", "20",
        "--seed", "0",
        "--out", str(out_dir),
    ] + (extra or [])
    return main(argv)


class TestFit:
    def test_illustration_fit_male_clusters(self, illustration_csv, tmp_path):
        assert run_fit(illustration_csv, tmp_path / "out") == 0
        archive = load_json(tmp_path / "out" / "solution.json")
        counts = archive["solution"]["cluster_counts"]
        assert counts == [[2, 2], [3, 2]]
        male_rows = [
            rec
            for rec in archive["biplot"]["clusters"]
            if rec["variable"] == "Gender" and rec["class"] == "Male"
        ]
        assert len(male_rows) == 3

    def test_archive_reproduces_objective(self, illustration_csv, tmp_path):
        out = tmp_path / "out"
        assert run_fit(illustration_csv, out) == 0
        archive = load_json(out / "solution.json")
        ds, sup = read_csv_dataset(illustration_csv, ["Nationality", "Gender"])
        spec = ClusterSpec(tuple(tuple(row) for row in archive["solution"]["cluster_counts"]))
        assignment = assignment_from_records(archive["solution"]["assignment"], sup, spec)
        view = stacked_indicators(ds, sup.n_sup)
        phi = objective_phi(
            assignment,
            np.array(archive["solution"]["centers"]),
            np.array(archive["solution"]["quantifications"]),
            view,
        )
        assert abs(phi - archive["solution"]["objective"]) < 1e-10

    def test_byte_identical_reruns(self, illustration_csv, tmp_path):
        assert run_fit(illustration_csv, tmp_path / "a") == 0
        assert run_fit(illustration_csv, tmp_path / "b") == 0
        for name in ("solution.json", "coords.csv", "residuals.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_auto_selection_report(self, illustration_csv, tmp_path):
        argv = [
            "fit",
            "--input", str(illustration_csv),
            "--sup-cols", "Nationality,Gender",
            "--k-auto", "--k-max", "4",
            "--starts", "5",
            "--out", str(tmp_path / "auto"),
        ]
        assert main(argv) == 0
        archive = load_json(tmp_path / "auto" / "solution.json")
        report = archive["config"]["k_selection"]
        assert set(report) == {"Nationality", "Gender"}
        for classes in report.values():
            for entry in classes.values():
                assert entry["k_values"] == [1, 2, 3, 4]
                assert 2 <= entry["chosen"] <= 3

    def test_unreadable_input_exit_2(self, tmp_path):
        code = main(
            ["fit", "--input", str(tmp_path / "nope.csv"), "--sup-cols", "x",
             *ILLUSTRATION_K, "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_incomplete_k_map_exit_2(self, illustration_csv, tmp_path):
        code = main(
            ["fit", "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
             "--k", "Nationality:American:2", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_oversized_k_exit_3(self, illustration_csv, tmp_path):
        args = [
            "fit", "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
            "--k", "Nationality:American:500",
            "--k", "Nationality:Japanese:2",
            "--k", "Gender:Male:3",
            "--k", "Gender:Female:2",
            "--out", str(tmp_path / "o"),
        ]
        assert main(args) == 3

    def test_repeated_sup_column_exit_2(self, illustration_csv, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender,Gender",
             *ILLUSTRATION_K, "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repeat" in err
        assert not (tmp_path / "o").exists()

    def test_svg_needs_two_dims_exit_4(self, illustration_csv, tmp_path):
        code = run_fit(
            illustration_csv, tmp_path / "o", extra=["--dims", "3", "--export", "svg"]
        )
        assert code == 4

    def test_coords_schema(self, illustration_csv, tmp_path):
        out = tmp_path / "out"
        assert run_fit(illustration_csv, out, extra=["--export", "coords-csv"]) == 0
        with (out / "coords.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["point_kind", "label", "dim1", "dim2", "mass", "size"]
        kinds = {row[0] for row in rows[1:]}
        assert kinds == {"cluster", "class", "category"}


class TestExportSvg:
    def test_svg_from_archive(self, illustration_csv, tmp_path):
        out = tmp_path / "out"
        extra = ["--export", "svg", "--export", "solution-json"]
        assert run_fit(illustration_csv, out, extra=extra) == 0
        svg = (out / "biplot.svg").read_text()
        archive = load_json(out / "solution.json")
        n_points = (
            len(archive["biplot"]["clusters"])
            + len(archive["biplot"]["classes"])
            + len(archive["biplot"]["categories"])
        )
        assert svg.count("<text") == n_points
        assert "<svg" in svg and "</svg>" in svg

    def test_label_sizes_monotone_in_share(self, illustration_csv, tmp_path):
        out = tmp_path / "out"
        extra = ["--export", "svg", "--export", "solution-json"]
        assert run_fit(illustration_csv, out, extra=extra) == 0
        archive = load_json(out / "solution.json")
        svg = (out / "biplot.svg").read_text()
        sizes = {}
        for rec in archive["biplot"]["clusters"]:
            match = re.search(
                rf'font-size="([0-9.]+)" fill="[^"]*">{re.escape(rec["label"])}<', svg
            )
            assert match, rec["label"]
            sizes[rec["label"]] = (rec["share"], float(match.group(1)))
        by_class = {}
        for rec in archive["biplot"]["clusters"]:
            by_class.setdefault((rec["variable"], rec["class"]), []).append(
                sizes[rec["label"]]
            )
        for entries in by_class.values():
            entries.sort()
            shares = [e[0] for e in entries]
            fonts = [e[1] for e in entries]
            assert fonts == sorted(fonts)
            if len(set(shares)) > 1:
                assert fonts[0] < fonts[-1]

    def test_standalone_export(self, illustration_csv, tmp_path):
        out = tmp_path / "out"
        assert run_fit(illustration_csv, out) == 0
        svg_path = tmp_path / "plot.svg"
        code = main(
            ["export-svg", "--archive", str(out / "solution.json"), "--out", str(svg_path)]
        )
        assert code == 0
        assert svg_path.exists()

    def test_three_dim_archive_exit_4(self, illustration_csv, tmp_path):
        out = tmp_path / "out"
        assert run_fit(illustration_csv, out, extra=["--dims", "3"]) == 0
        code = main(
            ["export-svg", "--archive", str(out / "solution.json"),
             "--out", str(tmp_path / "x.svg")]
        )
        assert code == 4


    @pytest.mark.parametrize(
        "archive",
        [
            [1, 2],
            {"biplot": ["categories"]},
            {"biplot": {"categories": [{"label": "a"}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [0.0, 1.0]}],
                        "clusters": [{"label": "x"}]}},
        ],
    )
    def test_malformed_archive_exit_2(self, tmp_path, capsys, archive):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(archive), encoding="utf-8")
        code = main(["export-svg", "--archive", str(path), "--out", str(tmp_path / "x.svg")])
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "x.svg").exists()


class TestVariants:
    def test_averaging_class_points_only(self, illustration_csv, tmp_path):
        out = tmp_path / "ave"
        code = main(
            ["variants", "--input", str(illustration_csv),
             "--sup-cols", "Nationality,Gender", "--method", "averaging",
             "--starts", "5", "--out", str(out)]
        )
        assert code == 0
        with (out / "coords.csv").open() as fh:
            rows = list(csv.reader(fh))
        kinds = [row[0] for row in rows[1:]]
        assert "cluster" not in kinds
        class_labels = sorted(row[1] for row in rows[1:] if row[0] == "class")
        assert class_labels == ["American", "Female", "Japanese", "Male"]

    def test_removal_centers_classes(self, illustration_csv, tmp_path):
        out = tmp_path / "rem"
        code = main(
            ["variants", "--input", str(illustration_csv),
             "--sup-cols", "Nationality,Gender", "--method", "removal",
             "--out", str(out)]
        )
        assert code == 0
        archive = load_json(out / "solution.json")
        scores = np.array(archive["scores"])
        ds, sup = read_csv_dataset(illustration_csv, ["Nationality", "Gender"])
        n = ds.n_obs
        for h in range(sup.n_sup):
            block = scores[h * n : (h + 1) * n]
            for s in range(sup.r[h]):
                members = sup.members(h, s)
                assert np.abs(block[members].mean(axis=0)).max() < 1e-10

    def test_cluster_ca_runs(self, illustration_csv, tmp_path):
        out = tmp_path / "cca"
        code = main(
            ["variants", "--input", str(illustration_csv),
             "--sup-cols", "Nationality,Gender", "--method", "cluster-ca",
             "--k", "7", "--starts", "10", "--out", str(out)]
        )
        assert code == 0
        archive = load_json(out / "solution.json")
        assert archive["solution"]["cluster_counts"] == [[7]]
        assert len(archive["biplot"]["clusters"]) == 7

    def test_mca_runs(self, illustration_csv, tmp_path):
        out = tmp_path / "mca"
        code = main(
            ["variants", "--input", str(illustration_csv),
             "--sup-cols", "Nationality,Gender", "--method", "mca",
             "--out", str(out)]
        )
        assert code == 0
        archive = load_json(out / "solution.json")
        assert archive["method"] == "mca"
        assert len(archive["biplot"]["categories"]) == 5

    def test_cluster_ca_without_k_exit_2(self, illustration_csv, tmp_path):
        code = main(
            ["variants", "--input", str(illustration_csv),
             "--sup-cols", "Nationality,Gender", "--method", "cluster-ca",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestSimulate:
    def _design(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(
            json.dumps(
                {
                    "qs": [5], "ks": [2], "hs": [1], "rs": [3],
                    "balances": ["balanced"], "replicates": 2, "starts": 5,
                    "n_obs": 120, "n_vars": 4, "seed": 3,
                }
            ),
            encoding="utf-8",
        )
        return path

    def test_smoke_outputs(self, tmp_path):
        design = self._design(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--design", str(design), "--out", str(out)]) == 0
        with (out / "results.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "q", "K", "H", "r", "balance", "replicate", "h", "s",
            "ari", "gf", "phi", "error", "runtime_ms",
        ]
        assert len(rows) == 1 + 2 * 3  # header + replicates x classes
        with (out / "summary.csv").open() as fh:
            summary = list(csv.reader(fh))
        assert summary[1][3] == "b3"

    def test_rerun_identical_modulo_runtime(self, tmp_path):
        design = self._design(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--design", str(design), "--out", str(out1)]) == 0
        assert main(["simulate", "--design", str(design), "--out", str(out2)]) == 0

        def strip_runtime(path):
            with path.open() as fh:
                rows = list(csv.reader(fh))
            return [row[:-1] for row in rows]

        assert strip_runtime(out1 / "results.csv") == strip_runtime(out2 / "results.csv")

    def test_bad_thread_count_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MSCCA_THREADS", "two")
        design = self._design(tmp_path)
        assert main(["simulate", "--design", str(design), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "MSCCA_THREADS" in err

    def test_default_design_has_full_grid(self, tmp_path):
        from mscca import StudyDesign

        assert len(StudyDesign().cells()) == 32

    @pytest.mark.parametrize(
        "grid", [{"qs": "57"}, {"qs": [5.5]}, {"ks": [True]}, {"balances": [1]}]
    )
    def test_non_integer_grid_exit_2(self, tmp_path, capsys, grid):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replicates": 1, "starts": 1, **grid}), encoding="utf-8")
        assert main(["simulate", "--design", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and next(iter(grid)) in err

    def test_invalid_design_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"unknown_field": 1}', encoding="utf-8")
        assert main(["simulate", "--design", str(path), "--out", str(tmp_path / "o")]) == 2
