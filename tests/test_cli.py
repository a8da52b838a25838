import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import mscca
from mscca import ClusterSpec, objective_phi, read_csv_dataset
from mscca.archive import assignment_from_archive, load_json
from mscca.cli import main


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


def run_python(*args, cwd):
    """``python ARGS`` in a fresh interpreter that imports this checkout's
    package."""
    src = str(Path(mscca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_module(*args, cwd, module="mscca"):
    return run_python("-m", module, *args, cwd=cwd)


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
        assignment = assignment_from_archive(archive, sup)
        assert assignment.spec.counts == ((2, 2), (3, 2))
        phi = objective_phi(
            assignment,
            np.array(archive["solution"]["centers"]),
            np.array(archive["solution"]["quantifications"]),
            ds,
        )
        assert abs(phi - archive["solution"]["objective"]) < 1e-10

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", *ILLUSTRATION_K],
            ["variants", "--method", "averaging"],
            ["variants", "--method", "cluster-ca", "--k", "3"],
        ],
        ids=["fit", "averaging", "cluster-ca"],
    )
    def test_archive_counts_nothing_after_the_fit(
        self, illustration_csv, tmp_path, monkeypatch, argv
    ):
        # The exports read the count table and sizes the fit kept, so once
        # the fit has returned no cell is counted again.
        real = mscca.solver.fit_mscca
        fits = []

        def forbidden(*args):
            raise AssertionError("cells counted after the fit")

        def fit_then_forbid_counting(*args):
            fits.append(real(*args))
            monkeypatch.setattr(mscca.data, "_count_into", forbidden)
            return fits[-1]

        monkeypatch.setattr(mscca.solver, "fit_mscca", fit_then_forbid_counting)  # cluster-ca
        monkeypatch.setattr(mscca.cli, "fit_mscca", fit_then_forbid_counting)
        out = tmp_path / "o"
        code = main(
            [*argv, "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
             "--starts", "3", "--export", "solution-json", "--export", "coords-csv",
             "--export", "residuals-csv", "--export", "svg", "--out", str(out)]
        )
        assert code == 0 and len(fits) == 1
        names = ["biplot.svg", "coords.csv", "residuals.csv", "solution.json"]
        assert sorted(path.name for path in out.iterdir()) == names

    def test_byte_identical_reruns(self, illustration_csv, tmp_path):
        assert run_fit(illustration_csv, tmp_path / "a") == 0
        assert run_fit(illustration_csv, tmp_path / "b") == 0
        for name in ("solution.json", "coords.csv", "residuals.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("budget", [1, 3, 10**12], ids=["one", "three", "all"])
    def test_solution_independent_of_chunk_size(
        self, illustration_csv, tmp_path, monkeypatch, budget
    ):
        # Chunks of 1 start, 3 starts and all 20 starts write the bytes of
        # the default chunking.
        import mscca.solver

        assert run_fit(illustration_csv, tmp_path / "default") == 0
        ds, _ = read_csv_dataset(illustration_csv, ["Nationality", "Gender"])
        spec = ClusterSpec(((2, 2), (3, 2)))
        per_start = mscca.solver._start_bytes(ds, spec, 2)
        monkeypatch.setattr(mscca.solver, "_CHUNK_BYTES", budget * per_start)
        assert mscca.solver._chunk_size(ds, spec, 2) == budget
        assert run_fit(illustration_csv, tmp_path / "chunked") == 0
        chunked = (tmp_path / "chunked" / "solution.json").read_bytes()
        assert chunked == (tmp_path / "default" / "solution.json").read_bytes()

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

    def test_repeated_k_class_exit_2(self, illustration_csv, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            ["fit", "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
             *ILLUSTRATION_K, "--k", "Nationality:American:3", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --k names class Nationality:American twice\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", *ILLUSTRATION_K, "--sup-cols", ",", "--seed", "-1"],
             "--sup-cols must name at least one column"),
            (["fit", "--k-auto", "--k-max", "3", "--sup-cols", "Nationality", "--seed", "-1"],
             "--k-max must be at least 4 for auto selection"),
            (["fit", *ILLUSTRATION_K, "--k-auto", "--sup-cols", "Nationality,Gender"],
             "--k and --k-auto are mutually exclusive"),
            (["fit", "--sup-cols", "Nationality,Gender"],
             "either --k entries or --k-auto is required"),
            (["variants", "--method", "removal", "--sup-cols", ","],
             "--sup-cols must name at least one column"),
        ],
        ids=["empty-sup-cols", "small-k-max", "k-and-k-auto", "no-k", "variants-empty-sup-cols"],
    )
    def test_pre_read_checks_keep_message_code_and_order(self, tmp_path, capsys, argv, message):
        # the input does not exist, so each check runs before the CSV is read;
        # --seed -1 (exit 3) pins that it also runs before the solver checks
        out = tmp_path / "o"
        assert main([*argv, "--input", str(tmp_path / "absent.csv"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_k_class_label_may_hold_colons(self, tmp_path, capsys):
        # the variable ends at the first colon and the count follows the last
        path = tmp_path / "data.csv"
        light = ["Day: lit", "Darkness: lights lit", "Dark"]
        rows = [f"{'xy'[i % 2]},{'xyz'[i % 3]},{light[i % 3]}" for i in range(18)]
        path.write_text("\n".join(["a,b,s", *rows]) + "\n", encoding="utf-8")
        argv = ["fit", "--input", str(path), "--sup-cols", "s", "--starts", "2"]
        argv += ["--k", "s:Day: lit:2", "--k", "s:Darkness: lights lit:3", "--k", "s:Dark:1"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        archive = load_json(tmp_path / "o" / "solution.json")
        assert archive["solution"]["cluster_counts"] == [[2, 3, 1]]
        assert archive["config"]["k"] == {
            "s:Dark": 1, "s:Darkness: lights lit": 3, "s:Day: lit": 2
        }
        for bad in ("s:2", "s"):
            assert main([*argv[:-2], "--k", bad, "--out", str(tmp_path / "bad")]) == 2
            assert capsys.readouterr().err == f"error: --k expects VAR:CLASS:K, got {bad!r}\n"

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

    @pytest.mark.parametrize(
        "k, message",
        [
            ("2", "class g:M has 1 members, cannot host 2 clusters"),
            ("0", "K must be >= 1 for class g:M"),
        ],
    )
    def test_spec_error_names_the_class_as_k_does(self, tmp_path, capsys, k, message):
        # one member in class M: the message names it as --k does
        path = tmp_path / "data.csv"
        path.write_text("a,b,g\nx,y,M\ny,x,F\nx,x,F\ny,y,F\n", encoding="utf-8")
        argv = ["fit", "--input", str(path), "--sup-cols", "g", "--k", f"g:M:{k}"]
        argv += ["--k", "g:F:1", "--starts", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_oversized_k_max_exit_3_before_any_fit(
        self, illustration_csv, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def recording_fit(*args, **kwargs):
            calls.append(args)
            raise AssertionError("no fit may run")

        monkeypatch.setattr("mscca.solver.fit_cluster_ca", recording_fit)
        args = [
            "fit", "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
            "--k-auto", "--k-max", "500", "--starts", "1", "--out", str(tmp_path / "o"),
        ]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "k_max=500 exceeds" in err
        assert calls == []
        assert not (tmp_path / "o").exists()

    def test_repeated_sup_column_exit_2(self, illustration_csv, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender,Gender",
             *ILLUSTRATION_K, "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repeat" in err
        assert not (tmp_path / "o").exists()

    def test_latin1_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("Meal,Gender\nCaf\u00e9,M\nTea,F\n".encode("latin-1"))
        code = main(
            ["fit", "--input", str(path), "--sup-cols", "Gender",
             "--k", "Gender:M:1", "--k", "Gender:F:1", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "UTF-8" in err

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_bad_byte_named_by_its_file_offset(self, tmp_path, capsys, bom):
        # past the first 8 KiB, where a streaming decoder counts from its
        # current chunk
        body = b"Meal,Gender\n" + b"tea,M\ncoffee,F\n" * 2000
        path = tmp_path / "bad.csv"
        path.write_bytes(bom + body + b"caf\xff,M\n")
        offset = len(bom + body) + 3
        code = main(
            ["fit", "--input", str(path), "--sup-cols", "Gender",
             "--k", "Gender:M:1", "--k", "Gender:F:1", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {path} is not UTF-8 text (invalid start byte at byte {offset})\n"

    @pytest.mark.parametrize(
        "method",
        [None, "averaging", "removal", "mca", "cluster-ca"],
        ids=["fit", "variants", "variants-removal", "variants-mca", "variants-cluster-ca"],
    )
    def test_negative_seed_exit_3_in_one_line(self, illustration_csv, tmp_path, capsys, method):
        if method is None:
            argv = ["fit", *ILLUSTRATION_K]
        else:
            argv = ["variants", "--method", method, *(["--k", "3"] if method == "cluster-ca" else [])]
        argv += [
            "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
            "--seed", "-1", "--out", str(tmp_path / "o"),
        ]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "error: seed must be >= 0\n"
        assert not (tmp_path / "o").exists()

    def test_illustrate_negative_seed_exit_3_in_one_line(self, tmp_path, capsys):
        assert main(["illustrate", "--seed", "-1", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not (tmp_path / "o").exists()

    def test_huge_max_iter_runs_like_a_small_one(self, illustration_csv, tmp_path):
        # The cap bounds the cycles run, not memory set aside up front.
        archives = []
        for max_iter in (1000, 10**15):
            out = tmp_path / str(max_iter)
            assert run_fit(illustration_csv, out, extra=["--max-iter", str(max_iter)]) == 0
            archives.append(load_json(out / "solution.json"))
        small, huge = archives
        assert huge["solution"] == small["solution"]
        assert huge["biplot"] == small["biplot"]

    def test_svg_needs_two_dims_exit_4(self, illustration_csv, tmp_path):
        code = run_fit(
            illustration_csv, tmp_path / "o", extra=["--dims", "3", "--export", "svg"]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "command", [["fit", *ILLUSTRATION_K], ["variants", "--method", "mca"]], ids=["fit", "mca"]
    )
    @pytest.mark.parametrize(
        "dims, code, err",
        [
            ("3", 4, "error: --export svg needs --dims 2, got --dims 3\n"),
            ("0", 3, "error: p must be >= 1\n"),
        ],
        ids=["dims-3", "dims-0"],
    )
    def test_svg_dims_checked_before_the_read(self, tmp_path, capsys, command, dims, code, err):
        # The input does not exist: the check must run before the CSV is read.
        argv = [
            *command, "--input", str(tmp_path / "missing.csv"), "--sup-cols", "Nationality,Gender",
            "--dims", dims, "--export", "svg", "--out", str(tmp_path / "o"),
        ]
        assert main(argv) == code
        assert capsys.readouterr().err == err
        assert not (tmp_path / "o").exists()

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

    def test_labels_with_control_characters_parse(self, tmp_path):
        # XML 1.0 forbids a vertical tab, which a plain-CSV label may hold
        path = tmp_path / "in.csv"
        b = ("y\x0b1", "y2")
        rows = [f"x{i % 3},{b[i % 2]},{'AB'[i % 4 // 2]}" for i in range(40)]
        path.write_text("\n".join(["a,b,s", *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["fit", "--input", str(path), "--sup-cols", "s", "--k", "s:A:2", "--k", "s:B:2",
                "--export", "svg", "--out", str(out)]
        assert main(argv) == 0
        texts = minidom.parse(str(out / "biplot.svg")).getElementsByTagName("text")
        labels = {node.firstChild.data for node in texts}
        assert {"b:y\ufffd1", "b:y2"} <= labels

    def test_archive_labels_outside_xml_parse(self, tmp_path):
        # NUL, a lone surrogate and U+FFFF, as JSON escapes them
        archive = tmp_path / "archive.json"
        label = "\\u0000a\\ud800b\\uffff&<c>"
        archive.write_text(
            f'{{"biplot":{{"categories":[{{"label":"{label}","coords":[0.5,-0.5]}}]}}}}',
            encoding="utf-8",
        )
        out = tmp_path / "biplot.svg"
        assert main(["export-svg", "--archive", str(archive), "--out", str(out)]) == 0
        (text,) = minidom.parse(str(out)).getElementsByTagName("text")
        assert text.firstChild.data == "\ufffda\ufffdb\ufffd&<c>"

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

    def test_renders_format_1_archive(self, illustration_csv, tmp_path):
        # the biplot section is the same in both formats; rewrite a fresh
        # archive in the format-1 layout (indented, per-observation records)
        out = tmp_path / "out"
        assert run_fit(illustration_csv, out) == 0
        archive = load_json(out / "solution.json")
        columns = archive["solution"]["assignment"]
        archive["format"] = "mscca-archive"
        archive["solution"]["assignment"] = [
            {c["variable"]: [c["classes"][c["class_codes"][i]], c["clusters"][i]] for c in columns}
            for i in range(len(columns[0]["clusters"]))
        ]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(archive, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        for archive_path, svg in ((out / "solution.json", "new.svg"), (old, "old.svg")):
            argv = ["export-svg", "--archive", str(archive_path), "--out", str(tmp_path / svg)]
            assert main(argv) == 0
        assert (tmp_path / "old.svg").read_bytes() == (tmp_path / "new.svg").read_bytes()

    def test_utf16_archive_exit_2(self, tmp_path, capsys):
        path = tmp_path / "archive.json"
        path.write_bytes(json.dumps({"biplot": {}}).encode("utf-16"))
        assert path.read_bytes().startswith(b"\xff\xfe")
        code = main(["export-svg", "--archive", str(path), "--out", str(tmp_path / "x.svg")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "UTF-8" in err

    @pytest.mark.parametrize(
        "archive",
        [
            [1, 2],
            {"biplot": ["categories"]},
            {"biplot": {"categories": [{"label": "a"}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [0.0, 1.0]}],
                        "clusters": [{"label": "x"}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [float("nan"), 1.0]}]}},
            {"biplot": {"categories": [{"label": "a", "coords": ["a", "b"]}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [None, 1]}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [True, 1.0]}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [0.0, 1.0]}],
                        "clusters": [{"label": "x", "coords": [1.0, 0.0], "share": "big"}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [0.0, 1.0]}],
                        "classes": [{"label": "c", "coords": [1.0, 0.0], "mass": "heavy"}]}},
            # finite coordinates whose padded viewport overflows a float
            {"biplot": {"categories": [{"label": "a", "coords": [1e308, 1.0]},
                                       {"label": "b", "coords": [-1e308, 1.0]}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [1.7e308, 1.0]},
                                       {"label": "b", "coords": [0.5, 1.0]}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [1.0, 1.7e308]},
                                       {"label": "b", "coords": [0.5, -1.0]}]}},
            # finite label sizes outside [0, 1]
            {"biplot": {"categories": [{"label": "a", "coords": [0.0, 1.0]}],
                        "clusters": [{"label": "x", "coords": [1.0, 0.0], "share": -5.0}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [0.0, 1.0]}],
                        "clusters": [{"label": "x", "coords": [1.0, 0.0], "share": 1e308}]}},
            {"biplot": {"categories": [{"label": "a", "coords": [0.0, 1.0]}],
                        "classes": [{"label": "c", "coords": [1.0, 0.0], "mass": 2.0}]}},
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

    def test_averaging_runs_one_start_and_echoes_the_requested_count(
        self, illustration_csv, tmp_path, monkeypatch
    ):
        import mscca.cli

        starts = []
        real = mscca.cli.fit_mscca

        def recording_fit(dataset, sup, spec, options):
            starts.append(options.n_starts)
            return real(dataset, sup, spec, options)

        monkeypatch.setattr(mscca.cli, "fit_mscca", recording_fit)
        out = tmp_path / "ave"
        code = main(
            ["variants", "--input", str(illustration_csv),
             "--sup-cols", "Nationality,Gender", "--method", "averaging",
             "--starts", "7", "--out", str(out)]
        )
        assert code == 0
        assert starts == [1]
        archive = load_json(out / "solution.json")
        assert archive["config"]["starts"] == 7
        assert archive["solution"]["start_index"] == 0

    def test_averaging_runs_one_b_step(self, illustration_csv, tmp_path, monkeypatch):
        # One cluster per class: the first assignment step moves nothing,
        # so the start ends at its first cycle's B-step.
        import mscca.solver

        steps = []
        real = mscca.solver._between_quantify

        def counted(*args):
            steps.append(1)
            return real(*args)

        monkeypatch.setattr(mscca.solver, "_between_quantify", counted)
        code = main(
            ["variants", "--input", str(illustration_csv),
             "--sup-cols", "Nationality,Gender", "--method", "averaging",
             "--out", str(tmp_path / "ave")]
        )
        assert code == 0
        assert len(steps) == 1

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

    @pytest.mark.parametrize("method", ["removal", "mca"])
    def test_eigensolver_failure_exit_3_in_one_line(
        self, illustration_csv, tmp_path, capsys, monkeypatch, method
    ):
        # dsyevr reporting info 1, then the fallback eigh raising
        argv = [
            "variants", "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
            "--method", method, "--out", str(tmp_path / "o"),
        ]
        monkeypatch.setattr(mscca.linalg, "_dsyevr", lambda: lambda *args: 1)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "error: LAPACK dsyevr failed on a 5 x 5 matrix (info 1, 0 of 3 pairs)\n"

        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(mscca.linalg, "_dsyevr", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "error: eigh failed on a 5 x 5 matrix: Eigenvalues did not converge\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method", ["averaging", "removal", "mca"])
    def test_k_with_other_methods_exit_2(self, illustration_csv, tmp_path, capsys, method):
        out = tmp_path / "o"
        code = main(
            ["variants", "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
             "--method", method, "--k", "7", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --k applies only to --method cluster-ca\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["removal", "mca"])
    def test_p_above_rank_bound_exit_3_with_the_fit_line(
        self, illustration_csv, tmp_path, capsys, method
    ):
        # The illustration has Q - m = 3.
        tail = ["--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
                "--dims", "4", "--out", str(tmp_path / "o")]
        assert main(["fit", *ILLUSTRATION_K, *tail]) == 3
        fit_err = capsys.readouterr().err
        assert fit_err == (
            "error: p=4 exceeds the rank bound Q - m = 3 of the centered indicators\n"
        )
        assert main(["variants", "--method", method, *tail]) == 3
        assert capsys.readouterr().err == fit_err
        assert not (tmp_path / "o").exists()

    def test_cluster_ca_without_k_exit_2(self, illustration_csv, tmp_path):
        code = main(
            ["variants", "--input", str(illustration_csv),
             "--sup-cols", "Nationality,Gender", "--method", "cluster-ca",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, blocks, comparisons",
        [
            # the 4 class rows, then the 9 cluster rows, of 5 columns each
            (["fit", *ILLUSTRATION_K], [("averaging", 20), ("mscca", 45)], 1),
            (["variants", "--method", "averaging"], [("averaging", 20)], 0),
            (["variants", "--method", "cluster-ca", "--k", "3"], [("mscca", 15)], 0),
        ],
        ids=["fit", "averaging", "cluster-ca"],
    )
    def test_residual_methods_of_each_command(
        self, illustration_csv, tmp_path, monkeypatch, argv, blocks, comparisons
    ):
        # fit lists the averaged table beside its own; a variant lists only
        # the table it plots, without counting the averaged one.
        import mscca.cli

        calls = []
        real = mscca.cli.residual_comparison

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(mscca.cli, "residual_comparison", counted)
        out = tmp_path / "o"
        code = main(
            [*argv, "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
             "--starts", "5", "--out", str(out)]
        )
        assert code == 0
        assert len(calls) == comparisons
        methods = [rec["method"] for rec in load_json(out / "solution.json")["residuals"]]
        assert [(m, methods.count(m)) for m in dict.fromkeys(methods)] == blocks
        with (out / "residuals.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == methods

    def test_out_of_memory_exit_3_in_one_line(
        self, illustration_csv, tmp_path, capsys, monkeypatch
    ):
        # numpy's own allocation error, raised without allocating
        try:
            from numpy._core._exceptions import _ArrayMemoryError
        except ImportError:  # numpy < 2
            from numpy.core._exceptions import _ArrayMemoryError

        def failing(dataset, n_stack):
            raise _ArrayMemoryError((100_000, 100_000), np.dtype(np.float64))

        monkeypatch.setattr(mscca.solver, "_centered_burt", failing)
        out = tmp_path / "o"
        code = main(
            ["variants", "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
             "--method", "removal", "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == (
            "error: out of memory: Unable to allocate 74.5 GiB for an array with shape "
            "(100000, 100000) and data type float64\n"
        )
        assert "Traceback" not in err
        assert not (out / "solution.json").exists()


    @pytest.mark.parametrize("method", ["removal", "mca"])
    def test_solve_over_budget_exit_3_in_one_line(
        self, illustration_csv, tmp_path, capsys, monkeypatch, method
    ):
        # the budget is patched; the check runs before any Q x Q array (the
        # illustration has Q = 5: 2.5 x 25 doubles are 500 bytes)
        monkeypatch.setattr(mscca.solver, "_memory_budget", lambda: 100)
        out = tmp_path / "o"
        code = main(
            ["variants", "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender",
             "--method", method, "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == (
            "error: out of memory: the Q x Q solve at Q = 5 categories needs about 500 bytes, "
            "more than the 100 bytes of physical memory\n"
        )
        assert not out.exists() or not any(out.iterdir())


class TestConfigEcho:
    SOLVER_FLAGS = ["--dims", "2", "--starts", "3", "--seed", "5", "--epsilon", "1e-06",
                    "--max-iter", "50"]

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["fit", *ILLUSTRATION_K],
             {"k": {"Gender:Female": 2, "Gender:Male": 3, "Nationality:American": 2,
                    "Nationality:Japanese": 2}}),
            (["fit", "--k-auto", "--k-max", "4", "--export", "solution-json", "--export", "svg"],
             {"k": "auto", "k_max": 4, "exports": ["solution-json", "svg"]}),
            (["variants", "--method", "cluster-ca", "--k", "3"],
             {"k": 3, "method": "cluster-ca"}),
            (["variants", "--method", "removal"], {"method": "removal"}),
        ],
        ids=["fit", "fit-auto", "cluster-ca", "removal"],
    )
    def test_archive_echoes_the_command(self, illustration_csv, tmp_path, argv, extra):
        out = tmp_path / "o"
        argv = [*argv, "--input", str(illustration_csv), "--sup-cols", "Nationality,,Gender",
                *self.SOLVER_FLAGS, "--out", str(out)]
        assert main(argv) == 0
        config = load_json(out / "solution.json")["config"]
        assert set(config.pop("k_selection", {})) == (
            {"Nationality", "Gender"} if extra.get("k") == "auto" else set()
        )
        assert config == {
            "input": str(illustration_csv),
            "sup_cols": "Nationality,Gender",
            "dims": 2,
            "starts": 3,
            "seed": 5,
            "epsilon": 1e-06,
            "max_iter": 50,
            "exports": ["solution-json", "coords-csv", "residuals-csv"],
            **extra,
        }


class TestCsvFieldLimit:
    @pytest.mark.parametrize(
        "command",
        [
            ["fit", "--k", "s:c1:1", "--k", "s:c2:1"],
            ["variants", "--method", "removal"],
        ],
        ids=["fit", "variants"],
    )
    def test_oversized_field_exit_2_in_one_line(self, tmp_path, command):
        # a cell longer than csv.field_size_limit() (131,072 characters)
        path = tmp_path / "big.csv"
        path.write_text(f"a,b,s\nx,y,c1\nx,{'z' * 200_000},c2\n", encoding="utf-8")
        argv = [*command[:1], "--input", str(path), "--sup-cols", "s", *command[1:]]
        result = run_module(*argv, "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        assert str(path) in result.stderr and "line 3" in result.stderr
        assert "field larger than field limit" in result.stderr
        assert not (tmp_path / "o").exists()


class TestOutputUnderRegularFile:
    """An output path below a regular file cannot be created: exit 4 with
    one line, whichever command writes it."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "afile"
        path.write_text("not a directory\n", encoding="utf-8")
        return path

    def _check(self, code, capsys, out):
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {out}")

    @pytest.mark.parametrize(
        "command",
        [[*ILLUSTRATION_K], ["--method", "mca"], ["--method", "averaging"]],
        ids=["fit", "variants-mca", "variants-averaging"],
    )
    def test_fit_and_variants(self, illustration_csv, blocker, capsys, command):
        name = "fit" if command[0] == "--k" else "variants"
        out = blocker / "sub"
        argv = [name, "--input", str(illustration_csv), "--sup-cols", "Nationality,Gender"]
        self._check(main([*argv, *command, "--starts", "2", "--out", str(out)]), capsys, out)

    def test_illustrate(self, blocker, capsys):
        out = blocker / "sub"
        self._check(main(["illustrate", "--out", str(out)]), capsys, out)

    def test_export_svg(self, illustration_csv, blocker, tmp_path, capsys):
        assert run_fit(illustration_csv, tmp_path / "fit") == 0
        capsys.readouterr()
        out = blocker / "sub" / "biplot.svg"
        archive = str(tmp_path / "fit" / "solution.json")
        self._check(main(["export-svg", "--archive", archive, "--out", str(out)]), capsys, out)

    def test_simulate(self, blocker, tmp_path, capsys, monkeypatch):
        calls = []

        def recording_fit(*args, **kwargs):
            calls.append(args)
            raise AssertionError("no cell may run")

        monkeypatch.setattr("mscca.simulation.fit_mscca", recording_fit)
        design = tmp_path / "design.json"
        design.write_text(
            json.dumps({"qs": [3], "ks": [2], "hs": [1], "rs": [2], "balances": ["balanced"],
                        "replicates": 1, "starts": 1, "n_obs": 40, "n_vars": 3}),
            encoding="utf-8",
        )
        out = blocker / "sub"
        self._check(main(["simulate", "--design", str(design), "--out", str(out)]), capsys, out)
        assert calls == []


class TestModuleEntry:
    def test_missing_flags_exit_non_zero(self, tmp_path):
        result = run_module("fit", cwd=tmp_path)
        assert result.returncode != 0
        assert "--input" in result.stderr

    def test_illustrate_writes_its_files(self, tmp_path):
        result = run_module("illustrate", "--out", str(tmp_path / "ill"), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert sorted(p.name for p in (tmp_path / "ill").iterdir()) == ["data.csv", "truth.json"]
        assert main(["illustrate", "--out", str(tmp_path / "direct")]) == 0
        for name in ("data.csv", "truth.json"):
            assert (tmp_path / "ill" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()

    def test_import_does_not_load_multiprocessing(self, tmp_path):
        # simulate imports its process pool only when it runs one
        code = "import sys, mscca.cli; sys.exit('multiprocessing' in sys.modules)"
        result = run_python("-c", code, cwd=tmp_path)
        assert result.returncode == 0, result.stderr

    def test_cli_module_runs_the_cli(self, tmp_path):
        result = run_module("fit", cwd=tmp_path, module="mscca.cli")
        assert result.returncode == 2
        assert "--input" in result.stderr
        result = run_module(
            "illustrate", "--out", str(tmp_path / "ill"), cwd=tmp_path, module="mscca.cli"
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert main(["illustrate", "--out", str(tmp_path / "direct")]) == 0
        for name in ("data.csv", "truth.json"):
            direct = (tmp_path / "direct" / name).read_bytes()
            assert (tmp_path / "ill" / name).read_bytes() == direct

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

    def test_summary_cells_follow_the_design_order(self, tmp_path):
        # q = 10 sorts before q = 5 as a string; the summary keeps the
        # order of results.csv
        path = tmp_path / "design.json"
        design = {
            "qs": [5, 10], "ks": [2], "hs": [1], "rs": [3], "balances": ["balanced"],
            "replicates": 1, "starts": 2, "n_obs": 120, "n_vars": 4, "seed": 3,
        }
        path.write_text(json.dumps(design), encoding="utf-8")
        out = tmp_path / "sim"
        assert main(["simulate", "--design", str(path), "--out", str(out)]) == 0
        with (out / "results.csv").open() as fh:
            results = [row["q"] for row in csv.DictReader(fh)]
        with (out / "summary.csv").open() as fh:
            summary = [row["q"] for row in csv.DictReader(fh)]
        assert summary == ["5", "10"] == list(dict.fromkeys(results))

    def test_bad_thread_count_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MSCCA_THREADS", "two")
        design = self._design(tmp_path)
        assert main(["simulate", "--design", str(design), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "MSCCA_THREADS" in err
        assert not (tmp_path / "o").exists()

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

    def test_non_utf8_design_exit_2(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        path.write_bytes(b'{"seed": 3, "note": "caf\xe9"}')
        assert main(["simulate", "--design", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "UTF-8" in err

    @pytest.mark.parametrize(
        "grid",
        [
            {"rs": [3, 1]}, {"qs": [1]}, {"ks": [2, 0]}, {"hs": [0]}, {"balances": ["skewed"]},
            {"p": 0}, {"max_iter": 0}, {"epsilon": 0}, {"epsilon": "small"}, {"n_obs": 0},
            {"n_vars": 0}, {"high_prob": 1.5}, {"active_ratio": -0.5}, {"seed": -1},
            {"starts": 0}, {"replicates": 0}, {"replicates": 1.5}, {"starts": 2.0},
            {"p": True}, {"seed": None},
        ],
    )
    def test_out_of_range_grid_exit_2_before_any_cell(self, tmp_path, capsys, monkeypatch, grid):
        calls = []

        def recording_fit(*args, **kwargs):
            calls.append(args)
            raise AssertionError("no cell may run")

        monkeypatch.setattr("mscca.simulation.fit_mscca", recording_fit)
        path = tmp_path / "bad.json"
        design = {"replicates": 1, "starts": 1, "n_obs": 60, "n_vars": 4, **grid}
        path.write_text(json.dumps(design), encoding="utf-8")
        assert main(["simulate", "--design", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and next(iter(grid)) in err
        assert calls == []
        assert not (tmp_path / "o").exists()


# Flags that take a number, and the ones that also get huge values (the
# others would turn a huge value into a long run, not into an error).
_NUMBER_FLAGS = ("--dims", "--starts", "--seed", "--epsilon", "--max-iter", "--k-max", "--k")
_HUGE_FLAGS = ("--dims", "--k-max", "--seed", "--max-iter")
_CSV_MUTATIONS = (
    "ragged-short", "ragged-long", "empty-cell", "bom", "nul", "quoted-newline",
    "header-only", "huge-field",
)
_DESIGN_FIELDS = (
    "qs", "ks", "hs", "rs", "balances", "replicates", "starts", "n_obs", "n_vars",
    "high_prob", "active_ratio", "p", "max_iter", "epsilon", "seed",
)
_COMMANDS = {
    "fit": ["fit", *ILLUSTRATION_K],
    "fit-auto": ["fit", "--k-auto", "--k-max", "4"],
    "averaging": ["variants", "--method", "averaging"],
    "removal": ["variants", "--method", "removal"],
    "cluster-ca": ["variants", "--method", "cluster-ca", "--k", "3"],
    "mca": ["variants", "--method", "mca"],
}


def _number(flag):
    values = st.one_of(
        st.integers(-3, 0).map(str),
        st.sampled_from(["0.5", "-0.5", "1.5", "nan", "NaN", "-nan", "1e-3"]),
    )
    if flag in _HUGE_FLAGS:
        values |= st.sampled_from([str(10**15), str(2**63), "9" * 40])
    return values


@st.composite
def _flag_case(draw):
    """A fit or variants run on the illustration CSV with mutated numbers."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = list(_COMMANDS[command]) + ["--starts", "2"]
    flags = [f for f in _NUMBER_FLAGS if f != "--k-max" or argv[0] == "fit"]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=2)):
        value = draw(_number(flag))
        if flag == "--k" and command.startswith("fit"):
            argv += ["--k", f"Gender:Male:{value}"]  # a repeated class, or an extra --k
        else:
            argv += [flag, value]
    return {"argv": argv, "csv": [], "blocked": draw(st.booleans())}


@st.composite
def _csv_case(draw):
    """A run on the illustration CSV with broken rows or cells."""
    command = draw(st.sampled_from(["fit", "averaging", "removal", "mca"]))
    mutations = draw(
        st.lists(
            st.tuples(st.sampled_from(_CSV_MUTATIONS), st.integers(0, 400), st.integers(0, 3)),
            min_size=1,
            max_size=2,
        )
    )
    argv = list(_COMMANDS[command]) + ["--starts", "2"]
    return {"argv": argv, "csv": mutations, "blocked": False}


_BAD_VALUES = st.sampled_from(
    [-1, 0, 1.5, "x", None, True, [], {}, [0], [1], [-2], ["x"], [2.5], [None], float("nan"),
     float("inf")]
)


@st.composite
def _design_case(draw):
    """A tiny simulation design with one or two fields out of range or of
    the wrong type."""
    design = {
        "qs": [draw(st.integers(2, 3))], "ks": [draw(st.integers(1, 3))],
        "hs": [draw(st.integers(1, 3))], "rs": [draw(st.integers(2, 3))],
        "balances": [draw(st.sampled_from(["balanced", "unbalanced"]))],
        "replicates": 1, "starts": 1, "n_obs": draw(st.integers(1, 40)),
        "n_vars": draw(st.integers(1, 3)), "max_iter": 20,
    }
    for field in draw(st.lists(st.sampled_from(_DESIGN_FIELDS), max_size=2)):
        design[field] = draw(_BAD_VALUES)
    return {"design": design, "blocked": draw(st.booleans())}


def _mutate_csv(text, mutations):
    lines = text.rstrip("\n").split("\n")
    for name, row, col in mutations:
        i = 1 + row % (len(lines) - 1) if len(lines) > 1 else 0
        cells = lines[i].split(",")
        j = col % len(cells)
        if name == "ragged-short":
            cells = cells[:-1]
        elif name == "ragged-long":
            cells.append(cells[-1])
        elif name == "empty-cell":
            cells[j] = ""
        elif name == "nul":
            cells[j] += "\x00"
        elif name == "quoted-newline":
            cells[j] = f'"{cells[j][:2]}\n{cells[j][2:]}"'
        elif name == "huge-field":
            cells[j] = "z" * (csv.field_size_limit() + 1)
        elif name == "header-only":
            lines = lines[:1]
            continue
        lines[i] = ",".join(cells)
    text = "\n".join(lines) + "\n"
    return "\ufeff" + text if any(m[0] == "bom" for m in mutations) else text


class TestMutatedInvocations:
    """Whatever the flags, input CSV or design, a command ends with a
    documented exit code, and a failure prints one line."""

    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutated")

    @settings(max_examples=150)
    @given(case=st.one_of(_flag_case(), _csv_case(), _design_case()))
    def test_documented_exit_and_one_line(self, illustration_csv, workspace, case):
        work = Path(tempfile.mkdtemp(dir=workspace))
        out = work / "out"
        if case["blocked"]:
            (work / "afile").write_text("not a directory\n", encoding="utf-8")
            out = work / "afile" / "out"
        if "design" in case:
            (work / "design.json").write_text(json.dumps(case["design"]), encoding="utf-8")
            argv = ["simulate", "--design", str(work / "design.json")]
        else:
            data = illustration_csv
            if case["csv"]:
                data = work / "data.csv"
                text = _mutate_csv(illustration_csv.read_text(encoding="utf-8"), case["csv"])
                data.write_text(text, encoding="utf-8")
            argv = [*case["argv"][:1], "--input", str(data), "--sup-cols", "Nationality,Gender",
                    *case["argv"][1:]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code
        err = err.getvalue()
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        if code != 0:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        shutil.rmtree(work)
