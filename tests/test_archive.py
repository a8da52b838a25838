import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mscca import generate_illustration, read_csv_dataset
from mscca.archive import (
    ARCHIVE_FORMAT,
    assignment_from_archive,
    load_json,
    write_csv,
    write_json,
)
from mscca.cli import main
from mscca.errors import ConfigError, ShapeError
from conftest import round_floats_recursive


@pytest.fixture
def umask():
    """Set the process umask for one test and restore it afterwards."""
    saved = os.umask(0o022)
    try:
        yield os.umask
    finally:
        os.umask(saved)


def _mode(path):
    return stat.S_IMODE(path.stat().st_mode)


def _export_svg(directory):
    """Render a one-point archive to ``biplot.svg`` through the CLI."""
    archive = directory / "archive.json"
    write_json(archive, {"biplot": {"categories": [{"label": "a", "coords": [0.5, -0.5]}]}})
    argv = ["export-svg", "--archive", str(archive), "--out", str(directory / "biplot.svg")]
    assert main(argv) == 0


class TestAtomicWrites:
    @pytest.mark.parametrize("mask, expected", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_files_get_the_umask_mode(self, tmp_path, umask, mask, expected):
        umask(mask)
        write_json(tmp_path / "solution.json", {"a": 1.0})
        write_csv(tmp_path / "coords.csv", ["x", "y"], [[1.0, "a"]])
        assert _mode(tmp_path / "solution.json") == expected
        assert _mode(tmp_path / "coords.csv") == expected
        _export_svg(tmp_path)
        assert _mode(tmp_path / "biplot.svg") == expected

    def test_no_temporary_files_left(self, tmp_path):
        write_json(tmp_path / "solution.json", {"b": [1, 2]})
        write_csv(tmp_path / "coords.csv", ["x", "y"], [[None, 0.1]])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coords.csv", "solution.json"]
        assert load_json(tmp_path / "solution.json") == {"b": [1, 2]}
        assert (tmp_path / "coords.csv").read_text(encoding="utf-8") == "x,y\n,0.1\n"

    def test_svg_replaced_not_rewritten_in_place(self, tmp_path):
        # a hard link to the old file keeps the old bytes: the SVG arrives
        # through a temporary file and a rename
        (tmp_path / "biplot.svg").write_text("old", encoding="utf-8")
        os.link(tmp_path / "biplot.svg", tmp_path / "old.svg")
        _export_svg(tmp_path)
        assert (tmp_path / "old.svg").read_text(encoding="utf-8") == "old"
        assert "<svg" in (tmp_path / "biplot.svg").read_text(encoding="utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.json", "biplot.svg", "old.svg"]



class TestArchiveFormat:
    def test_compact_sorted_json(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": [1.0, 2], "a": {"d": "x", "c": None}})
        text = (tmp_path / "a.json").read_text(encoding="utf-8")
        assert text == '{"a":{"c":null,"d":"x"},"b":[1.0,2]}\n'

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=0, max_dims=3, max_side=5),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5),
    )
    def test_floats_match_recursive_rounding(self, tmp_path_factory, array, values):
        payload = {
            "array": array,
            "values": values,
            "nested": [{"x": np.float64(v), "n": np.int64(3)} for v in values],
            "ints": np.arange(4),
        }
        path = tmp_path_factory.mktemp("json") / "a.json"
        write_json(path, payload)
        oracle = round_floats_recursive(payload)
        expected = json.dumps(oracle, sort_keys=True, separators=(",", ":")) + "\n"
        # equal text: every float has the same repr, so the same value and sign
        assert path.read_text(encoding="utf-8") == expected

    def test_illustration_truth_round_trip(self, tmp_path):
        assert main(["illustrate", "--out", str(tmp_path)]) == 0
        truth_json = load_json(tmp_path / "truth.json")
        assert truth_json["format"] == ARCHIVE_FORMAT
        _ds, sup = read_csv_dataset(tmp_path / "data.csv", ["Nationality", "Gender"])
        rebuilt = assignment_from_archive(truth_json, sup)
        _ds, _sup, truth = generate_illustration()
        assert rebuilt.spec == truth.spec
        assert np.array_equal(rebuilt.clusters, truth.clusters)

    def test_other_format_rejected_in_one_line(self, tmp_path):
        assert main(["illustrate", "--out", str(tmp_path)]) == 0
        truth_json = load_json(tmp_path / "truth.json")
        _ds, sup = read_csv_dataset(tmp_path / "data.csv", ["Nationality", "Gender"])
        old = {"format": "mscca-archive", "cluster_counts": truth_json["cluster_counts"]}
        with pytest.raises(ConfigError) as err:
            assignment_from_archive(old, sup)
        message = str(err.value)
        assert "'mscca-archive'" in message and "\n" not in message

    def test_class_mismatch_rejected(self, tmp_path):
        assert main(["illustrate", "--out", str(tmp_path)]) == 0
        truth_json = load_json(tmp_path / "truth.json")
        _ds, sup = read_csv_dataset(tmp_path / "data.csv", ["Nationality", "Gender"])
        column = truth_json["assignment"][1]
        column["class_codes"][7] = 1 - column["class_codes"][7]
        with pytest.raises(ShapeError, match="observation 7"):
            assignment_from_archive(truth_json, sup)
        column["class_codes"][7] = 1 - column["class_codes"][7]
        column["classes"] = column["classes"][::-1]
        with pytest.raises(ShapeError, match="observation 0"):
            assignment_from_archive(truth_json, sup)
