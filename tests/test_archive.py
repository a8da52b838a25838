import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mscca import archive, generate_illustration, read_csv_dataset
from mscca.archive import (
    ARCHIVE_FORMAT,
    _round_floats,
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


def _bits(values):
    """The float64 bit patterns of a flat list or a nested list of floats."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestVectorizedRounding:
    """``_round_floats`` on float arrays against the per-element oracle
    ``round_floats_recursive``, compared bit for bit (sign of zero and NaN
    included)."""

    EDGES = [
        9.99999999999999e-09,  # log10 rounds up to -8; rint of the product is 1e14
        9.999999999999995e-05,
        9.99999999999999e10,  # log10 rounds up to 11: the product is below 1e14
        99999999999999.9,
        123456789012345.5,  # exact ties: a final 5 as the 16th digit
        123456789012346.5,
        999999999999999.5,
        1e15,
        1e14,
        1e-08,
        0.0,
        -0.0,
        5e-324,
        1e-310,
        1.7976931348623157e308,
        -1.7976931348623157e308,
        float("nan"),
        float("inf"),
        float("-inf"),
        0.1,
        -2.5e-05,
        0.30000000000000004,
    ]

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["bits", "normal", "scaled"]),
        st.integers(10_000, 30_000),
    )
    def test_large_arrays_match_oracle(self, seed, kind, size):
        rng = np.random.default_rng(seed)
        if kind == "bits":
            values = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
        elif kind == "normal":
            values = rng.standard_normal(size)
        else:
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-12, 18, size)
        assert _bits(_round_floats(values)) == _bits(round_floats_recursive(values))

    @pytest.mark.parametrize("value", EDGES, ids=repr)
    def test_edge_values_match_oracle(self, value):
        values = np.array([value, -value, 0.5, value])
        assert _bits(_round_floats(values)) == _bits(round_floats_recursive(values))

    def test_edge_values_in_blocks_and_shapes(self, monkeypatch):
        # blocks of 7 split the edges across block borders
        monkeypatch.setattr(archive, "_ROUND_BLOCK", 7)
        rng = np.random.default_rng(5)
        values = np.concatenate([self.EDGES, rng.standard_normal(60 - len(self.EDGES))])
        values = values.reshape(4, 3, 5)
        rounded = _round_floats(values)
        assert np.shape(rounded) == (4, 3, 5)
        assert _bits(rounded) == _bits(round_floats_recursive(values))
        assert _bits(_round_floats(values[:, 0])) == _bits(round_floats_recursive(values[:, 0]))
        assert _round_floats(np.float64(-0.0)) == 0.0
        assert np.signbit(_round_floats(np.array(-0.0)))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    def test_other_float_dtypes_match_oracle(self, dtype):
        rng = np.random.default_rng(6)
        finite = [v for v in self.EDGES if np.isfinite(v) and abs(v) < 6e4]
        values = np.concatenate([finite, rng.standard_normal(200) * 100]).astype(dtype)
        rounded = _round_floats(values)
        assert all(type(v) is float for v in rounded)
        assert _bits(rounded) == _bits(round_floats_recursive(values))

    def test_normal_scores_take_the_fast_path(self, monkeypatch):
        fallbacks = []

        def round_one(x):
            fallbacks.append(x)
            return float(f"{x:.15g}")

        monkeypatch.setattr(archive, "_round_one", round_one)
        values = np.random.default_rng(7).standard_normal((100_000, 2))
        rounded = _round_floats(values)
        assert fallbacks == []
        assert _bits(rounded) == _bits(round_floats_recursive(values))
        _round_floats(np.array(self.EDGES))
        assert len(fallbacks) >= 10  # zeros, subnormals, non-finite, ties, range ends
