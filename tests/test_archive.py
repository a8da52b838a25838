import copy
import csv
import io
import json
import os
import stat
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import mscca.archive
from mscca import (
    ClusterSpec,
    SolverOptions,
    archive,
    cli,
    encode_dataset,
    encode_supplementary,
    fit_mscca,
    generate_illustration,
    read_csv_dataset,
)
from mscca.archive import (
    ARCHIVE_FORMAT,
    RESIDUALS_HEADER,
    Records,
    ResidualTables,
    _round_one,
    _walk,
    assignment_from_archive,
    category_points,
    load_json,
    residual_rows,
    write_csv,
    write_json,
)
from mscca.cli import main
from mscca.biplot import BiplotModel
from mscca.errors import ConfigError, ShapeError
from conftest import residual_cells, round_floats_recursive, traced_peak


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
        column["classes"] = column["classes"][::-1]
        n = sup.n_obs

        def renamed(archive):
            archive["assignment"][1]["variable"] = "Age"

        def short_codes(archive):
            archive["assignment"][1]["class_codes"].pop()

        def short_clusters(archive):
            archive["assignment"][1]["clusters"].pop()

        def code_past_classes(archive):
            archive["assignment"][1]["class_codes"][3] = 2

        def negative_code(archive):
            archive["assignment"][1]["class_codes"][3] = -1

        def fractional_code(archive):
            archive["assignment"][1]["class_codes"][3] += 0.7  # once read as its integer part

        def fractional_cluster(archive):
            archive["assignment"][1]["clusters"][3] += 0.7

        def string_cluster(archive):
            archive["assignment"][1]["clusters"][3] = "x"

        def short_counts(archive):
            archive["cluster_counts"][1].pop()

        def missing_counts(archive):
            archive["cluster_counts"].pop()

        def extra_counts(archive):
            archive["cluster_counts"].append([2, 2])

        def fractional_count(archive):
            archive["cluster_counts"][1][0] += 0.5

        for edit, message in [
            (renamed, r"archived variables \['Nationality', 'Age'\] do not match input"),
            (short_codes, f"'Gender': archive does not hold {n} rows"),
            (short_clusters, f"'Gender': archive does not hold {n} rows"),
            (code_past_classes, r"'Gender': class codes outside \[0, 2\)"),
            (negative_code, r"'Gender': class codes outside \[0, 2\)"),
            (fractional_code, "'Gender': class codes are not all integers"),
            (fractional_cluster, "'Gender': clusters are not all integers"),
            (string_cluster, "'Gender': clusters are not all integers"),
            (short_counts, "'Gender': archive does not hold 2 counts"),
            (missing_counts, "archive holds counts of 1 variables, not 2"),
            (extra_counts, "archive holds counts of 3 variables, not 2"),
            (fractional_count, "'Gender': cluster counts are not all integers"),
        ]:
            edited = copy.deepcopy(truth_json)
            edit(edited)
            with pytest.raises(ShapeError, match=message) as err:
                assignment_from_archive(edited, sup)
            assert "\n" not in str(err.value)
        assignment_from_archive(truth_json, sup)  # the unedited archive loads


def _text(values):
    """The archive text of ``values`` as ``_walk`` writes it."""
    return "".join(_walk(values)) + "\n"


class TestVectorizedRounding:
    """``_walk`` on float arrays against the per-element oracle
    ``round_floats_recursive``, compared as JSON text (``_oracle_text``):
    equal text means equal floats, the sign of zero included."""

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
        assert _text(values) == _oracle_text(values)

    @pytest.mark.parametrize("value", EDGES, ids=repr)
    def test_edge_values_match_oracle(self, value):
        values = np.array([value, -value, 0.5, value])
        assert _text(values) == _oracle_text(values)

    def test_edge_values_in_blocks_and_shapes(self, monkeypatch):
        # blocks of 7 split the edges across block borders
        monkeypatch.setattr(archive, "_ROUND_BLOCK", 7)
        rng = np.random.default_rng(5)
        values = np.concatenate([self.EDGES, rng.standard_normal(60 - len(self.EDGES))])
        values = values.reshape(4, 3, 5)
        assert np.shape(json.loads(_text(values))) == (4, 3, 5)
        assert _text(values) == _oracle_text(values)
        column = values[:, 0]
        assert _text(column) == _oracle_text(column)
        assert _text(np.float64(-0.0)) == _oracle_text(np.float64(-0.0)) == "-0.0\n"
        assert _text(np.array(-0.0)) == "-0.0\n"

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    def test_other_float_dtypes_match_oracle(self, dtype):
        rng = np.random.default_rng(6)
        finite = [v for v in self.EDGES if np.isfinite(v) and abs(v) < 6e4]
        values = np.concatenate([finite, rng.standard_normal(200) * 100]).astype(dtype)
        assert _text(values) == _oracle_text(values)

    def test_normal_scores_take_the_fast_path(self, monkeypatch):
        fallbacks = []

        def round_one(x):
            fallbacks.append(x)
            return float(f"{x:.15g}")

        monkeypatch.setattr(archive, "_round_one", round_one)
        values = np.random.default_rng(7).standard_normal((100_000, 2))
        text = _text(values)
        assert fallbacks == []
        assert text == _oracle_text(values)
        _text(np.array(self.EDGES))
        assert len(fallbacks) >= 10  # zeros, subnormals, non-finite, ties, range ends


def _oracle_text(payload):
    """The archive text of ``payload`` by rounding every float on its own,
    with a residual section expanded to one record per cell from its
    models (``residual_cells``)."""
    if isinstance(payload, dict) and "residuals" in payload:
        cells = residual_cells(payload["residuals"])
        records = [dict(zip(RESIDUALS_HEADER, cell)) for cell in cells]
        payload = {**payload, "residuals": records}
    rounded = round_floats_recursive(payload)
    return json.dumps(rounded, sort_keys=True, separators=(",", ":")) + "\n"


def _written(directory, payload):
    path = directory / "a.json"
    write_json(path, payload)
    return path.read_text(encoding="utf-8")


# 0.9999999999999999 and 9.999999999999998 round up to a 16th digit
_SPECIALS = [
    *TestVectorizedRounding.EDGES,
    0.9999999999999999,
    9.999999999999998,
    999999999999999.7,
    1e-05,
    1.5e-05,
    1e-04,
    1234.0,
]

# Floats over exponents -10..16, integral values and the edge values.
_ELEMENTS = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-10, 16)),
    st.integers(-(10**16), 10**16).map(float),
    st.sampled_from(_SPECIALS),
)
_SHAPES = st.one_of(
    array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
    st.integers(0, 40).map(lambda n: (n, 1)),
)


class TestArrayEncoder:
    """``write_json`` writes float arrays straight from their mantissas;
    the text must be that of rounding every element on its own."""

    def _check(self, tmp_path_factory, array):
        payload = {
            "array": array,
            "rows": [array, {"x": array, "y": 1.5}],
            "records": [{"v": float(v), "c": [float(v), 2]} for v in array.ravel()[:5]],
            "array_records": [{"a": array, "b": 1.0}, {"a": array[:1], "b": 2}],
            "ragged_records": [{"a": 0.1, "c": (2.0,)}, {"a": -2.5}],
        }
        directory = tmp_path_factory.mktemp("json")
        assert _written(directory, payload) == _oracle_text(payload)

    @given(arrays(np.float64, _SHAPES, elements=_ELEMENTS))
    def test_arrays_match_oracle(self, tmp_path_factory, array):
        self._check(tmp_path_factory, array)

    @given(arrays(np.float64, _SHAPES, elements=_ELEMENTS))
    def test_arrays_match_oracle_across_blocks(self, tmp_path_factory, array):
        # blocks of 7 elements split rows and edge values across block borders
        with mock.patch.object(archive, "_ROUND_BLOCK", 7):
            self._check(tmp_path_factory, array)

    @pytest.mark.parametrize("block", [7, archive._ROUND_BLOCK])
    def test_edge_values(self, tmp_path_factory, block):
        values = np.array(_SPECIALS)
        with mock.patch.object(archive, "_ROUND_BLOCK", block):
            for array in (values, -values, values[:, None], np.stack([values, -values], 1)):
                self._check(tmp_path_factory, array)

    @pytest.mark.parametrize("dtype", [np.float32, np.longdouble])
    @pytest.mark.parametrize("shape", [(70,), (35, 2), (5, 7, 2)])
    def test_other_float_dtypes(self, tmp_path, dtype, shape):
        rng = np.random.default_rng(8)
        finite = [v for v in _SPECIALS if not np.isfinite(v) or abs(v) < 1e30]
        values = np.concatenate([finite, rng.standard_normal(70 - len(finite)) * 1e3])
        array = values.astype(dtype).reshape(shape)
        assert _written(tmp_path, {"a": array}) == _oracle_text({"a": array})

    def test_keys_other_than_strings(self, tmp_path):
        payload = {3: np.array([1.5, -0.0]), 1: [np.array([[0.1]]), 2.0], 2.5: None}
        assert _written(tmp_path, payload) == '{"1":[[[0.1]],2.0],"2.5":null,"3":[1.5,-0.0]}\n'
        assert _written(tmp_path, payload) == _oracle_text(payload)


_INT_DTYPES = st.sampled_from([np.int64, np.int32, np.int16, np.int8, np.uint8, np.uint64])


class TestIntegerArrays:
    """``write_json`` writes integer arrays from their digits; the text must
    be that of ``json.dumps(array.tolist())``."""

    def _check(self, tmp_path_factory, array):
        payload = {"a": array, "rows": [array, {"x": array, "y": 1.5}]}
        expected = json.dumps(array.tolist(), separators=(",", ":"))
        text = _written(tmp_path_factory.mktemp("json"), payload)
        assert text == f'{{"a":{expected},"rows":[{expected},{{"x":{expected},"y":1.5}}]}}\n'

    @given(st.data())
    def test_arrays_match_json(self, tmp_path_factory, data):
        dtype = data.draw(_INT_DTYPES)
        shape = data.draw(st.one_of(array_shapes(min_dims=0, max_dims=3, min_side=0), _SHAPES))
        info = np.iinfo(dtype)
        edges = st.sampled_from([info.min, info.min + 1, info.max, info.max - 1, 0, 9, 10])
        small = st.integers(max(info.min, -1000), min(info.max, 1000))
        elements = st.one_of(st.integers(info.min, info.max), edges, small)
        array = data.draw(arrays(dtype, shape, elements=elements))
        self._check(tmp_path_factory, array)
        with mock.patch.object(archive, "_ROUND_BLOCK", 7):
            self._check(tmp_path_factory, array)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (0, 3), (40,), (8, 5), (2, 4, 5)])
    def test_shapes(self, tmp_path_factory, dtype, shape):
        values = np.arange(-20, 20) * 997 if np.iinfo(dtype).min < 0 else np.arange(40) * 6
        array = values[: int(np.prod(shape))].astype(dtype).reshape(shape)
        self._check(tmp_path_factory, array)


@pytest.fixture(scope="module")
def tall_csv(tmp_path_factory):
    """A generated CSV of 20,000 rows: eight analysis variables and two
    supplementary ones of three classes each."""
    rng = np.random.default_rng(9)
    codes = rng.integers(0, 4, size=(20_000, 10))
    codes[:, 8:] %= 3
    names = [f"v{j + 1}" for j in range(8)] + ["s1", "s2"]
    lines = [",".join(names)] + [",".join(f"c{c}" for c in row) for row in codes.tolist()]
    path = tmp_path_factory.mktemp("tall") / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestCliArchivesMatchOracle:
    """The archives the CLI writes are the oracle serialization of the
    payloads it hands to ``write_json``."""

    def _run(self, tall_csv, out, argv, monkeypatch):
        common = ["--input", str(tall_csv), "--sup-cols", "s1,s2"]
        return self._run_at([*argv, *common], out, monkeypatch)

    def test_removal_archive(self, tmp_path, tall_csv, monkeypatch):
        payload = self._run(tall_csv, tmp_path, ["variants", "--method", "removal"], monkeypatch)
        assert payload["scores"].shape == (40_000, 2)

    def test_fit_archive(self, tmp_path, tall_csv, monkeypatch):
        calls = []
        real = archive._walk

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(archive, "_walk", counted)
        k = [x for s in ("s1", "s2") for c in ("c0", "c1", "c2") for x in ("--k", f"{s}:{c}:2")]
        argv = ["fit", *k, "--starts", "1", "--max-iter", "3"]
        payload = self._run(tall_csv, tmp_path, argv, monkeypatch)
        assert len(payload["residuals"]) == (6 + 12) * 32
        # point records are written column by column, not walked record by record
        assert 0 < len(calls) < 100

    def test_fit_archive_of_quoted_labels(self, tmp_path, monkeypatch):
        # labels that csv.writer quotes or that JSON escapes, end to end
        rng = np.random.default_rng(4)
        path = tmp_path / "quoted.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["v,1", 'v"2', "s"])
            for a, b, c in rng.integers(0, len(LABELS), size=(300, 3)).tolist():
                writer.writerow([LABELS[a], LABELS[b], LABELS[c % 3]])
        sections = []
        real = archive.write_csv

        def spy(path, header, rows):
            sections.append(rows)
            real(path, header, rows)

        monkeypatch.setattr(cli, "write_csv", spy)
        k = [x for c in LABELS[:3] for x in ("--k", f"s:{c}:2")]
        out = tmp_path / "out"
        argv = ["fit", "--input", str(path), "--sup-cols", "s", *k, "--starts", "2"]
        payload = self._run_at(argv, out, monkeypatch)
        section = sections[-1]
        assert section is payload["residuals"]
        assert (out / "residuals.csv").read_bytes().decode("utf-8") == _csv_oracle(section)
        assert {cell[3].split(":", 1)[1] for cell in residual_cells(section)} == set(LABELS)

    def _run_at(self, argv, out, monkeypatch):
        payloads = []

        def spy(path, payload):
            payloads.append(payload)
            write_json(path, payload)

        monkeypatch.setattr(cli, "write_json", spy)
        assert main([*argv, "--out", str(out)]) == 0
        (payload,) = payloads
        assert (out / "solution.json").read_text(encoding="utf-8") == _oracle_text(payload)
        return payload


# Labels that need quoting in CSV or escaping in JSON: a comma, a quote, a
# newline inside a quoted cell, a carriage return, a backslash, non-ASCII
# text and a vertical tab.
LABELS = [
    "a,b", 'say "hi"', "two\nlines", "back\\slash", "naïve €", "cr\rlf", "v\x0bt", "plain",
]
# Values whose JSON and CSV forms differ (1.0 is "1.0" and "1"), and the
# range ends of the fast encoder.
VALUES = [1.0, 1e-05, 1e16, -0.0, 0.0, -1.0, 0.1, 1 / 3, -2.5e-09, 123456.78901234567,
          9.999999999999998, float("nan"), float("inf"), -float("inf")]


def _model(row_labels, col_labels, row_index, residuals):
    k, q = residuals.shape
    return BiplotModel(
        table=np.zeros((k, q)), row_masses=np.zeros(k), col_masses=np.zeros(q),
        row_labels=tuple(row_labels), col_labels=tuple(col_labels), row_index=tuple(row_index),
        rows=np.arange(k), sizes=np.ones(k, dtype=np.int64), residuals=residuals,
    )


def _json_oracle(section):
    """The archive text of a residual section: ``json.dumps`` of one dict
    per cell, each value rounded on its own."""
    records = [
        {**dict(zip(RESIDUALS_HEADER, cell[:4])), "value": _round_one(cell[4])}
        for cell in residual_cells(section)
    ]
    return json.dumps({"residuals": records}, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_oracle(section):
    """``residuals.csv`` of a residual section through ``csv.writer``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RESIDUALS_HEADER)
    writer.writerows([*cell[:4], f"{cell[4]:.15g}"] for cell in residual_cells(section))
    return buffer.getvalue()


def _section(values, row_labels, col_labels, classes):
    """Two tables of ``values``: an averaging row per class and a mscca
    table of the given rows, each row of class ``i % len(classes)``."""
    sup = encode_supplementary([[c] for c in classes], ["s"])
    r = len(classes)
    k, q = len(row_labels), len(col_labels)
    flat = np.resize(np.asarray(values, dtype=float), (r + k) * q)
    averaging = _model(
        classes, col_labels, [(0, s, 0) for s in range(r)], flat[: r * q].reshape(r, q)
    )
    clustered = _model(row_labels, col_labels, [(0, i % r, i // r) for i in range(k)],
                       flat[r * q :].reshape(k, q))
    return ResidualTables((("averaging", averaging), ("mscca", clustered)), sup)


def _write_section(directory, section):
    write_json(directory / "s.json", {"residuals": section})
    write_csv(directory / "r.csv", RESIDUALS_HEADER, section)
    # bytes, as a text read would turn "\r" into "\n"
    return tuple((directory / name).read_bytes().decode("utf-8") for name in ("s.json", "r.csv"))


class TestResidualWriters:
    """The residual section is written from its tables' arrays, byte for
    byte as ``json.dumps`` and ``csv.writer`` write its records."""

    def test_labels_and_values_match_oracles(self, tmp_path):
        section = _section(VALUES, [*LABELS, ""], LABELS, LABELS[:3])
        assert len(section) == (3 + 9) * len(LABELS)
        text, table = _write_section(tmp_path, section)
        assert text == _json_oracle(section)
        assert table == _csv_oracle(section)
        # the two forms differ where the oracles say they do
        assert '"value":1.0}' in text and '"value":-0.0}' in text and '"value":1e+16}' in text
        assert ",1\n" in table and ",-0\n" in table and ",1e+16\n" in table and ",1e-05\n" in table
        assert '"a,b"' in table and '"say ""hi"""' in table and '"two\nlines"' in table

    @given(
        st.lists(_ELEMENTS, min_size=1, max_size=30),
        st.lists(st.text(max_size=4), min_size=1, max_size=4),
        st.lists(
            st.text(alphabet=st.sampled_from('a,"\n\\é\r'), max_size=4), min_size=1, max_size=5
        ),
    )
    def test_drawn_sections_match_oracles(self, tmp_path_factory, values, rows, columns):
        section = _section(values, rows, columns, ["x", "y\n"])
        text, table = _write_section(tmp_path_factory.mktemp("res"), section)
        assert text == _json_oracle(section)
        assert table == _csv_oracle(section)

    def test_tables_without_cells(self, tmp_path):
        sup = encode_supplementary([["x"]], ["s"])
        empty = _model([], ["c"], [], np.zeros((0, 1)))
        section = ResidualTables((("mscca", empty),), sup)
        assert not section
        assert "".join(_walk({"residuals": section})) == '{"residuals":[]}'
        full = _section([0.5], ["r"], ["c"], ["x"])
        both = ResidualTables((("mscca", empty), *full.tables), full.sup)
        assert _write_section(tmp_path, both) == (_json_oracle(both), _csv_oracle(both))

    def test_files_get_their_text_table_by_table(self, tmp_path, monkeypatch):
        # Both writers hand the file its text in pieces of at most one block
        # of records, each within one table: no piece holds two tables'
        # records or more than _ROUND_BLOCK of them, so neither a table's
        # text nor the file's is ever one string.
        monkeypatch.setattr(archive, "_ROUND_BLOCK", 4)
        section = _section(VALUES, [*LABELS, ""], LABELS, LABELS[:3])  # 3 + 9 rows of 8 cells
        points = category_points([f"p{i}" for i in range(10)], np.ones(10), np.ones((10, 2)))
        payload = {"a": np.arange(3.0), "points": points, "residuals": section, "z": [{"x": 0.5}]}
        write_text, written = mscca.archive.write_text, {}

        def recording(path, text):
            written[path.name] = list(text)
            write_text(path, written[path.name])

        monkeypatch.setattr(mscca.archive, "write_text", recording)
        write_json(tmp_path / "s.json", payload)
        write_csv(tmp_path / "r.csv", RESIDUALS_HEADER, section)
        # the text that starts each record of each table
        starts = {
            "s.json": {"averaging": '"method":"averaging"', "mscca": '"method":"mscca"',
                       "points": '"label":"p'},
            "r.csv": {"averaging": "\naveraging,", "mscca": "\nmscca,"},
        }
        for name, marks in starts.items():
            pieces = written[name]
            assert "".join(pieces) == (tmp_path / name).read_bytes().decode("utf-8")
            held = [[(table, ("\n" + piece).count(mark)) for table, mark in marks.items()
                     if mark in "\n" + piece] for piece in pieces]
            held = [tables for tables in held if tables]
            assert all(len(tables) == 1 for tables in held)
            assert all(n <= 4 for ((_table, n),) in held)
            # each row of 8 cells is two pieces, and the 10 points are three
            expected = {"averaging": 6, "mscca": 18, "points": 3}
            assert Counter(table for ((table, _n),) in held) == {t: expected[t] for t in marks}
        assert load_json(tmp_path / "s.json")["a"] == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_sections_across_block_borders_match_oracles(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(archive, "_ROUND_BLOCK", block)
        # rows of 7 cells and 8 records cross the block borders
        section = _section(VALUES, LABELS[:5], [*LABELS[:6], ""], LABELS[:2])
        no_cells = [("mscca", _model([], ["c"], [], np.zeros((0, 1)))),
                    ("mscca", _model(["r"], [], [(0, 0, 0)], np.zeros((1, 0))))]
        mixed = ResidualTables((no_cells[0], *section.tables, no_cells[1]), section.sup)
        assert _write_section(tmp_path, mixed) == (_json_oracle(mixed), _csv_oracle(mixed))
        coords = np.array(VALUES[:8] * 2).reshape(2, 8).T
        points = Records({"label": LABELS, "mass": np.array(VALUES[-8:]), "coords": coords,
                          "size": [None, 1, 2, 3, 4, 5, 6, 7], "flat": np.zeros((8, 0))})
        empty = Records({"label": [], "coords": np.zeros((0, 2))})
        payload = {"points": points, "empty": empty, "none": Records({}), "residuals": mixed}
        assert _written(tmp_path, payload) == _oracle_text(payload)
        assert len(json.loads(_written(tmp_path, payload))["points"]) == 8

    def test_removal_archive_has_no_section(self, tmp_path, tall_csv):
        argv = ["variants", "--method", "removal", "--input", str(tall_csv),
                "--sup-cols", "s1,s2", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert not (tmp_path / "residuals.csv").exists()
        assert residual_rows({"format": "mscca-variant"}) is None


# The tracemalloc peak of writing the default exports of the archive below,
# per residual cell, as measured when both record sections were first
# written a block of records at a time (writing each residual table's text
# whole measured 147; the per-cell record path before it, 512).
EXPORT_PEAK_PER_CELL = 63


def test_export_peak_per_residual_cell(tmp_path):
    # a column of distinct labels: Q = n + 4 columns, K = 4 cluster rows
    # beside 2 class rows
    n = 16_000
    rng = np.random.default_rng(3)
    raw = [[f"x{i}", f"b{c}"] for i, c in enumerate(rng.integers(0, 4, n).tolist())]
    dataset = encode_dataset(raw, ["a", "b"])
    sup = encode_supplementary([[c] for c in rng.choice(["A", "B"], n).tolist()], ["s"])
    solution = fit_mscca(
        dataset, sup, ClusterSpec.uniform(sup, 2), SolverOptions(n_starts=1, max_iter=3)
    )
    payload = cli._clustering_archive({}, dataset, solution)
    cells = len(payload["residuals"])
    assert cells >= 80_000

    def export():
        cli._write_exports(tmp_path, payload, list(cli.DEFAULT_EXPORTS))

    export()  # lazy set-up first
    peak = traced_peak(export)
    assert peak / cells < 2 * EXPORT_PEAK_PER_CELL, peak / cells
