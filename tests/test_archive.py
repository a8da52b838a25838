import os
import stat

import pytest

from mscca.archive import load_json, write_csv, write_json
from mscca.cli import main


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

