import os
import stat

import pytest

from mscca.archive import load_json, write_csv, write_json


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


class TestAtomicWrites:
    @pytest.mark.parametrize("mask, expected", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_files_get_the_umask_mode(self, tmp_path, umask, mask, expected):
        umask(mask)
        write_json(tmp_path / "solution.json", {"a": 1.0})
        write_csv(tmp_path / "coords.csv", ["x", "y"], [[1.0, "a"]])
        assert _mode(tmp_path / "solution.json") == expected
        assert _mode(tmp_path / "coords.csv") == expected

    def test_no_temporary_files_left(self, tmp_path):
        write_json(tmp_path / "solution.json", {"b": [1, 2]})
        write_csv(tmp_path / "coords.csv", ["x", "y"], [[None, 0.1]])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coords.csv", "solution.json"]
        assert load_json(tmp_path / "solution.json") == {"b": [1, 2]}
        assert (tmp_path / "coords.csv").read_text(encoding="utf-8") == "x,y\n,0.1\n"

