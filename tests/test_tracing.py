"""The benchmark tracer's patch list resolves against the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_is_restored():
    tracing = _load_tracing()
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _name in tracing.TARGETS
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), original in originals.items():
            assert getattr(importlib.import_module(module), attr) is not original
    finally:
        tracer.restore()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_every_cli_target_records_a_span(tmp_path):
    # A call moved out of mscca.cli would leave its span name unrecorded.
    cli = importlib.import_module("mscca.cli")
    assert cli.main(["illustrate", "--out", str(tmp_path / "ill")]) == 0
    common = ["--input", str(tmp_path / "ill" / "data.csv"), "--sup-cols", "Nationality,Gender"]
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        main = importlib.import_module("mscca.cli").main
        k_flags = ["--k", "Nationality:American:2", "--k", "Nationality:Japanese:2",
                   "--k", "Gender:Male:3", "--k", "Gender:Female:2"]
        assert main(["fit", *common, *k_flags, "--starts", "2", "--out", str(tmp_path / "fit")]) == 0
        argv = ["variants", *common, "--method", "removal", "--out", str(tmp_path / "var")]
        assert main(argv) == 0
    finally:
        tracer.restore()
    recorded = {name for name, _start, _end, _parent in tracer.spans}
    expected = {name for module, _attr, name in tracing.TARGETS if module == "mscca.cli"}
    missing = (expected | {"biplot.contingency"}) - recorded
    assert not missing, missing
