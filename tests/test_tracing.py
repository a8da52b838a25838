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
