"""Every name the benchmark's tracer patches still resolves.

``perfbench/tracing.py`` times code layers by patching public names listed
in its ``PATCHES`` table.  Deleting or renaming one of them breaks the
traced benchmark run, which only the slow ``perfbench/test_smoke.py`` job
would otherwise notice.  This installs the real patches once and checks
that each entry was found and put back.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves_and_is_restored():
    tracing = _load_tracing()
    clock = tracing.LayerClock()
    with clock.installed() as saved:
        assert len(saved) == len(tracing.PATCHES)
        for (owner, name, original), (_, attribute, _) in zip(
            saved, tracing.PATCHES
        ):
            assert attribute.rsplit(".", 1)[-1] == name
            assert callable(original)
            assert vars(owner)[name] is not original
    assert tracing.all_restored(saved)
