"""The benchmark tracer can wrap every binding it needs in the library."""
import importlib
from pathlib import Path

import zonotile.cli  # noqa: F401  the tracer patches every zonotile module
from zonotile import linalg, structure

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls(monkeypatch):
    # install() raises when a by-name import it wraps (such as structure.rank_of)
    # is gone, which would fail every traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    original = linalg.rank_of
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert structure.rank_of is not original
    finally:
        tracer.uninstall()
    assert structure.rank_of is original and linalg.rank_of is original
