"""The benchmark's trace table names functions that exist."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_traced_layer_resolves_to_a_callable(monkeypatch):
    # a refactor that renames or drops a traced function would otherwise
    # lose its span without any error until a traced bench run
    monkeypatch.syspath_prepend(PERFBENCH)
    worker = importlib.import_module("worker")
    assert worker.TRACED
    for module, attr, span in worker.TRACED:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, span)
