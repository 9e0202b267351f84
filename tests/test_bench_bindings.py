"""Every function the benchmark's tracer wraps still exists in the package.

``perfbench/spans.py`` looks each wrapped name up when a benchmark run
starts, so a renamed or removed function would stop every run; this
test fails first instead.  The tracer module is loaded from its file
and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
ROWS = sorted({(module, path) for _, module, path, *_ in spans.SPANS + spans.COUNTED})


@pytest.mark.parametrize("module, path", ROWS)
def test_tracer_row_resolves(module, path):
    importlib.import_module(f"clusteralg.{module}")
    owner, attr = spans._resolve(module, path)
    assert callable(getattr(owner, attr, None)), f"clusteralg.{module}.{path}"
