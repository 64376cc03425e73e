"""Every name the benchmark tracer patches must exist in qpcert.

bench/spans.py lists its trace points as (layer, module, attribute,
counter) in POINTS, and Tracer.install looks each one up: a module
attribute, or a method in its class's own __dict__.  A point whose name
left the package would fail only a traced benchmark run; this test reads
the same list, loaded by path, and resolves every entry the same way.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"


def _points():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.POINTS


@pytest.mark.skipif(not SPANS.is_file(), reason="bench/spans.py is not in this checkout")
def test_every_trace_point_resolves():
    points = _points()
    assert points
    for layer, module, attr, _ in points:
        home = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = getattr(home, cls_name).__dict__.get(meth)
        else:
            target = getattr(home, attr, None)
        assert callable(target), (layer, module, attr)
