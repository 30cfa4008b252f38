"""Every layer the benchmark tracer wraps still exists in the package.

bench/spans.py names each traced callable by module and attribute path
and looks it up when a traced run starts; a renamed or deleted function
would only show up there.  This reads its LAYERS table without running
the tracer and resolves each entry the way `Tracer.install` does.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def resolve(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        raw = getattr(module, cls_name).__dict__[attr]
        return raw.__func__ if isinstance(raw, staticmethod) else raw
    return getattr(module, path)


def test_every_traced_layer_resolves():
    layers = load_layers()
    assert layers
    missing = []
    for name, module_name, path in layers:
        try:
            target = resolve(module_name, path)
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append((name, repr(exc)))
            continue
        if not callable(target):
            missing.append((name, "not callable"))
    assert not missing, missing
