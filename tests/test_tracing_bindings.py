"""The benchmark tracer's wrap list names callables that still exist.

`bench/tracing.py` replaces `(module, attribute)` pairs with timing
wrappers, so renaming or dropping one of those bindings silently loses
a per-layer figure.  This reads the list without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_binding_is_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unbound = [f"{module}.{attr}" for module, attr, _, _ in tracing.WRAPS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert unbound == []
