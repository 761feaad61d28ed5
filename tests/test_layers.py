"""The benchmark's trace pass wraps the opelab functions named in
``perfbench/layers.py``; every one of them must still exist."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for targets in layers.SPANS.values():
        for module, qualname, _ in targets:
            owner = importlib.import_module("opelab." + module)
            *path, name = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            # the tracer rebinds the name where it is defined
            if name not in getattr(owner, "__dict__", {}):
                missing.append("%s.%s" % (module, qualname))
    assert not missing, missing
