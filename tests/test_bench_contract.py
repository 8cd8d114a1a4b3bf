"""The benchmark's per-layer metrics name functions that must exist.

`bench/run.py --trace 1` times every public function of the cora layers
and fails when a per-layer metric declared in BENCHMARK.json was not
measured. A metric `<layer>.<func>.calls` or `<layer>.<func>.self_s`
therefore needs `cora.<layer>.<func>` to stay a public function defined
in that module; this test catches a rename or a removal before a traced
benchmark run does.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_functions() -> list[tuple[str, str]]:
    """(layer, function) for every per-layer call count or self time."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted(
        {tuple(name.split(".")[:2]) for name in names if name.endswith((".calls", ".self_s"))}
    )


def test_declared_layer_functions_are_public_functions_of_their_module():
    declared = declared_functions()
    assert declared, "BENCHMARK.json declares no per-layer call counts"
    missing = []
    for layer, func in declared:
        module = importlib.import_module(f"cora.{layer}")
        obj = getattr(module, func, None)
        if (
            func.startswith("_")
            or not inspect.isfunction(obj)
            or obj.__module__ != module.__name__
        ):
            missing.append(f"{layer}.{func}")
    assert not missing, f"declared in BENCHMARK.json, not a public function there: {missing}"
