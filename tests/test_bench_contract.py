"""The benchmark's per-layer metrics name functions that must exist.

`bench/run.py --trace 1` times every public function of the cora layers
and fails when a per-layer metric declared in BENCHMARK.json was not
measured. A metric `<layer>.<func>.calls` or `<layer>.<func>.self_s`
therefore needs `cora.<layer>.<func>` to stay a public function defined
in that module; this test catches a rename or a removal before a traced
benchmark run does. The tracer's work counters read call arguments, so
a signature change can break them as well; the last test runs one.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np

import cora.cli  # the tracer wraps every layer, cli included
from cora import detector, harness
from cora.channel import TrainConfig, etu_like_profile
from cora.harness import ExperimentConfig, ScenarioSpec
from cora.phy import PhyParams

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def load_tracer():
    """bench/tracer.py as a module, loaded without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("cora_bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


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


def test_tracer_counts_every_faded_sample():
    # 3 frames with 2 interferers each: one call fades the 3 targets, one
    # the 6 interferers, and every one of the 9 frames fades once
    scenario = ScenarioSpec(snr_db=5.0, n_interferers=2, fading_profile=etu_like_profile())
    cfg = ExperimentConfig(
        phy=PhyParams(sf=7), detector="baseline", scenario=scenario, symbols_per_frame=4
    )
    streams = [np.random.default_rng(seed) for seed in range(3)]
    tracer = load_tracer().Tracer()
    with tracer.installed():
        samples, _, _ = harness.simulate_frame(cfg, streams)
    assert tracer.calls["channel.apply_fading"] == 2
    assert tracer.counts["channel.apply_fading.samples"] == 9 * samples.shape[-1]


def test_tracer_counts_the_declared_frame_and_window_builders():
    # The declared names are the builders the campaigns and training run.
    # A four-frame SF7 collision campaign is one chunk in this process.
    scenario = ScenarioSpec(snr_db=10.0, n_interferers=1, sir_db=(-6.0, 0.0))
    cfg = ExperimentConfig(
        phy=PhyParams(sf=7), detector="baseline", scenario=scenario, n_frames=4, symbols_per_frame=4
    )
    tracer = load_tracer().Tracer()
    with tracer.installed():
        harness.run_experiment(cfg)
        # 200 windows of 256 bins are one chunk, so no worker is forked.
        # Forked training workers are not traced (ROADMAP item 14), so the
        # benchmark's 20k-window training still records 0 calls of it.
        detector.collect_training_features(TrainConfig(n_symbols=200, seed=1))
    assert tracer.calls["phy.build_frame"] >= 1
    assert tracer.calls["harness.simulate_frame"] >= 1
    assert tracer.calls["channel.gen_training_symbol"] == 1
