"""Command-line front end: train grids, run campaigns, benchmark, demodulate.

Configs are flat `key=value` text files ('#' starts a comment). Exit codes:
0 success, 1 validation error, 2 runtime or I/O error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from cora.channel import TRAIN_FIELD_TYPES, TrainConfig, etu_like_profile
from cora.detector import (
    GridFormatError,
    TrainingError,
    collect_training_features,
    grid_from_samples,
    load_grid,
    save_grid,
)
from cora.harness import (
    ExperimentConfig,
    ScenarioSpec,
    bench_stages,
    receive,
    run_experiment,
    simulate_frame,
    write_csv,
)
from cora.phy import ComplexSignal, PhyParams, payload_start

IQ_MAGIC = "CORA-IQ v1"


class ConfigError(ValueError):
    """A config file failed schema validation."""


class IqFormatError(ValueError):
    """An IQ file does not follow the documented binary layout."""


# --- config files -----------------------------------------------------------


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value file into a string map."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _as_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _as_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _as_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {value!r}")


def _as_pair(value: str, key: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'low,high', got {value!r}")
    return (_as_float(parts[0], key), _as_float(parts[1], key))


def _as_float_list(value: str, key: str) -> list[float]:
    return [_as_float(v, key) for v in value.split(",") if v.strip() != ""]


def _as_int_list(value: str, key: str) -> list[int]:
    return [_as_int(v, key) for v in value.split(",") if v.strip() != ""]


def _check_keys(cfg: dict[str, str], allowed: set[str], context: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(
            f"{context}: unknown key(s) {', '.join(unknown)}; "
            f"valid keys: {', '.join(sorted(allowed))}"
        )


_TRAIN_PARSERS = {int: _as_int, float: _as_float, tuple: _as_pair}


def train_config_from_map(cfg: dict[str, str]) -> TrainConfig:
    _check_keys(cfg, set(TRAIN_FIELD_TYPES), "train config")
    kwargs = {key: _TRAIN_PARSERS[TRAIN_FIELD_TYPES[key]](value, key) for key, value in cfg.items()}
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_SCENARIO_KEYS = {
    "snr_db",
    "n_interferers",
    "sir_db",
    "offset_mode",
    "offset_samples",
    "fading",
}


def _scenario_from_map(cfg: dict[str, str], snr_db: float) -> ScenarioSpec:
    kwargs = {"snr_db": snr_db}
    if "n_interferers" in cfg:
        kwargs["n_interferers"] = _as_int(cfg["n_interferers"], "n_interferers")
    if "sir_db" in cfg:
        kwargs["sir_db"] = _as_pair(cfg["sir_db"], "sir_db")
    if "offset_mode" in cfg:
        kwargs["offset_mode"] = cfg["offset_mode"]
    if "offset_samples" in cfg:
        kwargs["offset_samples"] = _as_int(cfg["offset_samples"], "offset_samples")
    if _as_bool(cfg.get("fading", "false"), "fading"):
        kwargs["fading"] = True
        kwargs["fading_profile"] = etu_like_profile()
    try:
        return ScenarioSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_EVALUATE_KEYS = _SCENARIO_KEYS | {
    "detector",
    "sf",
    "bandwidth_hz",
    "n_frames",
    "symbols_per_frame",
    "preamble_len",
    "frame_error_threshold",
    "seed",
    "grid",
}


def _experiment_kwargs(cfg: dict[str, str]) -> dict:
    out = {}
    if "n_frames" in cfg:
        out["n_frames"] = _as_int(cfg["n_frames"], "n_frames")
    if "symbols_per_frame" in cfg:
        out["symbols_per_frame"] = _as_int(cfg["symbols_per_frame"], "symbols_per_frame")
    if "preamble_len" in cfg:
        out["preamble_len"] = _as_int(cfg["preamble_len"], "preamble_len")
    if "frame_error_threshold" in cfg:
        out["frame_error_threshold"] = _as_int(cfg["frame_error_threshold"], "frame_error_threshold")
    return out


def _phy_from_map(cfg: dict[str, str]) -> PhyParams:
    if "sf" not in cfg:
        raise ConfigError("config must set sf")
    kwargs = {"sf": _as_int(cfg["sf"], "sf")}
    if "bandwidth_hz" in cfg:
        kwargs["bandwidth_hz"] = _as_float(cfg["bandwidth_hz"], "bandwidth_hz")
    try:
        return PhyParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# --- IQ and sidecar files ----------------------------------------------------


def write_iq(path: str | Path, signal: ComplexSignal) -> None:
    """Write `CORA-IQ v1` header plus interleaved little-endian float32 I/Q."""
    samples = signal.samples
    header = f"{IQ_MAGIC} fs={format(signal.sample_rate_hz, '.17g')} n={samples.size}\n"
    inter = np.empty(2 * samples.size, dtype="<f4")
    inter[0::2] = samples.real.astype(np.float32)
    inter[1::2] = samples.imag.astype(np.float32)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(inter.tobytes())


def read_iq(path: str | Path) -> ComplexSignal:
    """Read an IQ file, checking the magic, sample count, and byte length."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        text = header.decode("ascii").rstrip("\n")
    except UnicodeDecodeError:
        raise IqFormatError(f"{path}: header is not ASCII") from None
    parts = text.split(" ")
    if len(parts) != 4 or " ".join(parts[:2]) != IQ_MAGIC:
        raise IqFormatError(f"{path}: bad header {text!r}; expected '{IQ_MAGIC} fs=<Hz> n=<samples>'")
    if not parts[2].startswith("fs=") or not parts[3].startswith("n="):
        raise IqFormatError(f"{path}: bad header fields {text!r}")
    try:
        fs = float(parts[2][3:])
        n = int(parts[3][2:])
    except ValueError:
        raise IqFormatError(f"{path}: unparseable header numbers in {text!r}") from None
    expected = 8 * n
    if len(payload) != expected:
        raise IqFormatError(
            f"{path}: expected {expected} payload bytes for {n} samples, "
            f"file ends at byte {len(header) + len(payload)}"
        )
    inter = np.frombuffer(payload, dtype="<f4")
    samples = inter[0::2].astype(np.float64) + 1j * inter[1::2].astype(np.float64)
    return ComplexSignal(samples, fs)


def write_sidecar(
    path: str | Path,
    window_starts: list[int],
    true_bins: list[int],
    interferers: list[tuple[int, float]] = (),
) -> None:
    """Write the demod truth table plus interferer placement comments."""
    lines = []
    for offset, gain_db in interferers:
        lines.append(f"# interferer offset={offset} gain_db={format(gain_db, '.17g')}")
    lines.append("window_start,true_bin")
    lines.extend(f"{s},{b}" for s, b in zip(window_starts, true_bins))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sidecar(path: str | Path) -> tuple[list[tuple[int, int]], list[tuple[int, float]]]:
    """Read (window_start, true_bin) rows and interferer comments back."""
    rows: list[tuple[int, int]] = []
    interferers: list[tuple[int, float]] = []
    saw_header = False
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if tokens[:1] == ["interferer"]:
                fields = dict(t.partition("=")[::2] for t in tokens[1:])
                try:
                    interferers.append((int(fields["offset"]), float(fields["gain_db"])))
                except (KeyError, ValueError):
                    raise IqFormatError(f"{path}:{lineno}: bad interferer comment") from None
            continue
        if not saw_header:
            if line != "window_start,true_bin":
                raise IqFormatError(
                    f"{path}:{lineno}: expected header 'window_start,true_bin', got {line!r}"
                )
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise IqFormatError(f"{path}:{lineno}: expected 'window_start,true_bin'")
        try:
            rows.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise IqFormatError(f"{path}:{lineno}: non-integer row {line!r}") from None
    if not saw_header:
        raise IqFormatError(f"{path}: missing 'window_start,true_bin' header")
    return rows, interferers


def _sidecar_path(iq_path: str | Path) -> Path:
    return Path(str(iq_path) + ".truth.csv")


# --- subcommands --------------------------------------------------------------


def _load_grid_checked(path: str):
    if not Path(path).exists():
        raise FileNotFoundError(f"grid file not found: {path}")
    return load_grid(path)


def cmd_train(args: argparse.Namespace) -> int:
    cfg_map = read_config(args.config)
    if args.seed is not None:
        cfg_map["seed"] = str(args.seed)
    cfg = train_config_from_map(cfg_map)
    start = time.perf_counter()
    samples = collect_training_features(cfg)
    elapsed = time.perf_counter() - start
    if args.verbose:
        print(
            f"generated {samples.n_generated} windows, kept {samples.n_kept} "
            f"in {elapsed:.2f} s ({samples.n_generated / elapsed:.0f} windows/s)"
        )
    grid = grid_from_samples(samples, cfg)
    save_grid(grid, args.out)
    print(
        f"kept {samples.n_kept}/{samples.n_generated} windows; "
        f"resolution={grid.resolution} prior={format(grid.prior, '.17g')}"
    )
    print(f"grid written to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg_map = read_config(args.config)
    if args.seed is not None:
        cfg_map["seed"] = str(args.seed)
    if args.detector is not None:
        cfg_map["detector"] = args.detector
    if args.grid is not None:
        cfg_map["grid"] = args.grid
    _check_keys(cfg_map, _EVALUATE_KEYS, "evaluate config")
    detector = cfg_map.get("detector", "baseline")
    phy = _phy_from_map(cfg_map)
    seed = _as_int(cfg_map.get("seed", "0"), "seed")
    snrs = _as_float_list(cfg_map.get("snr_db", "inf"), "snr_db")
    if not snrs:
        raise ConfigError("snr_db: need at least one value")
    grid = None
    if detector == "cora":
        if "grid" not in cfg_map:
            raise ConfigError("detector 'cora' needs a grid path (key 'grid' or --grid)")
        grid = _load_grid_checked(cfg_map["grid"])
    records = []
    for snr in snrs:
        scenario = _scenario_from_map(cfg_map, snr)
        try:
            exp = ExperimentConfig(
                phy=phy,
                detector=detector,
                scenario=scenario,
                seed=seed,
                grid=grid,
                **_experiment_kwargs(cfg_map),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        records.append(run_experiment(exp))
        if args.verbose:
            r = records[-1]
            print(f"snr={snr} detector={detector} ser={r.ser:.6g} prr={r.prr:.6g}")
    write_csv(records, args.out)
    print(f"wrote {len(records)} result row(s) to {args.out}")
    return 0


_BENCH_KEYS = {"sf_list", "bandwidth_hz", "snr_db", "n_warmup", "n_iter", "seed", "grid"}


def cmd_bench(args: argparse.Namespace) -> int:
    cfg_map = read_config(args.config)
    if args.seed is not None:
        cfg_map["seed"] = str(args.seed)
    if args.grid is not None:
        cfg_map["grid"] = args.grid
    _check_keys(cfg_map, _BENCH_KEYS, "bench config")
    if "grid" not in cfg_map:
        raise ConfigError("bench needs a grid path (key 'grid' or --grid)")
    grid = _load_grid_checked(cfg_map["grid"])
    sf_list = _as_int_list(cfg_map.get("sf_list", "8"), "sf_list")
    snr_db = _as_float(cfg_map.get("snr_db", "inf"), "snr_db")
    n_warmup = _as_int(cfg_map.get("n_warmup", "100"), "n_warmup")
    n_iter = _as_int(cfg_map.get("n_iter", "1000"), "n_iter")
    seed = _as_int(cfg_map.get("seed", "0"), "seed")
    bandwidth = _as_float(cfg_map.get("bandwidth_hz", "125e3"), "bandwidth_hz")
    records = []
    for sf in sf_list:
        try:
            phy = PhyParams(sf=sf, bandwidth_hz=bandwidth)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for detector in ("baseline", "cora"):
            exp = ExperimentConfig(
                phy=phy,
                detector=detector,
                scenario=ScenarioSpec(snr_db=snr_db),
                seed=seed,
                grid=grid if detector == "cora" else None,
            )
            rec = bench_stages(exp, n_warmup=n_warmup, n_iter=n_iter)
            records.append(rec)
            if args.verbose:
                total = rec.t_dechirp_s + rec.t_features_s + rec.t_classifier_s + rec.t_argmax_s
                print(f"sf={sf} detector={detector} total={total * 1e6:.2f} us/symbol")
    write_csv(records, args.out)
    print(f"wrote {len(records)} bench row(s) to {args.out}")
    return 0


_GEN_KEYS = _SCENARIO_KEYS | {
    "sf",
    "bandwidth_hz",
    "symbols_per_frame",
    "preamble_len",
    "seed",
}


def cmd_gen_scenario(args: argparse.Namespace) -> int:
    cfg_map = read_config(args.config)
    if args.seed is not None:
        cfg_map["seed"] = str(args.seed)
    _check_keys(cfg_map, _GEN_KEYS, "gen-scenario config")
    phy = _phy_from_map(cfg_map)
    seed = _as_int(cfg_map.get("seed", "0"), "seed")
    snr_db = _as_float(cfg_map.get("snr_db", "inf"), "snr_db")
    scenario = _scenario_from_map(cfg_map, snr_db)
    try:
        exp = ExperimentConfig(
            phy=phy,
            detector="baseline",
            scenario=scenario,
            seed=seed,
            n_frames=1,
            **_experiment_kwargs(cfg_map),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    samples, payload, interferers = simulate_frame(exp, rng)
    write_iq(args.out, ComplexSignal(samples, phy.sample_rate_hz))
    start = payload_start(exp.preamble_len, phy)
    starts = [start + k * phy.n for k in range(exp.symbols_per_frame)]
    write_sidecar(_sidecar_path(args.out), starts, [int(b) for b in payload], interferers)
    print(f"wrote {len(samples)} samples to {args.out}")
    print(f"wrote truth sidecar to {_sidecar_path(args.out)}")
    return 0


_DEMOD_KEYS = {"sf", "detector", "grid", "preamble_len", "sidecar"}


def cmd_demod(args: argparse.Namespace) -> int:
    cfg_map = read_config(args.config)
    if args.detector is not None:
        cfg_map["detector"] = args.detector
    if args.grid is not None:
        cfg_map["grid"] = args.grid
    _check_keys(cfg_map, _DEMOD_KEYS, "demod config")
    detector = cfg_map.get("detector", "baseline")
    if detector not in ("baseline", "cora"):
        raise ConfigError(f"detector must be baseline or cora, got {detector!r}")
    preamble_len = _as_int(cfg_map.get("preamble_len", "8"), "preamble_len")

    signal = read_iq(args.iq_path)
    sidecar = cfg_map.get("sidecar", str(_sidecar_path(args.iq_path)))
    rows, _ = read_sidecar(sidecar)
    if "sf" not in cfg_map:
        raise ConfigError("demod config must set sf")
    phy = PhyParams(sf=_as_int(cfg_map["sf"], "sf"), bandwidth_hz=signal.sample_rate_hz)
    n = phy.n

    grid = None
    if detector == "cora":
        if "grid" not in cfg_map:
            raise ConfigError("detector 'cora' needs a grid path (key 'grid' or --grid)")
        grid = _load_grid_checked(cfg_map["grid"])
        if len(signal) < preamble_len * n:
            raise IqFormatError(
                f"{args.iq_path}: too short for a {preamble_len}-symbol preamble"
            )
    try:
        exp = ExperimentConfig(phy=phy, detector=detector, grid=grid, preamble_len=preamble_len)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    starts = np.array([start for start, _true in rows], dtype=np.int64)
    outside = starts[(starts < 0) | (starts + n > len(signal))]
    if outside.size:
        raise IqFormatError(
            f"{sidecar}: window at {outside[0]} falls outside the {len(signal)}-sample stream"
        )
    bins, scores = receive(signal.samples, starts, exp)
    print("window_start,detected_bin,score")
    for start, bin_, score in zip(starts, bins, scores):
        print(f"{start},{bin_},{format(float(score), '.17g')}")
    return 0


# --- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cora",
        description="LoRa collision-resistant detection laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, out_required: bool) -> None:
        p.add_argument("--config", required=True, help="flat key=value config file")
        if out_required:
            p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--verbose", action="store_true")

    p_train = sub.add_parser("train", help="train a posterior grid from simulated collisions")
    common(p_train, out_required=True)

    p_eval = sub.add_parser("evaluate", help="run a seeded SER/PRR campaign")
    common(p_eval, out_required=True)
    p_eval.add_argument("--detector", choices=("baseline", "cora"), default=None)
    p_eval.add_argument("--grid", default=None, help="grid file for the cora detector")

    p_bench = sub.add_parser("bench", help="per-stage timing for both detectors")
    common(p_bench, out_required=True)
    p_bench.add_argument("--grid", default=None, help="grid file for the cora detector")

    p_demod = sub.add_parser("demod", help="demodulate an IQ file at sidecar boundaries")
    p_demod.add_argument("iq_path", help="IQ file produced by gen-scenario")
    p_demod.add_argument("--config", required=True, help="flat key=value config file")
    p_demod.add_argument("--detector", choices=("baseline", "cora"), default=None)
    p_demod.add_argument("--grid", default=None, help="grid file for the cora detector")
    p_demod.add_argument("--verbose", action="store_true")

    p_gen = sub.add_parser("gen-scenario", help="write a collision IQ file plus truth sidecar")
    common(p_gen, out_required=True)

    return parser


_COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
    "demod": cmd_demod,
    "gen-scenario": cmd_gen_scenario,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.subcommand](args)
    except (ConfigError, IqFormatError, GridFormatError, TrainingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
