"""Command-line front end: train grids, run campaigns, benchmark, demodulate.

Configs are flat `key=value` text files; '#' at the start of a line starts
a comment. Values are parsed by the field annotations of the dataclasses
they configure (`channel.fields_from_text`). Exit codes: 0 success, 1
validation error, 2 runtime or I/O error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import MISSING, fields
from functools import cache, partial
from pathlib import Path

import numpy as np

from cora.channel import (
    TrainConfig,
    etu_like_profile,
    fields_from_text,
    format_value,
    parse_tokens,
    parse_value,
    text_keys,
    write_file,
)
from cora.detector import (
    PosteriorGrid,
    TrainingError,
    collect_training_features,
    grid_from_samples,
    load_grid,
    map_chunks,
    save_grid,
)
from cora.harness import (
    DETECTOR_KINDS,
    ExperimentConfig,
    ScenarioSpec,
    bench_stages,
    receive,
    run_experiment,
    simulate_frame,
    write_csv,
)
from cora.phy import PhyParams, frame_length, payload_start

IQ_MAGIC = "CORA-IQ v1"


class ConfigError(ValueError):
    """A config file failed schema validation."""


class IqFormatError(ValueError):
    """An IQ file does not follow the documented binary layout."""


# --- config files -----------------------------------------------------------


def _read_utf8(path: str | Path, error: type[ValueError]) -> str:
    """The text of file `path`; `error` naming the file if its bytes are not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value file into a string map."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_utf8(path, ConfigError).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _check_keys(cfg: dict[str, str], allowed: set[str], context: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(
            f"{context}: unknown key(s) {', '.join(unknown)}; "
            f"valid keys: {', '.join(sorted(allowed))}"
        )


def _build(cls, cfg: dict[str, str], **given):
    """`cls` from the config's text for its fields, plus typed `given` values.

    A missing required field or a bad value raises ConfigError.
    """
    try:
        kwargs = fields_from_text(cls, cfg) | given
        missing = [
            f.name
            for f in fields(cls)
            if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING
        ]
        if missing:
            raise ValueError(f"config must set {', '.join(missing)}")
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _scenario(cfg: dict[str, str]) -> ScenarioSpec:
    """The config's scenario; `fading = true` selects the ETU-like profile."""
    fading = "fading" in cfg and parse_value("bool", "fading", cfg["fading"])
    return _build(ScenarioSpec, cfg, fading_profile=etu_like_profile() if fading else None)


_TRAIN_KEYS = set(text_keys(TrainConfig))
_SCENARIO_KEYS = {*text_keys(ScenarioSpec), "fading"}
_EVALUATE_KEYS = {*_SCENARIO_KEYS, *text_keys(PhyParams), *text_keys(ExperimentConfig), "grid"}
_GEN_KEYS = _EVALUATE_KEYS - {"detector", "n_frames", "frame_error_threshold", "grid"}
_BENCH_KEYS = {"sf_list", "bandwidth_hz", "snr_db", "n_warmup", "n_iter", "seed", "grid"}
_DEMOD_KEYS = {"sf", "detector", "grid", "preamble_len", "sidecar"}


def _load_config(args: argparse.Namespace, allowed: set[str], context: str) -> dict[str, str]:
    """The config file's map with the --seed, --detector and --grid flags laid over it."""
    cfg = read_config(args.config)
    for key in ("seed", "detector", "grid"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = str(value)
    _check_keys(cfg, allowed, context)
    return cfg


def _cora_grid(cfg: dict[str, str]) -> PosteriorGrid:
    """The grid file the config names, which the cora detector needs."""
    if "grid" not in cfg:
        raise ConfigError("detector 'cora' needs a grid path (key 'grid' or --grid)")
    return load_grid(cfg["grid"])


# --- IQ and sidecar files ----------------------------------------------------


def write_iq(path: str | Path, samples: np.ndarray, fs: float) -> None:
    """Write `CORA-IQ v1` header plus interleaved little-endian float32 I/Q."""
    header = f"{IQ_MAGIC} fs={format_value(fs)} n={samples.size}\n"
    write_file(path, header.encode("ascii") + samples.astype("<c8").tobytes())


def read_iq(path: str | Path) -> tuple[np.ndarray, float]:
    """An IQ file's samples and rate in Hz, checking magic, rate, count, length, finiteness."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        text = header.decode("ascii").rstrip("\n")
    except UnicodeDecodeError:
        raise IqFormatError(f"{path}: header is not ASCII") from None
    parts = text.split(" ")
    if " ".join(parts[:2]) != IQ_MAGIC:
        raise IqFormatError(f"{path}: bad header {text!r}; expected '{IQ_MAGIC} fs=<Hz> n=<samples>'")
    try:
        values = parse_tokens(parts[2:], {"fs": "float", "n": "int"})
    except ValueError as exc:
        raise IqFormatError(f"{path}: bad header {text!r}: {exc}") from None
    fs, n = values["fs"], values["n"]
    if not (0 < fs < np.inf and n >= 1):
        raise IqFormatError(f"{path}: header needs 0 < fs < inf and n >= 1, got {text!r}")
    if len(payload) != 8 * n:
        raise IqFormatError(
            f"{path}: expected {8 * n} payload bytes for {n} samples, "
            f"file ends at byte {len(header) + len(payload)}"
        )
    # checked before the cast, which warns on a signalling NaN
    samples = np.frombuffer(payload, dtype="<c8")
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise IqFormatError(f"{path}: sample {bad[0]} is not finite")
    return samples.astype(np.complex128), fs


def write_sidecar(
    path: str | Path,
    window_starts: list[int],
    true_bins: list[int],
    interferers: list[tuple[int, float]] = (),
) -> None:
    """Write the demod truth table plus interferer placement comments."""
    lines = [f"# interferer offset={o} gain_db={format_value(g)}" for o, g in interferers]
    lines.append("window_start,true_bin")
    lines.extend(f"{s},{b}" for s, b in zip(window_starts, true_bins))
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_sidecar(path: str | Path) -> tuple[list[tuple[int, int]], list[tuple[int, float]]]:
    """Read (window_start, true_bin) rows and interferer comments back."""
    rows: list[tuple[int, int]] = []
    interferers: list[tuple[int, float]] = []
    saw_header = False
    for lineno, raw in enumerate(_read_utf8(path, IqFormatError).splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if tokens[:1] == ["interferer"]:
                try:
                    values = parse_tokens(tokens[1:], {"offset": "int", "gain_db": "float"})
                except ValueError as exc:
                    raise IqFormatError(f"{path}:{lineno}: bad interferer comment: {exc}") from None
                interferers.append((values["offset"], values["gain_db"]))
            continue
        if not saw_header:
            if line != "window_start,true_bin":
                raise IqFormatError(
                    f"{path}:{lineno}: expected header 'window_start,true_bin', got {line!r}"
                )
            saw_header = True
            continue
        try:
            start, true_bin = map(int, line.split(","))
        except ValueError:
            raise IqFormatError(f"{path}:{lineno}: expected two integers, got {line!r}") from None
        rows.append((start, true_bin))
    if not saw_header:
        raise IqFormatError(f"{path}: missing 'window_start,true_bin' header")
    return rows, interferers


def _sidecar_path(iq_path: str | Path) -> Path:
    return Path(str(iq_path) + ".truth.csv")


# --- subcommands --------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _build(TrainConfig, _load_config(args, _TRAIN_KEYS, "train config"))
    start = time.perf_counter()
    samples = collect_training_features(cfg)
    elapsed = time.perf_counter() - start
    n_kept = len(samples.true_features)
    if args.verbose:
        print(
            f"generated {cfg.n_symbols} windows, kept {n_kept} "
            f"in {elapsed:.2f} s ({cfg.n_symbols / elapsed:.0f} windows/s), "
            f"{samples.n_workers} worker processes"
        )
    grid = grid_from_samples(samples, cfg)
    save_grid(grid, args.out)
    print(
        f"kept {n_kept}/{cfg.n_symbols} windows; "
        f"resolution={grid.resolution} prior={format_value(grid.prior)}"
    )
    print(f"grid written to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_config(args, _EVALUATE_KEYS, "evaluate config")
    detector = cfg.setdefault("detector", "baseline")
    phy = _build(PhyParams, cfg)
    if "snr_db" in cfg:
        # a comma list sweeps the SNR, one campaign per value
        points = [{"snr_db": snr} for snr in cfg["snr_db"].split(",") if snr.strip()]
        if not points:
            raise ConfigError("snr_db: need at least one value")
    else:
        points = [{}]
    grid = _cora_grid(cfg) if detector == "cora" else None
    campaigns = [
        _build(ExperimentConfig, cfg, phy=phy, scenario=_scenario(cfg | point), grid=grid)
        for point in points
    ]
    records = []
    for exp in campaigns:
        records.append(run_experiment(exp))
        if args.verbose:
            r = records[-1]
            print(f"snr={exp.scenario.snr_db} detector={detector} ser={r.ser:.6g} prr={r.prr:.6g}")
    write_csv(records, args.out)
    print(f"wrote {len(records)} result row(s) to {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _load_config(args, _BENCH_KEYS, "bench config")
    sf_list = [sf for sf in cfg.get("sf_list", "8").split(",") if sf.strip()]
    if not sf_list:
        raise ConfigError("sf_list: need at least one value")
    grid = _cora_grid(cfg)
    phys = [_build(PhyParams, cfg | {"sf": sf}) for sf in sf_list]
    scenario = _build(ScenarioSpec, cfg)
    timing = fields_from_text(bench_stages, cfg)
    records = []
    for phy in phys:
        for detector in DETECTOR_KINDS:
            exp = _build(
                ExperimentConfig,
                cfg,
                phy=phy,
                detector=detector,
                scenario=scenario,
                grid=grid if detector == "cora" else None,
            )
            rec = bench_stages(exp, **timing)
            records.append(rec)
            if args.verbose:
                total = rec.t_dechirp_s + rec.t_features_s + rec.t_classifier_s + rec.t_argmax_s
                print(f"sf={phy.sf} detector={detector} total={total * 1e6:.2f} us/symbol")
    write_csv(records, args.out)
    print(f"wrote {len(records)} bench row(s) to {args.out}")
    return 0


def cmd_gen_scenario(args: argparse.Namespace) -> int:
    cfg = _load_config(args, _GEN_KEYS, "gen-scenario config")
    phy = _build(PhyParams, cfg)
    exp = _build(
        ExperimentConfig, cfg, phy=phy, detector="baseline", scenario=_scenario(cfg), n_frames=1
    )
    # frame 0 of the campaign with this seed
    total = frame_length(exp.symbols_per_frame, exp.preamble_len, phy)
    (frames,), _ = map_chunks(partial(simulate_frame, exp), exp.seed, 1, total)
    samples, payload, interferers = (part[0] for part in frames)
    write_iq(args.out, samples, phy.sample_rate_hz)
    start = payload_start(exp.preamble_len, phy)
    starts = [start + k * phy.n for k in range(exp.symbols_per_frame)]
    write_sidecar(_sidecar_path(args.out), starts, [int(b) for b in payload], interferers)
    print(f"wrote {len(samples)} samples to {args.out}")
    print(f"wrote truth sidecar to {_sidecar_path(args.out)}")
    return 0


def cmd_demod(args: argparse.Namespace) -> int:
    cfg = _load_config(args, _DEMOD_KEYS, "demod config")
    detector = cfg.setdefault("detector", "baseline")
    samples, fs = read_iq(args.iq_path)
    sidecar = cfg.get("sidecar", str(_sidecar_path(args.iq_path)))
    rows, _ = read_sidecar(sidecar)
    phy = _build(PhyParams, cfg, bandwidth_hz=fs)
    grid = _cora_grid(cfg) if detector == "cora" else None
    exp = _build(ExperimentConfig, cfg, phy=phy, detector=detector, grid=grid)
    starts = np.array([start for start, _true in rows], dtype=np.int64)
    try:
        bins, scores = receive(samples, starts, exp)
    except ValueError as exc:
        raise IqFormatError(f"{args.iq_path}, {sidecar}: {exc}") from None
    print("window_start,detected_bin,score")
    for start, bin_, score in zip(starts, bins, scores):
        print(f"{start},{bin_},{format_value(float(score))}")
    return 0


# --- entry point ---------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cora",
        description="LoRa collision-resistant detection laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_train = sub.add_parser("train", help="train a posterior grid from simulated collisions")
    common(p_train)
    p_train.add_argument("--verbose", action="store_true")

    p_eval = sub.add_parser("evaluate", help="run a seeded SER/PRR campaign")
    common(p_eval)
    p_eval.add_argument("--verbose", action="store_true")
    p_eval.add_argument("--detector", choices=DETECTOR_KINDS, default=None)
    p_eval.add_argument("--grid", default=None, help="grid file for the cora detector")

    p_bench = sub.add_parser("bench", help="per-stage timing for both detectors")
    common(p_bench)
    p_bench.add_argument("--verbose", action="store_true")
    p_bench.add_argument("--grid", default=None, help="grid file for the cora detector")

    p_demod = sub.add_parser("demod", help="demodulate an IQ file at sidecar boundaries")
    p_demod.add_argument("iq_path", help="IQ file produced by gen-scenario")
    p_demod.add_argument("--config", required=True, help="flat key=value config file")
    p_demod.add_argument("--detector", choices=DETECTOR_KINDS, default=None)
    p_demod.add_argument("--grid", default=None, help="grid file for the cora detector")

    p_gen = sub.add_parser("gen-scenario", help="write a collision IQ file plus truth sidecar")
    common(p_gen)

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
    except (TrainingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
