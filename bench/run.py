#!/usr/bin/env python3
"""cora benchmark: train a campaign grid, then run paired SF8 campaigns.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload collide_sf8 --seed 7 --seconds 20 --trace 0

The benchmark imports cora from ./src and drives the user-facing entry
point in-process, `cora.cli.main(["train" | "evaluate", ...])`, on config
files it writes from --seed. Each workload is a closed loop: one caller in
one process runs its CLI calls back to back, with BLAS pinned to one
thread.

Set-up (done SETUP_REPS times, median reported): write the configs, train
the acceptance suite's campaign grid with `cora train` (20k windows at SNR
10 dB, seed 7), reload it and check it. Timed loop, one iteration after
another: a short `cora train` (5k windows, same recipe, seeded from
--seed) for training throughput, then `cora evaluate --detector cora`
and `--detector baseline` on the workload's campaign, cycling over the
fixed campaign seeds 42, 43, ... until --seconds have passed, every
campaign ran once and one ran twice. Each throughput is the median over
its calls, so calls spread over the whole run. setup_s is the import time
plus the median set-up, where one set-up is writing the configs and the
`cora train` call; the benchmark's own checks on the grid are not in it.

Every timed interval is scaled to nominal machine speed by a reference
kernel timed around the CLI calls (see reference_kernel_s and
Run.reference_s); the results file keeps the unscaled times too.

The grid and campaign seeds are fixed so that SER and PRR, summed over the
first pass, repeat exactly: at affordable campaign sizes their
seed-to-seed spread (up to 40% for the faded baseline, 12% for cora's
collision PRR across grid seeds) would hide any loss of detection quality.
The run seed varies the windows of the timed training calls.

With --trace 1 the work is fixed rather than timed, so that counts repeat
exactly: one untraced set-up to warm up, then one set-up and the first
pass with every CLI call made twice, untraced and traced, in alternating
order. The traced calls give per-layer calls and self time for every
public function of cora's five layers; the pairs give the tracing
overhead, each call scaled by the reference kernel around it, and a check
that tracing leaves the outputs byte-identical.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced. The full results,
with samples, output hashes and the environment, go to
.bench_run/results/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS before numpy is imported, so the load never uses more threads
# than one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 5
# Seconds the reference kernel takes at nominal machine speed (its typical
# time on the 2-core Xeon that recorded the first baseline).
REFERENCE_NOMINAL_S = 0.016
CAMPAIGN_SEED_BASE = 42
# The acceptance suite's campaign grid: 20k windows at SNR 10 dB, seed 7.
GRID_RECIPE = {"n_symbols": 20_000, "snr_db": 10}
CAMPAIGN_GRID_SEED = 7


@dataclasses.dataclass(frozen=True)
class Workload:
    campaign: dict  # evaluate config keys, apart from seed, detector and grid
    n_campaigns: int  # campaign seeds per pass
    cora_beats_baseline: bool  # gate: pooled cora SER below the baseline's
    grid_symbols: int = GRID_RECIPE["n_symbols"]
    probe_symbols: int = 5_000  # training windows per timed `cora train` call


WORKLOADS = {
    # Mirrors the collision acceptance gate. The receive path (dechirp plus
    # detect_symbol) takes about half the time and frame build plus
    # collision composition most of the rest; no fading calls.
    "collide_sf8": Workload(
        campaign={
            "sf": 8,
            "n_frames": 500,
            "symbols_per_frame": 20,
            "snr_db": 10,
            "n_interferers": 1,
            "sir_db": "-6,0",
        },
        n_campaigns=6,
        cora_beats_baseline=True,
    ),
    # Mirrors the (deliberately failing) fading acceptance criterion.
    # apply_fading takes over 90% of the campaign time and the receive path
    # under 3%, so a receive-path speed-up should not move it.
    "fade_sf8": Workload(
        campaign={
            "sf": 8,
            "n_frames": 30,
            "symbols_per_frame": 20,
            "snr_db": 5,
            "n_interferers": 0,
            "fading": "true",
            "frame_error_threshold": 2,
        },
        n_campaigns=8,
        cora_beats_baseline=False,
    ),
}

DETECTORS = ("cora", "baseline")


def load_cora():
    """Import cora from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "cora" / "__init__.py").is_file():
        raise SystemExit(f"error: no cora sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import cora.cli
    import cora.detector
    import cora.harness

    if Path(cora.__file__).resolve().parent != (src / "cora").resolve():
        raise SystemExit(f"error: imported cora from {cora.__file__}, not from {src}")
    return cora


def read_declared():
    """Metric names and units declared in BENCHMARK.json, the one source of both."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def reference_kernel_s() -> float:
    """Seconds for a fixed mix of small numpy calls, interpreter work and a
    large complex exponential, in about the proportions the workloads have.

    It calls no cora code, so no change to cora moves it; only the speed of
    the machine does. On a shared 2-core Xeon the speed drifted by up to
    1.6x over minutes, which scaling every timed interval by
    REFERENCE_NOMINAL_S over the kernel's time around it cut from about 20%
    to about 5% run-to-run spread.
    """
    t0 = time.perf_counter()
    n = 256
    k = np.arange(n)
    chirp = np.exp(1j * np.pi * k * k / n)
    acc = 0
    for m in range(150):
        mag = np.abs(np.fft.fft(np.roll(chirp, -m) * chirp.conj()))
        acc += int(np.argmax(mag)) + int(np.argpartition(mag, 10)[0])
        for j in range(60):
            acc += j * m
    t = np.arange(8192) / 125e3
    for m in range(2):
        osc = np.exp(1j * (2.0 * np.pi * np.outer(np.cos(k[:16] + m), t) + k[:16, None]))
        acc += int(np.argmax(np.abs(osc.sum(axis=0))))
    return time.perf_counter() - t0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path: Path, entries: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")


class Run:
    """One benchmark process: the work directory, operation tally and samples."""

    def __init__(self, cora, workload: Workload, seed: int, work: Path):
        self.cli = cora.cli
        self.load_grid = cora.detector.load_grid  # bound here so checks stay untraced
        self.csv_columns = list(cora.harness.CSV_COLUMNS)
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        # (seconds, index of the CLI call they contain) per timed interval
        self.samples: dict[str, list[tuple[float, int]]] = {
            "setup_rep": [],
            "train_call": [],
            "cora_call": [],
            "baseline_call": [],
            "untraced_call": [],  # every CLI call of the paired calls in a traced run
            "traced_call": [],
        }
        self.tracer: Tracer | None = None  # when set, every CLI call runs untraced and traced
        self.pairs = 0
        self.kernels: list[list[float]] = []  # reference kernel times around each CLI call
        self.kept: dict[str, tuple[int, int]] = {}
        self.first_pass: dict[str, list[dict]] = {d: [] for d in DETECTORS}
        self.configs: dict[str, str] = {}
        self.campaign_seeds = [CAMPAIGN_SEED_BASE + i for i in range(workload.n_campaigns)]

    # --- operations ----------------------------------------------------------

    def modes(self) -> tuple[bool, ...]:
        """Whether each run of the next CLI call is traced: once untraced, or,
        in a traced run, untraced and traced with the order alternating from
        one call to the next so that neither side always runs warmer."""
        if self.tracer is None:
            return (False,)
        self.pairs += 1
        return (False, True) if self.pairs % 2 else (True, False)

    def _call(self, argv: list[str], traced: bool = False) -> tuple[int | None, tuple[float, int], str]:
        """Run one CLI command, timing the reference kernel around it.

        Returns the exit code (None on a crash), (seconds, index of the
        call) and the captured stdout.
        """
        out = io.StringIO()
        kernels = [reference_kernel_s(), reference_kernel_s()]
        with self.tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = self.cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                code = None
            dt = time.perf_counter() - t0
        kernels += [reference_kernel_s(), reference_kernel_s()]
        self.kernels.append(kernels)
        timing = (dt, len(self.kernels) - 1)
        if self.tracer is not None:
            self.samples["traced_call" if traced else "untraced_call"].append(timing)
        return code, timing, out.getvalue()

    def reference_s(self, index: int) -> float:
        """Reference kernel time around call `index`: the median over it and
        the two calls either side, which smooths the kernel's own noise but
        still follows drifts lasting seconds."""
        window = self.kernels[max(0, index - 2) : index + 3]
        return statistics.median(k for kernels in window for k in kernels)

    def scaled(self, key: str) -> list[float]:
        """The samples of `key` in seconds at nominal machine speed."""
        return [t * REFERENCE_NOMINAL_S / self.reference_s(i) for t, i in self.samples[key]]

    def check(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"{op}: {p}" for p in problems)
        return not problems

    def _same_bytes(self, key: str, path: Path, problems: list[str]) -> None:
        digest = sha256(path)
        first = self.hashes.setdefault(key, digest)
        if digest != first:
            problems.append(f"bytes differ from the first {key} ({digest[:12]} vs {first[:12]})")

    def write_configs(self) -> None:
        configs = {
            "campaign.cfg": {
                **GRID_RECIPE,
                "n_symbols": self.workload.grid_symbols,
                "seed": CAMPAIGN_GRID_SEED,
            },
            "probe.cfg": {**GRID_RECIPE, "n_symbols": self.workload.probe_symbols, "seed": self.seed},
        }
        for seed in self.campaign_seeds:
            for det in DETECTORS:
                entries = {**self.workload.campaign, "detector": det, "seed": seed}
                if det == "cora":
                    entries["grid"] = str(self.work / "campaign.grid")
                configs[f"{det}-{seed}.cfg"] = entries
        for name, entries in configs.items():
            write_config(self.work / name, entries)
            self.configs[name] = (self.work / name).read_text(encoding="utf-8")

    def train(self, name: str, n_symbols: int) -> tuple[float, int] | None:
        """`cora train` on <name>.cfg, checked; returns the untraced call's
        timing, None if it failed."""
        grid_path = self.work / f"{name}.grid"
        argv = ["train", "--config", str(self.work / f"{name}.cfg"), "--out", str(grid_path)]
        timing = None
        for traced in self.modes():
            code, dt, out = self._call(argv, traced)
            problems = self._train_problems(name, n_symbols, grid_path, code, out)
            if self.check(f"train {name}" + (" traced" if traced else ""), problems) and not traced:
                timing = dt
        return timing

    def _train_problems(self, name: str, n_symbols: int, grid_path: Path, code, out: str) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            match = re.search(r"kept (\d+)/(\d+) windows", out)
            if match is None:
                problems.append(f"no 'kept K/N windows' line in {out!r}")
            else:
                kept, generated = int(match.group(1)), int(match.group(2))
                self.kept[name] = (kept, generated)
                if generated != n_symbols:
                    problems.append(f"generated {generated} windows, asked for {n_symbols}")
                if kept < 100:
                    problems.append(f"only {kept} windows kept")
            try:
                grid = self.load_grid(grid_path)
            except (OSError, ValueError) as exc:
                problems.append(f"grid does not reload: {exc}")
            else:
                k = grid.config.interference_samples_per_symbol
                if grid.prior != 1 / (k + 1):
                    problems.append(f"prior {grid.prior!r} is not 1/{k + 1}")
            self._same_bytes(f"{name}.grid", grid_path, problems)
        return problems

    def setup_rep(self) -> None:
        """Write the configs, train the campaign grid, reload it and check it.

        The sample is the config writing plus the `cora train` call; the
        reference kernels and the checks are the benchmark's own work."""
        t0 = time.perf_counter()
        self.write_configs()
        write_s = time.perf_counter() - t0
        timing = self.train("campaign", self.workload.grid_symbols)
        if timing is not None:
            self.samples["setup_rep"].append((write_s + timing[0], timing[1]))

    def iteration(self, seed: int, first_pass: bool) -> None:
        """One pass of the loop: a short `cora train`, then the campaign on one seed."""
        dt = self.train("probe", self.workload.probe_symbols)
        if dt is not None:
            self.samples["train_call"].append(dt)
        self.campaign(seed, first_pass)

    def campaign(self, seed: int, first_pass: bool) -> None:
        """`cora evaluate` with each detector on one campaign seed, checked."""
        for det in DETECTORS:
            out_csv = self.work / f"{det}-{seed}.csv"
            argv = ["evaluate", "--config", str(self.work / f"{det}-{seed}.cfg"), "--out", str(out_csv)]
            for traced in self.modes():
                code, dt, _ = self._call(argv, traced)
                problems = []
                row = None
                if code != 0:
                    problems.append(f"exit code {code}")
                else:
                    row = self._read_row(out_csv, det, problems)
                    self._same_bytes(f"{det}-{seed}.csv", out_csv, problems)
                op = f"evaluate {det} seed {seed}" + (" traced" if traced else "")
                if self.check(op, problems) and not traced:
                    self.samples[f"{det}_call"].append(dt)
                    if first_pass:
                        self.first_pass[det].append(row)

    def _read_row(self, path: Path, det: str, problems: list[str]) -> dict | None:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != 2 or rows[0] != self.csv_columns:
            problems.append(f"expected the {len(self.csv_columns)}-column header and one row")
            return None
        raw = dict(zip(rows[0], rows[1]))
        try:
            row = {
                "frames": int(raw["frames"]),
                "symbols": int(raw["symbols"]),
                "symbol_errors": int(raw["symbol_errors"]),
                "frames_ok": int(raw["frames_ok"]),
                "ser": float(raw["ser"]),
                "prr": float(raw["prr"]),
            }
        except ValueError as exc:
            problems.append(f"unparseable row: {exc}")
            return None
        camp = self.workload.campaign
        if raw["detector"] != det:
            problems.append(f"detector column {raw['detector']!r}")
        if row["frames"] != camp["n_frames"]:
            problems.append(f"frames {row['frames']} != n_frames {camp['n_frames']}")
        if row["symbols"] != row["frames"] * camp["symbols_per_frame"]:
            problems.append(f"symbols {row['symbols']} != frames x symbols_per_frame")
        for key in ("ser", "prr"):
            if not 0.0 <= row[key] <= 1.0:
                problems.append(f"{key} {row[key]} outside [0, 1]")
        if row["symbols"] and row["ser"] != row["symbol_errors"] / row["symbols"]:
            problems.append("ser does not equal symbol_errors / symbols")
        return row

    def one_pass(self, first_pass: bool) -> None:
        for seed in self.campaign_seeds:
            self.iteration(seed, first_pass)

    def timed_loop(self, seconds: float) -> None:
        """First pass, then cycle the campaign seeds until the time is up and one repeated."""
        start = time.perf_counter()
        self.one_pass(first_pass=True)
        i = len(self.campaign_seeds)
        while i == len(self.campaign_seeds) or time.perf_counter() - start < seconds:
            self.iteration(self.campaign_seeds[i % len(self.campaign_seeds)], first_pass=False)
            i += 1

    # --- results -------------------------------------------------------------

    def quality(self) -> dict[str, float]:
        out = {}
        for det in DETECTORS:
            rows = [r for r in self.first_pass[det] if r is not None]
            symbols = sum(r["symbols"] for r in rows)
            frames = sum(r["frames"] for r in rows)
            out[f"{det}_ser"] = sum(r["symbol_errors"] for r in rows) / symbols if symbols else float("nan")
            out[f"{det}_prr"] = sum(r["frames_ok"] for r in rows) / frames if frames else float("nan")
        return out

    def gate_quality(self, quality: dict[str, float]) -> None:
        problems = []
        complete = all(len(self.first_pass[d]) == len(self.campaign_seeds) for d in DETECTORS)
        if not complete:
            problems.append("first campaign pass incomplete")
        elif self.workload.cora_beats_baseline and not quality["cora_ser"] < quality["baseline_ser"]:
            problems.append(
                f"cora SER {quality['cora_ser']:.4f} not below baseline {quality['baseline_ser']:.4f}"
            )
        self.check("quality gate", problems)


def summarize(values: list[float]) -> dict:
    out = {"n": len(values)}
    if values:
        out.update(median=statistics.median(values), min=min(values), max=max(values))
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def environment() -> dict:
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    with contextlib.suppress(OSError):
        return (git / ref).read_text(encoding="utf-8").strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def layer_table(tracer: Tracer) -> list[tuple[str, int, float]]:
    rows = [(name, tracer.calls[name], tracer.self_s[name]) for name in tracer.calls]
    return sorted(rows, key=lambda r: -r[2])


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workload: Workload | None = None,
    setup_reps: int = SETUP_REPS,
    out_dir: Path | None = None,
) -> dict:
    """Run one workload and return the full results; the caller prints them."""
    cora = load_cora()
    import_s = time.perf_counter() - T_START
    end_to_end_units, per_layer_units = read_declared()
    workload = workload or WORKLOADS[name]
    bench_run = ROOT / ".bench_run"
    bench_run.mkdir(exist_ok=True)
    out_dir = out_dir or bench_run / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=bench_run))
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        run = Run(cora, workload, seed, work)
        measured: dict[str, float] = {}
        trace_info = None
        if not trace:
            for _ in range(setup_reps):
                run.setup_rep()
            run.timed_loop(seconds)
        else:
            run.setup_rep()  # warm-up, so that caches fill before the paired calls
            tracer = run.tracer = Tracer()
            run.setup_rep()
            run.one_pass(first_pass=True)
            # Median over the pairs: on the faded workload one call can take
            # twice as long as its identical twin, whichever is traced.
            overhead = statistics.median(
                t / u for u, t in zip(run.scaled("untraced_call"), run.scaled("traced_call"))
            )
            spans_path = out_dir / f"{tag}.spans.jsonl.gz"
            tracer.write_spans(spans_path)
            for layer, calls, self_s in layer_table(tracer):
                measured[f"{layer}.calls"] = calls
                measured[f"{layer}.self_s"] = self_s
            measured.update(tracer.counts)
            kept, generated = run.kept.get("campaign", (0, 1))
            measured["detector.kept_ratio"] = kept / generated
            measured["trace.wall_s"] = tracer.wall_s
            measured["trace.unattributed_s"] = tracer.unattributed_s()
            measured["trace.overhead_ratio"] = overhead
            trace_info = {
                "wall_s": tracer.wall_s,
                "untraced_wall_s": sum(t for t, _ in run.samples["untraced_call"]),
                "overhead_ratio": overhead,
                "unattributed_s": tracer.unattributed_s(),
                "spans": len(tracer.spans),
                "spans_file": str(spans_path.relative_to(ROOT)),
                "layers": {n: {"calls": c, "self_s": s} for n, c, s in layer_table(tracer)},
                "counts": dict(tracer.counts),
            }
        quality = run.quality()
        run.gate_quality(quality)
        frames = workload.campaign["n_frames"]
        setup_s, train_s, cora_s, baseline_s = (
            run.scaled(key) for key in ("setup_rep", "train_call", "cora_call", "baseline_call")
        )
        measured.update(
            {
                "setup_s": import_s * REFERENCE_NOMINAL_S / run.reference_s(0) + median_or_nan(setup_s),
                "windows_per_s": median_or_nan([workload.probe_symbols / t for t in train_s]),
                "cora_frames_per_s": median_or_nan([frames / t for t in cora_s]),
                "baseline_frames_per_s": median_or_nan([frames / t for t in baseline_s]),
                **quality,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
        units = per_layer_units if trace else end_to_end_units
        missing = sorted(set(units) - set(measured))
        if missing:
            raise RuntimeError(f"declared metrics not measured: {', '.join(missing)}")
        unmeasured = [m for m in units if not math.isfinite(measured[m])]
        run.check("metrics", [f"{m} has no valid sample" for m in unmeasured])
        for m in unmeasured:
            measured[m] = 0.0
        results = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "correct": not run.failures,
            "attempted": run.attempted,
            "failed": run.failed,
            "failures": run.failures,
            "metrics": {m: {"value": measured[m], "unit": u} for m, u in units.items()},
            "import_s": import_s,
            "samples": {k: [(t, run.reference_s(i)) for t, i in v] for k, v in run.samples.items()},
            "summary": {k: summarize(run.scaled(k)) for k in run.samples},
            "summary_unscaled": {k: summarize([x[0] for x in v]) for k, v in run.samples.items()},
            "kept_windows": run.kept,
            "first_pass": run.first_pass,
            "campaign_seeds": run.campaign_seeds,
            "sha256": run.hashes,
            "configs": run.configs,
            "environment": environment(),
            "trace_info": trace_info,
        }
        (out_dir / f"{tag}.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
        return results
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_results(results: dict) -> None:
    env = results["environment"]
    print(
        f"workload={results['workload']} seed={results['seed']} trace={results['trace']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"nproc={env['nproc']} commit={env['git_commit']}"
    )
    info = results["trace_info"]
    if info is not None:
        print(f"{'layer':<44} {'calls':>9} {'self_s':>10} {'share':>7}")
        wall = info["wall_s"]
        for layer, row in info["layers"].items():
            if row["calls"]:
                print(f"{layer:<44} {row['calls']:>9} {row['self_s']:>10.4f} {row['self_s'] / wall:>7.1%}")
        print(f"{'(unattributed: outside every span)':<44} {'':>9} {info['unattributed_s']:>10.4f} {info['unattributed_s'] / wall:>7.1%}")
        total = sum(r["self_s"] for r in info["layers"].values()) + info["unattributed_s"]
        print(f"{'traced wall time = self times + unattributed':<44} {'':>9} {total:>10.4f}")
        print(
            f"tracing overhead: traced calls {wall:.3f} s against the same calls untraced "
            f"{info['untraced_wall_s']:.3f} s, x{info['overhead_ratio']:.3f} at nominal machine speed; "
            f"{info['spans']} spans in {info['spans_file']}"
        )
    for name, metric in results["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"campaign grid sha256 {results['sha256'].get('campaign.grid')}")
    for failure in results["failures"]:
        print(f"FAILED {failure}")
    print(
        f"correct={results['correct']} attempted={results['attempted']} failed={results['failed']}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    results = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_results(results)
    print(
        json.dumps(
            {k: results[k] for k in ("correct", "attempted", "failed", "metrics")},
            allow_nan=False,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
