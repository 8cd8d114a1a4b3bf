"""Acceptance checklist for the laboratory.

Each test covers one acceptance criterion end to end and prints a single
summary line with the measured numbers, so a full run reads as a short
report. Pinned thresholds live next to the assertions; campaign margins
were frozen from pilot runs at 80% of the observed effect so ordinary
seed-to-seed variation cannot flip them.
"""

import statistics
import time

import numpy as np

from cora.channel import TrainConfig, etu_like_profile
from cora.cli import main, read_sidecar
from cora.detector import (
    feature_histogram,
    hpd,
    load_grid,
    save_grid,
)
from cora.harness import ExperimentConfig, ScenarioSpec, bench_stages, run_experiment
from cora.phy import (
    PhyParams,
    SymbolWindow,
    baseline_detect,
    dechirp,
    modulate_symbol,
)
from cora.channel import clipped_tone
from oracles import hpd_identity_error


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


def tone_window(freq_bins, n, start=0, stop=None):
    samples = clipped_tone(freq_bins, 1.0, 0.0, start, n if stop is None else stop, n)
    return SymbolWindow(samples, np.abs(np.fft.fft(samples)))


class TestRoundTripExactness:
    def test_exhaustive_noiseless_demodulation(self, capsys):
        t0 = time.perf_counter()
        cases = 0
        errors = 0
        for sf in (7, 8):
            phy = PhyParams(sf=sf)
            for m in range(phy.n):
                window = dechirp(modulate_symbol(m, phy), phy)
                if baseline_detect(window.magnitudes) != m:
                    errors += 1
                cases += 1
        elapsed = time.perf_counter() - t0
        ok = errors == 0 and cases == 128 + 256 and elapsed < 5.0
        report(
            capsys,
            "round-trip exactness",
            ok,
            f"{cases - errors}/{cases} symbols recovered (SF7+SF8, noiseless) in {elapsed:.2f}s",
        )


class TestHalfSymbolNull:
    def test_complete_tone_null_and_half_window_clip(self, capsys):
        t0 = time.perf_counter()
        worst_null = 0.0
        clip_ok = True
        checked = 0
        for sf in (7, 8, 9, 10):
            n = 2**sf
            # 32 even and 32 odd bins spread over the full range
            evens = np.linspace(0, n - 2, 32).astype(int) // 2 * 2
            bins = np.concatenate([evens, evens + 1])
            for m in bins:
                h = hpd(tone_window(int(m), n))
                worst_null = max(worst_null, float(h[int(m)]))
                checked += 1
            # a tone occupying exactly one half of the window leaves its
            # masked transform magnitude equal to the plain one
            for start, stop in ((0, n // 2), (n // 2, n)):
                h = hpd(tone_window(5, n, start=start, stop=stop))
                clip_ok = clip_ok and h[5] == 1.0
        elapsed = time.perf_counter() - t0
        ok = worst_null < 1e-9 and clip_ok and elapsed < 10.0
        report(
            capsys,
            "half-symbol null",
            ok,
            f"worst complete-tone h={worst_null:.3e} over {checked} bins (SF7-SF10), "
            f"half-window clip h==1 {'holds' if clip_ok else 'violated'}, {elapsed:.2f}s",
        )


class TestMaskedTransformIdentity:
    def test_thousand_random_windows(self, capsys):
        t0 = time.perf_counter()
        n = 256
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            window = SymbolWindow(samples, np.abs(np.fft.fft(samples)))
            worst = max(worst, hpd_identity_error(window))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-9 * n and elapsed < 5.0
        report(
            capsys,
            "masked-transform identity",
            ok,
            f"worst |masked - folded| = {worst:.3e} over 1000 windows (bound {1e-9 * n:.1e}), "
            f"{elapsed:.2f}s",
        )


class TestTrainingIntegrity:
    def test_default_training_run(self, capsys, default_train_run):
        cfg, samples, grid, elapsed = default_train_run
        prior_exact = grid.prior == 1.0 / 11.0
        ht = feature_histogram(samples.true_features, grid.resolution, cfg.smooth_sigma, cfg.smooth_floor)
        hi = feature_histogram(
            samples.interference_features, grid.resolution, cfg.smooth_sigma, cfg.smooth_floor
        )
        sums_ok = abs(ht.sum() - 1.0) <= 1e-9 and abs(hi.sum() - 1.0) <= 1e-9
        edge = grid.resolution // 10
        low = float(np.mean(grid.cells[:edge, :edge]))
        high = float(np.mean(grid.cells[-edge:, -edge:]))
        contrast = low - high
        ok = prior_exact and sums_ok and contrast >= 0.3 and elapsed < 300.0
        report(
            capsys,
            "training integrity",
            ok,
            f"20000 symbols in {elapsed:.1f}s, kept {len(samples.true_features)}, prior={grid.prior:.17g} "
            f"(exact 1/11: {prior_exact}), hist sums 1 within 1e-9: {sums_ok}, "
            f"corner contrast {low:.3f}-{high:.3f}={contrast:.3f} (need >= 0.3)",
        )


class TestCollisionCampaign:
    # pinned at 80% of the pilot run's observed relative reduction
    # (seed 42: baseline 4595 errors, cora 2860, reduction 0.3776)
    MIN_RELATIVE_REDUCTION = 0.302

    def test_cora_beats_baseline_under_collisions(self, capsys, campaign_grid):
        phy = PhyParams(sf=8)
        scen = ScenarioSpec(snr_db=10.0, n_interferers=1, sir_db=(-6.0, 0.0))
        common = dict(phy=phy, scenario=scen, seed=42, n_frames=500, symbols_per_frame=20)
        base = run_experiment(ExperimentConfig(detector="baseline", **common))
        cora = run_experiment(ExperimentConfig(detector="cora", grid=campaign_grid, **common))
        rel = (base.symbol_errors - cora.symbol_errors) / base.symbol_errors
        ok = (
            base.symbol_errors > 0
            and cora.symbol_errors < base.symbol_errors
            and rel >= self.MIN_RELATIVE_REDUCTION
        )
        report(
            capsys,
            "collision campaign",
            ok,
            f"500 frames x 20 symbols, SNR 10, SIR U[-6,0]: baseline {base.symbol_errors} errors "
            f"(ser {base.ser:.4f}), cora {cora.symbol_errors} (ser {cora.ser:.4f}), relative "
            f"reduction {rel:.4f} (need >= {self.MIN_RELATIVE_REDUCTION})",
        )


class TestStageOverhead:
    # SF8 and SF10 run in alternating rounds and are compared by their
    # median ratios, so one slow spell of a shared machine cannot decide
    # the spread on its own. The detectors swap order every round, so a
    # spell that covers a whole round slows both sides of its ratio.
    ROUNDS = 9

    def test_overhead_band_and_feature_share(self, capsys, campaign_grid):
        t0 = time.perf_counter()
        rounds = {8: [], 10: []}
        for i in range(self.ROUNDS):
            for sf in rounds:
                phy = PhyParams(sf=sf)
                scen = ScenarioSpec(snr_db=10.0)
                cfgs = {
                    "baseline": ExperimentConfig(phy=phy, detector="baseline", scenario=scen, seed=0),
                    "cora": ExperimentConfig(
                        phy=phy, detector="cora", scenario=scen, seed=0, grid=campaign_grid
                    ),
                }
                order = ("baseline", "cora") if i % 2 == 0 else ("cora", "baseline")
                timed = {d: bench_stages(cfgs[d], n_warmup=100, n_iter=1000) for d in order}
                tb, tc = timed["baseline"], timed["cora"]
                tot_b = tb.t_dechirp_s + tb.t_features_s + tb.t_classifier_s + tb.t_argmax_s
                tot_c = tc.t_dechirp_s + tc.t_features_s + tc.t_classifier_s + tc.t_argmax_s
                rounds[sf].append(
                    (tot_c / tot_b, tc.t_dechirp_s, tc.t_features_s, tc.t_classifier_s, tc.t_argmax_s)
                )
        ratios = {}
        feature_largest = True
        stage_info = []
        for sf, measured in rounds.items():
            ratio, dechirp_s, features_s, classifier_s, argmax_s = (
                statistics.median(column) for column in zip(*measured)
            )
            ratios[sf] = ratio
            feature_largest = feature_largest and all(
                features_s >= t for t in (dechirp_s, classifier_s, argmax_s)
            )
            stage_info.append(
                f"SF{sf} median ratio {ratio:.2f} of "
                f"{', '.join(f'{m[0]:.2f}' for m in measured)} "
                f"(median stages us: dechirp {dechirp_s * 1e6:.1f}, features {features_s * 1e6:.1f}, "
                f"classifier {classifier_s * 1e6:.1f}, argmax {argmax_s * 1e6:.1f})"
            )
        elapsed = time.perf_counter() - t0
        in_band = all(1.5 <= r <= 6.0 for r in ratios.values())
        spread = abs(ratios[8] - ratios[10]) / min(ratios.values())
        ok = in_band and spread < 0.5 and feature_largest and elapsed < 120.0
        report(
            capsys,
            "stage overhead",
            ok,
            f"{'; '.join(stage_info)}; ratio band [1.5,6] {'holds' if in_band else 'violated'}, "
            f"SF8/SF10 spread {spread:.2%} (need < 50%), feature stage largest: {feature_largest}, "
            f"{elapsed:.1f}s",
        )


class TestFadingRobustness:
    # tolerate two bad symbols per 20-symbol frame, a stand-in for the
    # error correction a real receiver applies before declaring loss
    FRAME_ERROR_THRESHOLD = 2

    def test_fading_prr_stays_near_flat(self, capsys, campaign_grid):
        phy = PhyParams(sf=8)
        common = dict(
            phy=phy,
            detector="cora",
            seed=42,
            n_frames=300,
            symbols_per_frame=20,
            frame_error_threshold=self.FRAME_ERROR_THRESHOLD,
            grid=campaign_grid,
        )
        flat = run_experiment(
            ExperimentConfig(scenario=ScenarioSpec(snr_db=5.0, n_interferers=0), **common)
        )
        fade = run_experiment(
            ExperimentConfig(
                scenario=ScenarioSpec(
                    snr_db=5.0, n_interferers=0, fading_profile=etu_like_profile()
                ),
                **common,
            )
        )
        degradation = flat.prr - fade.prr
        ok = 0.0 <= degradation <= 0.10
        report(
            capsys,
            "fading robustness",
            ok,
            f"ETU-like profile, SNR 5, 300 frames: flat prr {flat.prr:.4f}, fading prr "
            f"{fade.prr:.4f}, degradation {degradation:.4f} (need within 0.10; direction >= 0 "
            f"{'holds' if degradation >= 0 else 'violated'})",
        )


class TestDeterminism:
    def test_byte_identical_outputs_and_round_trips(self, tmp_path, capsys, detector_grid_file):
        checks = {}

        # training reruns and grid save/load
        tcfg = tmp_path / "t.cfg"
        tcfg.write_text("n_symbols=1500\nsnr_db=10\nseed=1\n", encoding="utf-8")
        ga, gb = tmp_path / "a.grid", tmp_path / "b.grid"
        rc = main(["train", "--config", str(tcfg), "--out", str(ga)])
        rc |= main(["train", "--config", str(tcfg), "--out", str(gb)])
        checks["grid reruns"] = rc == 0 and ga.read_bytes() == gb.read_bytes()
        resaved = tmp_path / "resaved.grid"
        save_grid(load_grid(ga), resaved)
        checks["grid save/load"] = resaved.read_bytes() == ga.read_bytes()

        # scenario reruns
        gcfg = tmp_path / "g.cfg"
        gcfg.write_text(
            "sf=8\nsymbols_per_frame=10\nn_interferers=1\nsnr_db=5\nseed=11\n", encoding="utf-8"
        )
        iq_a, iq_b = tmp_path / "a.iq", tmp_path / "b.iq"
        rc = main(["gen-scenario", "--config", str(gcfg), "--out", str(iq_a)])
        rc |= main(["gen-scenario", "--config", str(gcfg), "--out", str(iq_b)])
        checks["scenario reruns"] = (
            rc == 0
            and iq_a.read_bytes() == iq_b.read_bytes()
            and (tmp_path / "a.iq.truth.csv").read_bytes() == (tmp_path / "b.iq.truth.csv").read_bytes()
        )

        # evaluate reruns
        ecfg = tmp_path / "e.cfg"
        ecfg.write_text(
            "sf=8\nn_frames=3\nsnr_db=0\nn_interferers=1\nsir_db=-6,0\nseed=9\n", encoding="utf-8"
        )
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        rc = main(["evaluate", "--config", str(ecfg), "--out", str(csv_a)])
        rc |= main(["evaluate", "--config", str(ecfg), "--out", str(csv_b)])
        checks["csv reruns"] = rc == 0 and csv_a.read_bytes() == csv_b.read_bytes()

        # noiseless capture -> demod recovers embedded truth with both detectors
        ccfg = tmp_path / "clean.cfg"
        ccfg.write_text("sf=8\nsymbols_per_frame=10\nn_interferers=0\nseed=3\n", encoding="utf-8")
        iq = tmp_path / "clean.iq"
        assert main(["gen-scenario", "--config", str(ccfg), "--out", str(iq)]) == 0
        truth = [b for _, b in read_sidecar(str(iq) + ".truth.csv")[0]]
        dcfg = tmp_path / "d.cfg"
        dcfg.write_text("sf=8\n", encoding="utf-8")
        for detector in ("baseline", "cora"):
            capsys.readouterr()
            argv = ["demod", str(iq), "--config", str(dcfg), "--detector", detector]
            if detector == "cora":
                argv += ["--grid", str(detector_grid_file)]
            assert main(argv) == 0
            lines = capsys.readouterr().out.strip().splitlines()[1:]
            got = [int(line.split(",")[1]) for line in lines]
            checks[f"demod truth ({detector})"] = got == truth

        ok = all(checks.values())
        detail = ", ".join(f"{name}: {'ok' if good else 'FAIL'}" for name, good in checks.items())
        report(capsys, "determinism and round-trips", ok, detail)
