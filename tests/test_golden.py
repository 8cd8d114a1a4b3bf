"""Golden bytes: SHA-256 of fixed-seed outputs, pinned across refactors.

For a given seed the laboratory's outputs are byte-identical: grids,
campaign CSVs, IQ captures and demod stdout. These hashes were recorded
from the per-window receive path before it was batched; a change that
moves one of them changes results, and must say why and re-record.
The faded hashes were recorded from the per-tap, per-oscillator fading
loop, before it became one matrix product per tap delay. The default-SNR
grid hash was recorded from the one-window-at-a-time training loop,
before training synthesis was batched. The noiseless SF7 capture and the
fixed-offset SF8 campaign were recorded from the frame-at-a-time
campaign loop, before campaigns were built and decoded in chunks.
The two grid-file hashes were re-recorded when grids went from decimal
cell rows (`CORA-GRID v1`) to raw little-endian float64 cells after the
text header (`CORA-GRID v2`). The cell hashes, recorded from v1 files as
`load_grid(p).cells.astype("<f8").tobytes()`, pin the cells themselves
across that change: a v2 file's bytes after its third LF hash to them.
The frame-synthesis hashes pin the float64 samples themselves, which
captures (float32) and CSVs (error counts) do not show. They were
recorded when `channel.collide` summed every frame of a chunk at once
from one (2, F, L) noise buffer, before it became one frame at a time.
The faded frame-synthesis hash was re-recorded when `apply_fading` took
its Taylor block width from the profile's maximum Doppler, not from each
stream's realised Dopplers: one of the nine frames had drawn B = 2,048
and moved by at most 1e-15. Every faded CSV, capture and demod hash held.
"""

import hashlib
import math
from functools import partial

import numpy as np
import pytest

from cora.channel import TrainConfig, compose_collision, etu_like_profile
from cora.cli import main
from cora.detector import map_chunks, save_grid, train
from cora.harness import ExperimentConfig, ScenarioSpec, simulate_frame
from cora.phy import PhyParams, build_frame, frame_length

GRID_SHA256 = "ba0cc803c80e53172861feaa57f5ab4068f5963fb33bfb02e2d3bc889f1cea51"
GRID_CELLS_SHA256 = "409a3c76ceac46e3c96edcf6553877657fd03765acd721f05a46f0c8d072d76b"

# TrainConfig's default recipe (SNR -1 dB) at 3000 windows, seed 5.
DEFAULT_SNR_GRID_SHA256 = "6ec8a727eda33419f4d762c8f48c3a492e36118eaccd2b8de2082b448a70a277"
DEFAULT_SNR_GRID_CELLS_SHA256 = "dfa9c26c2835726718e1ec1d36dfef7e1143902288afdb1a349bc4aea03bf18b"

# The acceptance gates' and the benchmark's campaign grid, the session
# fixture `campaign_grid`: TrainConfig(n_symbols=20_000, seed=7, snr_db=10.0).
CAMPAIGN_GRID_SHA256 = "aaa5e1c719a6354f0dd35bf68bd5446a37817269e7d2390f580518652aa01816"
CAMPAIGN_GRID_CELLS_SHA256 = "63d8615a78ab23933dfb58bb8a50ceca693135372d6933e1b45e307558cbaa06"

EVALUATE_SHA256 = {
    (7, "baseline"): "a64339498749058a510a720b9820d60aad02e631ea19d48dcf9a5828fcebd1a8",
    (7, "cora"): "59681c273cf1357280b257a5b68ed65f5bf709c6d55b47178f0e62f382339467",
    (10, "baseline"): "326b1fd32192406575c4bf3247ab68ba2eb16cce0c4cab1c24374d00a372666e",
    (10, "cora"): "365fbe3fd86b91b16386840a0aa6fd2a92841c66a1cee1616935e8c36ccb7b9d",
}

CAPTURE_SHA256 = {
    "iq": "69ca3ccf0c0e3f3c5dfb89331b56c8ec9484e737ce37adc6569e683075704544",
    "truth": "225667511fedb151dc15582685e725bfd738a5a384ee52e415a36ef6eb4ea95c",
}

DEMOD_SHA256 = {
    "baseline": "f205676ff12cf2aeb7dae61262ccd92ee46418bfc4d14777c3838a75d09d0ecf",
    "cora": "ffa526192b6523c2737833b259ffa12585fdf4b59012af4799c3dac88a366a83",
}


FADED_EVALUATE_SHA256 = {
    "baseline": "9ae56c5156f0f189580e16ab1c01cb19eb3feeb5d8ac4068950953695e045edc",
    "cora": "069f629a1efc88c2f21bcf2ac7bc0e6185d4cfed0754390ca4d50efeed42ea89",
}

FADED_CAPTURE_SHA256 = {
    "iq": "717576f3d5ca95140979ce9364c34d4f0fef634a78c43112c9b8583c69e0c5ac",
    "truth": "225667511fedb151dc15582685e725bfd738a5a384ee52e415a36ef6eb4ea95c",
}

FADED_DEMOD_SHA256 = {
    "baseline": "2af33f8fef9714d4c5d9b324003310166c96fec11adefde68fa919077eeeb58c",
    "cora": "78bedb704cc3d34b540e28ae48c13d1c10c1b136d40928e9995592534722c777",
}

# SF7, infinite SNR, no interferers: the noise is scaled by exactly 0, so
# these bytes are the bare frame after the signed zeros of that noise were
# added, as the capture stores them.
NOISELESS_CAPTURE_SHA256 = {
    "iq": "763f7bef6c725870fe018d32249c610cc3a1c8dfa8248bd1557c3a767ff7e7ec",
    "truth": "4fc36065cf47c5966c9d480fc2f73ea39a77f3df6331dfb9a0c1551f684b3f2d",
}

# SF8, 3 interferers at a fixed offset, 37 frames: a frame count that no
# campaign chunk divides, so the last chunk is a short one.
FIXED_OFFSET_EVALUATE_SHA256 = {
    "baseline": "36ff7228d8abf057569ce5faa71d39bf1529cb085d4f94e24d97d6febadb0a9b",
    "cora": "368f0075f36236aa0e7fc5caa72d72bc4a1ccb02894c807959f6a11dca24fc7e",
}

# SF8 frames of 20 payload symbols, seed 7, 9 frames: chunks of 7 and 2.
FRAMES_SHA256 = {
    "two-interferers": "b6c1258fc6b54e057170c81469f4373490db29dbeba742e85f9ff632145951eb",
    "fixed-offset-noiseless": "6aaa4d90acc2cf9f69dafc775d40baf7506ac03e65222198a727e25e2cc64c1e",
    "faded": "8297d844a2e84304f7ec2cf73d835ba13387507417b18e9441fb543baeb69aeb",
}
FRAMES_SCENARIOS = {
    "two-interferers": ScenarioSpec(snr_db=10.0, n_interferers=2, sir_db=(-6.0, 0.0)),
    # infinite SNR, so the noise is scaled by exactly 0; three interferers at one offset
    "fixed-offset-noiseless": ScenarioSpec(
        n_interferers=3, sir_db=(-6.0, 0.0), offset_mode="fixed", offset_samples=1000
    ),
    "faded": ScenarioSpec(
        snr_db=5.0, n_interferers=1, sir_db=(-6.0, 0.0), fading_profile=etu_like_profile()
    ),
}

# An SF8 target whose every third sample is -0.0 - 0.0j, one interferer,
# infinite SNR: which of those zeros stay negative depends on the noise signs.
SIGNED_ZERO_COLLISION_SHA256 = "a5e5b9b27a9adfcb12a17ee4a1ae293565df93c26ae2caa77ec26ab35e836968"

CAPTURE_CFG = "sf=8\nsymbols_per_frame=20\nn_interferers=1\nsir_db=-6,0\nsnr_db=5\nseed=11\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cell_bytes(grid_file: bytes) -> bytes:
    """The bytes after a grid file's third LF: its cells."""
    return grid_file.split(b"\n", 3)[3]


def test_grid_bytes(detector_grid_file):
    data = detector_grid_file.read_bytes()
    assert sha256(cell_bytes(data)) == GRID_CELLS_SHA256
    assert sha256(data) == GRID_SHA256


def test_default_snr_grid_bytes(tmp_path):
    path = tmp_path / "default.grid"
    save_grid(train(TrainConfig(n_symbols=3000, seed=5)), path)
    data = path.read_bytes()
    assert sha256(cell_bytes(data)) == DEFAULT_SNR_GRID_CELLS_SHA256
    assert sha256(data) == DEFAULT_SNR_GRID_SHA256


def test_campaign_grid_bytes(campaign_grid, tmp_path):
    path = tmp_path / "campaign.grid"
    save_grid(campaign_grid, path)
    data = path.read_bytes()
    assert sha256(cell_bytes(data)) == CAMPAIGN_GRID_CELLS_SHA256
    assert sha256(data) == CAMPAIGN_GRID_SHA256


def evaluate_csv(cfg_text, detector, tmp_path, grid_file) -> bytes:
    cfg = tmp_path / "e.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = ["evaluate", "--config", str(cfg), "--out", str(out), "--detector", detector]
    if detector == "cora":
        argv += ["--grid", str(grid_file)]
    assert main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("sf, detector", sorted(EVALUATE_SHA256))
def test_evaluate_csv_bytes(sf, detector, tmp_path, capsys, detector_grid_file):
    cfg = f"sf={sf}\nn_frames=40\nsnr_db=5\nn_interferers=1\nsir_db=-6,0\nseed=42\n"
    csv = evaluate_csv(cfg, detector, tmp_path, detector_grid_file)
    assert sha256(csv) == EVALUATE_SHA256[(sf, detector)]


@pytest.mark.parametrize("detector", sorted(FADED_EVALUATE_SHA256))
def test_faded_evaluate_csv_bytes(detector, tmp_path, capsys, detector_grid_file):
    cfg = "sf=8\nn_frames=30\nsnr_db=5\nfading=true\nframe_error_threshold=2\nseed=42\n"
    csv = evaluate_csv(cfg, detector, tmp_path, detector_grid_file)
    assert sha256(csv) == FADED_EVALUATE_SHA256[detector]


@pytest.mark.parametrize("detector", sorted(FIXED_OFFSET_EVALUATE_SHA256))
def test_fixed_offset_evaluate_csv_bytes(detector, tmp_path, capsys, detector_grid_file):
    cfg = (
        "sf=8\nn_frames=37\nsnr_db=5\nn_interferers=3\nsir_db=-6,0\n"
        "offset_mode=fixed\noffset_samples=1000\nseed=42\n"
    )
    csv = evaluate_csv(cfg, detector, tmp_path, detector_grid_file)
    assert sha256(csv) == FIXED_OFFSET_EVALUATE_SHA256[detector]


def make_capture(tmp_path, capsys, extra="", base=CAPTURE_CFG):
    cfg = tmp_path / "g.cfg"
    cfg.write_text(base + extra, encoding="utf-8")
    iq = tmp_path / "cap.iq"
    assert main(["gen-scenario", "--config", str(cfg), "--out", str(iq)]) == 0
    capsys.readouterr()
    return iq


@pytest.fixture
def capture(tmp_path, capsys):
    return make_capture(tmp_path, capsys)


@pytest.fixture
def faded_capture(tmp_path, capsys):
    return make_capture(tmp_path, capsys, "fading=true\n")


def capture_hashes(iq) -> dict[str, str]:
    truth = iq.with_name(iq.name + ".truth.csv")
    return {"iq": sha256(iq.read_bytes()), "truth": sha256(truth.read_bytes())}


def demod_stdout(iq, detector, tmp_path, capsys, grid_file) -> bytes:
    cfg = tmp_path / "d.cfg"
    cfg.write_text("sf=8\n", encoding="utf-8")
    argv = ["demod", str(iq), "--config", str(cfg), "--detector", detector]
    if detector == "cora":
        argv += ["--grid", str(grid_file)]
    assert main(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


def test_capture_bytes(capture):
    assert capture_hashes(capture) == CAPTURE_SHA256


def test_faded_capture_bytes(faded_capture):
    assert capture_hashes(faded_capture) == FADED_CAPTURE_SHA256


def test_noiseless_capture_bytes(tmp_path, capsys):
    iq = make_capture(tmp_path, capsys, base="sf=7\nsymbols_per_frame=20\nsnr_db=inf\nseed=3\n")
    assert capture_hashes(iq) == NOISELESS_CAPTURE_SHA256


@pytest.mark.parametrize("detector", sorted(DEMOD_SHA256))
def test_demod_stdout_bytes(detector, capture, tmp_path, capsys, detector_grid_file):
    out = demod_stdout(capture, detector, tmp_path, capsys, detector_grid_file)
    assert sha256(out) == DEMOD_SHA256[detector]


@pytest.mark.parametrize("detector", sorted(FADED_DEMOD_SHA256))
def test_faded_demod_stdout_bytes(detector, faded_capture, tmp_path, capsys, detector_grid_file):
    out = demod_stdout(faded_capture, detector, tmp_path, capsys, detector_grid_file)
    assert sha256(out) == FADED_DEMOD_SHA256[detector]


def sample_bytes(samples: np.ndarray) -> bytes:
    return samples.astype("<c16").tobytes()


@pytest.mark.parametrize("case", sorted(FRAMES_SHA256))
def test_simulated_frame_bytes(case):
    sc = FRAMES_SCENARIOS[case]
    cfg = ExperimentConfig(phy=PhyParams(sf=8), detector="baseline", scenario=sc, seed=7)
    total = frame_length(cfg.symbols_per_frame, cfg.preamble_len, cfg.phy)
    chunks, _ = map_chunks(partial(simulate_frame, cfg), cfg.seed, 9, total)
    assert [len(samples) for samples, _, _ in chunks] == [7, 2]
    samples = np.concatenate([samples for samples, _, _ in chunks])
    assert sha256(sample_bytes(samples)) == FRAMES_SHA256[case]


def test_signed_zero_collision_bytes():
    phy = PhyParams(sf=8)
    target = build_frame(np.arange(20) * 11 % 256, 8, phy)
    target[::3] = complex(-0.0, -0.0)
    interferer = build_frame(np.arange(20) * 5 % 256, 8, phy)
    out = compose_collision(target, [(interferer, -3.0, 500)], math.inf, np.random.default_rng(9))
    assert sha256(sample_bytes(out)) == SIGNED_ZERO_COLLISION_SHA256
