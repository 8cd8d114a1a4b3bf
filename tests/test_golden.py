"""Golden bytes: SHA-256 of fixed-seed outputs, pinned across refactors.

For a given seed the laboratory's outputs are byte-identical: grids,
campaign CSVs, IQ captures and demod stdout. These hashes were recorded
from the per-window receive path before it was batched; a change that
moves one of them changes results, and must say why and re-record.
The faded hashes were recorded from the per-tap, per-oscillator fading
loop, before it became one matrix product per tap delay.
"""

import hashlib

import pytest

from cora.cli import main

GRID_SHA256 = "0ee94344c919d7e67f1add9a410494fb178f291b269214b3605f1fe9aabdd67c"

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

CAPTURE_CFG = "sf=8\nsymbols_per_frame=20\nn_interferers=1\nsir_db=-6,0\nsnr_db=5\nseed=11\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_grid_bytes(detector_grid_file):
    assert sha256(detector_grid_file.read_bytes()) == GRID_SHA256


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


def make_capture(tmp_path, capsys, extra=""):
    cfg = tmp_path / "g.cfg"
    cfg.write_text(CAPTURE_CFG + extra, encoding="utf-8")
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


@pytest.mark.parametrize("detector", sorted(DEMOD_SHA256))
def test_demod_stdout_bytes(detector, capture, tmp_path, capsys, detector_grid_file):
    out = demod_stdout(capture, detector, tmp_path, capsys, detector_grid_file)
    assert sha256(out) == DEMOD_SHA256[detector]


@pytest.mark.parametrize("detector", sorted(FADED_DEMOD_SHA256))
def test_faded_demod_stdout_bytes(detector, faded_capture, tmp_path, capsys, detector_grid_file):
    out = demod_stdout(faded_capture, detector, tmp_path, capsys, detector_grid_file)
    assert sha256(out) == FADED_DEMOD_SHA256[detector]
