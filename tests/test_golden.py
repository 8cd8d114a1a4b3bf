"""Golden bytes: SHA-256 of fixed-seed outputs, pinned across refactors.

For a given seed the laboratory's outputs are byte-identical: grids,
campaign CSVs, IQ captures and demod stdout. These hashes were recorded
from the per-window receive path before it was batched; a change that
moves one of them changes results, and must say why and re-record.
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_grid_bytes(detector_grid_file):
    assert sha256(detector_grid_file.read_bytes()) == GRID_SHA256


@pytest.mark.parametrize("sf, detector", sorted(EVALUATE_SHA256))
def test_evaluate_csv_bytes(sf, detector, tmp_path, capsys, detector_grid_file):
    cfg = tmp_path / "e.cfg"
    cfg.write_text(
        f"sf={sf}\nn_frames=40\nsnr_db=5\nn_interferers=1\nsir_db=-6,0\nseed=42\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    argv = ["evaluate", "--config", str(cfg), "--out", str(out), "--detector", detector]
    if detector == "cora":
        argv += ["--grid", str(detector_grid_file)]
    assert main(argv) == 0
    assert sha256(out.read_bytes()) == EVALUATE_SHA256[(sf, detector)]


@pytest.fixture
def capture(tmp_path, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text(
        "sf=8\nsymbols_per_frame=20\nn_interferers=1\nsir_db=-6,0\nsnr_db=5\nseed=11\n",
        encoding="utf-8",
    )
    iq = tmp_path / "cap.iq"
    assert main(["gen-scenario", "--config", str(cfg), "--out", str(iq)]) == 0
    capsys.readouterr()
    return iq


def test_capture_bytes(capture):
    assert sha256(capture.read_bytes()) == CAPTURE_SHA256["iq"]
    truth = capture.with_name(capture.name + ".truth.csv")
    assert sha256(truth.read_bytes()) == CAPTURE_SHA256["truth"]


@pytest.mark.parametrize("detector", sorted(DEMOD_SHA256))
def test_demod_stdout_bytes(detector, capture, tmp_path, capsys, detector_grid_file):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("sf=8\n", encoding="utf-8")
    argv = ["demod", str(capture), "--config", str(cfg), "--detector", detector]
    if detector == "cora":
        argv += ["--grid", str(detector_grid_file)]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == DEMOD_SHA256[detector]
