import numpy as np
import pytest

from hdrlite.cli import EXIT_FAIL, EXIT_OK, EXIT_PARTIAL, main
from hdrlite.imgio import (
    Image, LINEAR_HDR, NONLINEAR_SDR, read_image, write_image,
)
from tests.conftest import make_hdr_scene, make_pairs

TINY_MODEL = """\
dense_layers=2
dense_growth=4
unet_base_channels=4
global_mlp_channels=4
groups=2
"""


@pytest.fixture
def sdr_dir(tmp_path):
    d = tmp_path / "sdr"
    d.mkdir()
    for i in range(2):
        hdr, sdr = make_pairs(1, 32)[0]
        r = np.random.default_rng(i)
        img = Image(r.random((32, 32, 3)).astype(np.float32), NONLINEAR_SDR)
        write_image(d / f"img{i}.ppm", img)
    return d


@pytest.fixture
def pair_dir(tmp_path):
    d = tmp_path / "pairs"
    d.mkdir()
    for i, (hdr, sdr) in enumerate(make_pairs(2, 32)):
        write_image(d / f"s{i}.pfm", hdr)
        write_image(d / f"s{i}.ppm", sdr)
    return d


@pytest.fixture
def tiny_model_cfg(tmp_path):
    p = tmp_path / "model.cfg"
    p.write_text(TINY_MODEL)
    return p


# ---------------------------------------------------------------------------
# degrade
# ---------------------------------------------------------------------------

def test_degrade_writes_outputs_and_manifests(sdr_dir, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["degrade", "--in", str(sdr_dir), "--out", str(out), "--seed", "3"])
    assert rc == EXIT_OK
    produced = sorted(p.name for p in out.iterdir())
    assert produced == ["img0.manifest.txt", "img0.ppm",
                        "img1.manifest.txt", "img1.ppm"]
    manifest = dict(l.split("=", 1)
                    for l in (out / "img0.manifest.txt").read_text().split())
    assert 0.001 <= float(manifest["sigma"]) <= 0.003
    assert 60 <= int(manifest["qf1"]) <= 80
    assert manifest["qf2"] == "75"
    assert 0.7 <= float(manifest["rescale"]) <= 1.0
    stdout = capsys.readouterr().out
    assert "[degrade]" in stdout  # resolved configuration is echoed
    assert "seed = 3" in stdout


def test_degrade_deterministic_per_seed(sdr_dir, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["degrade", "--in", str(sdr_dir), "--out", str(out1), "--seed", "5"])
    main(["degrade", "--in", str(sdr_dir), "--out", str(out2), "--seed", "5"])
    for name in ("img0.ppm", "img1.ppm"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_degrade_partial_failure(sdr_dir, tmp_path, capsys):
    (sdr_dir / "broken.ppm").write_bytes(b"P6\n9 9\n255\nshort")
    rc = main(["degrade", "--in", str(sdr_dir), "--out", str(tmp_path / "o")])
    assert rc == EXIT_PARTIAL
    err = capsys.readouterr().err
    assert "broken.ppm" in err
    assert "1/3 files failed" in err


def test_degrade_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["degrade", "--in", str(empty), "--out", str(tmp_path / "o")])
    assert rc == EXIT_FAIL
    assert "no input images" in capsys.readouterr().err


def test_degrade_missing_dir_fails(tmp_path, capsys):
    rc = main(["degrade", "--in", str(tmp_path / "nope"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_FAIL


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_reports_fractions(tmp_path, capsys):
    d = tmp_path / "d"
    d.mkdir()
    codes = np.full((10, 10, 3), 0.5, dtype=np.float32)
    codes[0, :5] = 1.0
    write_image(d / "a.ppm", Image(codes, NONLINEAR_SDR))
    rc = main(["stats", "--in", str(d)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "over_mean=0.050000" in out
    assert "10x10" in out


def test_stats_custom_codes(tmp_path, capsys):
    d = tmp_path / "d"
    d.mkdir()
    codes = np.full((10, 10, 3), 248 / 255.0, dtype=np.float32)
    write_image(d / "a.ppm", Image(codes, NONLINEAR_SDR))
    rc = main(["stats", "--in", str(d), "--over-code", "248"])
    assert rc == EXIT_OK
    assert "over_mean=1.000000" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# train / infer / eval
# ---------------------------------------------------------------------------

def test_train_infer_eval_pipeline(pair_dir, tiny_model_cfg, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    rc = main(["train", "--data", str(pair_dir), "--out", str(ckpt),
               "--iters", "2", "--patch-size", "16", "--no-degrade",
               "--model-config", str(tiny_model_cfg),
               "--log", str(tmp_path / "loss.log")])
    assert rc == EXIT_OK
    assert ckpt.exists()
    assert len((tmp_path / "loss.log").read_text().splitlines()) == 2
    capsys.readouterr()

    pred = tmp_path / "pred.pfm"
    preview = tmp_path / "prev.ppm"
    rc = main(["infer", "--checkpoint", str(ckpt),
               "--in", str(pair_dir / "s0.ppm"), "--out", str(pred),
               "--preview", str(preview)])
    assert rc == EXIT_OK
    assert read_image(pred).domain == LINEAR_HDR
    assert read_image(preview).data.shape == (32, 32, 3)
    capsys.readouterr()

    rc = main(["eval", "--pred", str(pred), "--ref", str(pair_dir / "s0.pfm")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "psnr=" in out and "ssim=" in out and "mean:" in out
    assert "gamma045" in out


def test_train_no_pairs_fails(tmp_path, tiny_model_cfg, capsys):
    d = tmp_path / "lonely"
    d.mkdir()
    write_image(d / "only.pfm", make_hdr_scene(0, 16))  # no matching .ppm
    rc = main(["train", "--data", str(d), "--out", str(tmp_path / "m.ckpt"),
               "--iters", "1", "--model-config", str(tiny_model_cfg)])
    assert rc == EXIT_FAIL
    assert "no HDR/SDR pairs" in capsys.readouterr().err


def test_eval_mixed_file_and_dir_fails(pair_dir, tmp_path, capsys):
    rc = main(["eval", "--pred", str(pair_dir), "--ref",
               str(pair_dir / "s0.pfm")])
    assert rc == EXIT_FAIL
    assert "both" in capsys.readouterr().err


def test_eval_directory_mode(pair_dir, tmp_path, capsys):
    # self-evaluation of references: identical pairs give inf psnr
    rc = main(["eval", "--pred", str(pair_dir), "--ref", str(pair_dir)])
    assert rc == EXIT_OK


# ---------------------------------------------------------------------------
# info / bench
# ---------------------------------------------------------------------------

def test_info_default_model(capsys):
    rc = main(["info"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "params=234082" in out
    assert "macs=164805580800" in out


def test_info_tiny_model_additivity(tiny_model_cfg, capsys):
    rc = main(["info", "--model-config", str(tiny_model_cfg),
               "--resolution", "64x48"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    per_layer = [int(l.split("params=")[1].split()[0])
                 for l in out.splitlines() if "macs=" in l and "  " in l
                 and not l.startswith(("params", "macs"))]
    total = int(next(l for l in out.splitlines()
                     if l.startswith("params=")).split("=")[1])
    assert sum(per_layer) == total


def test_info_bad_resolution(capsys):
    rc = main(["info", "--resolution", "bogus"])
    assert rc == EXIT_FAIL
    assert "resolution" in capsys.readouterr().err


def test_bench_valid(tiny_model_cfg, capsys):
    rc = main(["bench", "--model-config", str(tiny_model_cfg),
               "--resolution", "24x16", "--repeats", "3"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "median_seconds=" in out
    assert "resolution=24x16" in out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["not-a-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_unknown_model_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("flux_capacitance=3\n")
    rc = main(["info", "--model-config", str(bad)])
    assert rc == EXIT_FAIL
    assert "unknown model config keys" in capsys.readouterr().err


def test_model_config_bool_typo(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("use_partial_conv=ture\n")
    rc = main(["info", "--model-config", str(bad)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "use_partial_conv" in err and "ture" in err
