import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hdrlite
from hdrlite import imgio, model, training
from hdrlite.cli import EXIT_FAIL, EXIT_OK, EXIT_PARTIAL, main
from hdrlite.imgio import (
    Image, LINEAR_HDR, NONLINEAR_SDR, read_image, write_image,
)
from tests.conftest import PINNED_WITH, make_hdr_scene, make_pairs, sha256_hex, traced

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


# SHA-256 of each file `hdrlite degrade --seed 5` writes for three 40x40
# make_pairs scenes.
DEGRADE_DIGESTS = {
    "s0.manifest.txt": "ef685febb81e9dad306975421f32919056d7857be6b2360ed1bf37d874810d3a",
    "s0.ppm": "d803b8f35306d74679262de16c9f0f285860bcf57b27d18cd96790d127412308",
    "s1.manifest.txt": "9dd56563639bceb6ffc2ddec7febbeeac47cf52989b8c85e4fe637d3cec56e9b",
    "s1.ppm": "d0fd7bc620546b98e6c97b56428ed68cfe2a7010e6fc67a33f8409f90378a166",
    "s2.manifest.txt": "9d8f33932d76c921fb4f418084efa96a264070d8ac45de21fc579c08649aa5a8",
    "s2.ppm": "b5a01dd43dadd80a29a46ef8ca26c02d78b233fd6d70070a365010e115e86ea8",
}


def test_degrade_outputs_match_pinned_digests(tmp_path):
    src, out = tmp_path / "sdr", tmp_path / "out"
    src.mkdir()
    for i, (_, sdr) in enumerate(make_pairs(3, 40)):
        write_image(src / f"s{i}.ppm", sdr)
    assert main(["degrade", "--in", str(src), "--out", str(out), "--seed", "5"]) == EXIT_OK
    got = {p.name: sha256_hex(p.read_bytes()) for p in sorted(out.iterdir())}
    assert got == DEGRADE_DIGESTS, (
        f"hdrlite degrade outputs changed (digests pinned with {PINNED_WITH})")


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


def test_degrade_reads_only_the_sdr_images_of_a_pairs_dir(pair_dir, tmp_path, capsys):
    # the .pfm labels are linear HDR, not SDR codes to degrade
    sdr_only = tmp_path / "sdr_only"
    sdr_only.mkdir()
    for name in ("s0.ppm", "s1.ppm"):
        (sdr_only / name).write_bytes((pair_dir / name).read_bytes())
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["degrade", "--in", str(pair_dir), "--out", str(out), "--seed", "5"]) == EXIT_OK
    degraded = [l.split(" (")[0] for l in capsys.readouterr().out.splitlines()
                if l.startswith("degraded ")]
    assert degraded == ["degraded s0.ppm -> s0.ppm", "degraded s1.ppm -> s1.ppm"]
    assert main(["degrade", "--in", str(sdr_only), "--out", str(ref), "--seed", "5"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in ref.iterdir())
    for p in ref.iterdir():
        assert (out / p.name).read_bytes() == p.read_bytes()


def dir_digests(d: Path) -> dict:
    return {p.name: sha256_hex(p.read_bytes()) for p in sorted(d.iterdir())}


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_degrade_refuses_to_write_over_its_input(sdr_dir, capsys, spelling):
    # --out naming --in's directory, also by another path, fails before any
    # image is read and leaves every input byte as it was
    before = dir_digests(sdr_dir)
    out = sdr_dir if spelling == "same" else sdr_dir / ".." / sdr_dir.name
    rc = main(["degrade", "--in", str(sdr_dir), "--out", str(out)])
    assert rc == EXIT_FAIL
    assert f"{out} would overwrite the input {sdr_dir}" in capsys.readouterr().err
    assert dir_digests(sdr_dir) == before


def test_infer_refuses_to_write_over_its_input(pair_dir, tiny_model_cfg, tmp_path, capsys):
    # a preview over the SDR input, or an HDR output over the checkpoint,
    # fails before anything is read; the inputs keep their bytes
    ckpt = tmp_path / "model.pfm"
    assert main(["train", "--data", str(pair_dir), "--out", str(ckpt), "--iters", "0",
                 "--model-config", str(tiny_model_cfg)]) == EXIT_OK
    sdr = pair_dir / "s0.ppm"
    before = {p: p.read_bytes() for p in (sdr, ckpt)}
    for out, preview, clobbered in ((tmp_path / "pred.pfm", sdr, sdr),
                                    (ckpt, None, ckpt)):
        capsys.readouterr()
        argv = ["infer", "--checkpoint", str(ckpt), "--in", str(sdr), "--out", str(out)]
        rc = main(argv + (["--preview", str(preview)] if preview else []))
        assert rc == EXIT_FAIL
        assert f"{clobbered} would overwrite the input {clobbered}" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in before} == before
    assert not (tmp_path / "pred.pfm").exists()


@pytest.mark.parametrize("flag,name", [("--out", "s0.pfm"), ("--log", "s1.ppm")])
def test_train_refuses_to_write_over_its_input(pair_dir, tiny_model_cfg, tmp_path, capsys,
                                               flag, name):
    # a checkpoint or log over a label or SDR input of --data fails before
    # training; the data keep their bytes
    before = dir_digests(pair_dir)
    target = pair_dir / name
    outputs = {"--out": tmp_path / "m.ckpt", "--log": tmp_path / "loss.log", flag: target}
    argv = ["train", "--data", str(pair_dir), "--iters", "1", "--patch-size", "16",
            "--model-config", str(tiny_model_cfg)]
    for key, path in outputs.items():
        argv += [key, str(path)]
    assert main(argv) == EXIT_FAIL
    assert f"{target} would overwrite the input {target}" in capsys.readouterr().err
    assert dir_digests(pair_dir) == before


@pytest.fixture
def reads(monkeypatch):
    """The names of the image reads, checkpoint loads and training runs that
    start during a test, in order."""
    calls = []
    for module, name in ((imgio, "read_image"), (model, "load_checkpoint"),
                         (training, "train_loop")):
        def spy(*args, _real=getattr(module, name), _name=name, **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("case", ["same_file", "out_directory", "out_no_directory",
                                  "log_no_directory"])
def test_train_checks_its_output_files_before_reading_pairs(pair_dir, tiny_model_cfg,
                                                            tmp_path, capsys, reads, case):
    # a checkpoint and a log naming one file (also by another spelling), a
    # checkpoint that is a directory, or an output in a directory that does
    # not exist fails before any pair is read or any iteration runs, naming
    # the flag and the path
    ckpt, log = tmp_path / "m.bin", tmp_path / "loss.log"
    missing = (tmp_path / "missing").resolve()
    if case == "same_file":
        log = pair_dir / ".." / "m.bin"
        message = f"--log {log} names the same file as --out {ckpt}"
    elif case == "out_directory":
        ckpt.mkdir()
        message = f"--out {ckpt} is a directory"
    elif case == "out_no_directory":
        ckpt = tmp_path / "missing" / "m.bin"
        message = f"--out {ckpt}: directory {missing} does not exist"
    else:
        log = tmp_path / "missing" / "loss.log"
        message = f"--log {log}: directory {missing} does not exist"
    rc = main(["train", "--data", str(pair_dir), "--out", str(ckpt), "--log", str(log),
               "--iters", "2", "--patch-size", "16", "--model-config", str(tiny_model_cfg)])
    assert rc == EXIT_FAIL
    out, err = capsys.readouterr()
    assert message in err
    assert reads == [] and "final loss" not in out
    assert not ckpt.is_file() and not log.exists()


@pytest.mark.parametrize("flag", ["--out", "--preview"])
@pytest.mark.parametrize("case", ["directory", "no_directory"])
def test_infer_checks_its_output_files_before_reading(pair_dir, tmp_path, capsys, reads,
                                                      flag, case):
    # an output that is a directory, or in a directory that does not exist,
    # fails before the checkpoint or the input is read
    paths = {"--out": tmp_path / "pred.pfm", "--preview": tmp_path / "prev.ppm"}
    bad = paths[flag]
    if case == "directory":
        bad.mkdir()
        message = f"{flag} {bad} is a directory"
    else:
        bad = paths[flag] = tmp_path / "missing" / bad.name
        message = f"{flag} {bad}: directory {bad.parent.resolve()} does not exist"
    rc = main(["infer", "--checkpoint", str(tmp_path / "missing.ckpt"),
               "--in", str(pair_dir / "s0.ppm"),
               "--out", str(paths["--out"]), "--preview", str(paths["--preview"])])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert message in err and "missing.ckpt" not in err
    assert reads == []
    assert not any(p.is_file() for p in paths.values())


@pytest.mark.parametrize("command", ["train", "stats", "eval"])
def test_a_file_that_fails_to_decode_is_named(pair_dir, tiny_model_cfg, tmp_path, capsys,
                                              command):
    # a truncated SDR input, or for eval a truncated reference: the error
    # names the file (eval's also names the pair by its stem first)
    bad = pair_dir / ("s1.pfm" if command == "eval" else "s1.ppm")
    whole = bad.read_bytes()
    bad.write_bytes(whole[:-10])
    if command == "train":
        argv = ["train", "--data", str(pair_dir), "--out", str(tmp_path / "m.ckpt"),
                "--iters", "1", "--patch-size", "16", "--model-config", str(tiny_model_cfg)]
    elif command == "stats":
        argv = ["stats", "--in", str(pair_dir)]
    else:
        pred = tmp_path / "s1.pfm"
        pred.write_bytes(whole)
        argv = ["eval", "--pred", str(pred), "--ref", str(bad)]
    assert main(argv) == EXIT_FAIL
    prefix = "error: s1: " if command == "eval" else "error: "
    assert f"{prefix}{bad}: truncated {bad.suffix[1:].upper()} payload" in capsys.readouterr().err


DELETED_RECIPE_KEYS = ["exposure_scale=5.0", "crf_gamma=1.0", "clip_low=0.1",
                       "clip_high=0.9", "quant_bits=3", "seed=9"]


@pytest.mark.parametrize("line", DELETED_RECIPE_KEYS)
def test_recipe_with_a_deleted_key_fails(line, sdr_dir, pair_dir, tiny_model_cfg, tmp_path,
                                         capsys):
    key = line.split("=", 1)[0]
    recipe = tmp_path / "recipe.txt"
    recipe.write_text(line + "\n")
    rc = main(["degrade", "--in", str(sdr_dir), "--out", str(tmp_path / "o"),
               "--config", str(recipe)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "unknown recipe keys" in err and key in err
    rc = main(["train", "--data", str(pair_dir), "--out", str(tmp_path / "m.ckpt"),
               "--iters", "1", "--patch-size", "16", "--model-config", str(tiny_model_cfg),
               "--degrade-config", str(recipe)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "unknown recipe keys" in err and key in err
    assert not (tmp_path / "m.ckpt").exists()


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


@pytest.mark.parametrize("flag,code", [("--over-code", "300"), ("--under-code", "-1"),
                                       ("--over-code", "256")])
def test_stats_rejects_codes_that_8bit_data_cannot_hold(tmp_path, capsys, flag, code):
    d = tmp_path / "d"
    d.mkdir()
    write_image(d / "a.ppm", Image(np.full((4, 4, 3), 0.5, dtype=np.float32), NONLINEAR_SDR))
    rc = main(["stats", "--in", str(d), flag, code])
    assert rc == EXIT_FAIL
    out, err = capsys.readouterr()
    name = flag[2:].replace("-", "_")
    assert f"error: {name} must be an 8-bit code in 0..255, got {code}" in err
    assert "images=" not in out and "_mean=" not in out


def test_stats_counts_only_the_sdr_images_of_a_pairs_dir(tmp_path, capsys):
    # the .pfm labels are linear HDR, which has no 8-bit codes to count
    for i, (hdr, sdr) in enumerate(make_pairs(4, 96)):
        write_image(tmp_path / f"s{i}.pfm", hdr)
        write_image(tmp_path / f"s{i}.ppm", sdr)
    rc = main(["stats", "--in", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    run_stats("\n".join(out))
    # one key=value report between the echo block and the run statistics
    report = [line for line in out[:-3] if not line.startswith(("[", "  "))]
    assert report == ["images=4", "resolutions=96x96", "under_code=0", "over_code=255",
                      "under_mean=0.000000", "under_std=0.000000",
                      "over_mean=0.231717", "over_std=0.039442"]


def test_stats_holds_one_decoded_image_at_a_time(tmp_path, capsys):
    rng = np.random.default_rng(0)
    reports = {}
    for count in (4, 16):
        d = tmp_path / f"n{count}"
        d.mkdir()
        for i in range(count):
            write_image(d / f"a{i}.ppm",
                        Image(rng.random((120, 160, 3)).astype(np.float32), NONLINEAR_SDR))
    main(["stats", "--in", str(tmp_path / "n4")])  # warm-up: first-call allocations
    capsys.readouterr()
    peaks = {}
    for count in (4, 16):
        rc, _, peaks[count] = traced(main, ["stats", "--in", str(tmp_path / f"n{count}")])
        assert rc == EXIT_OK
        reports[count] = capsys.readouterr().out
    assert peaks[16] <= 1.1 * peaks[4], peaks
    assert "images=16" in reports[16] and "resolutions=160x120" in reports[16]


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


@pytest.mark.parametrize("line", ["noise_sigma_range=nan,nan", "rescale_range=0.7,inf",
                                  "cst_matrix=1,0,0,0,nan,0,0,0,1"])
def test_non_finite_recipe_fails_by_key_before_any_file(line, sdr_dir, tmp_path, capsys):
    key = line.split("=", 1)[0]
    recipe = tmp_path / "recipe.txt"
    recipe.write_text(line + "\n")
    rc = main(["degrade", "--in", str(sdr_dir), "--out", str(tmp_path / "o"),
               "--config", str(recipe)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_non_finite_lr_fails_before_training(lr, pair_dir, tiny_model_cfg, tmp_path,
                                                   capsys):
    ckpt = tmp_path / "model.ckpt"
    rc = main(["train", "--data", str(pair_dir), "--out", str(ckpt), "--iters", "2",
               "--lr", lr, "--model-config", str(tiny_model_cfg)])
    assert rc == EXIT_FAIL
    out, err = capsys.readouterr()
    assert "lr0 must be positive and finite" in err and "final loss" not in out
    assert not ckpt.exists()


def test_train_negative_iters_fails_without_checkpoint(pair_dir, tiny_model_cfg, tmp_path,
                                                       capsys):
    ckpt = tmp_path / "model.ckpt"
    rc = main(["train", "--data", str(pair_dir), "--out", str(ckpt), "--iters", "-3",
               "--model-config", str(tiny_model_cfg)])
    assert rc == EXIT_FAIL
    assert "max_iters" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("sdr_size, message", [
    ((20, 20), "image 20x20 smaller than patch size 32"),
    ((48, 40), "HDR/SDR pair dimensions differ: label 20x20, input 40x48"),
])
def test_train_rejects_an_unusable_pair_before_training(tmp_path, tiny_model_cfg, capsys,
                                                        sdr_size, message):
    # one usable 48x48 pair and one 20x20 label: too small for the patch, or
    # paired with an input of other dimensions
    data = tmp_path / "pairs"
    data.mkdir()
    (hdr, sdr), = make_pairs(1, 48)
    write_image(data / "big.pfm", hdr)
    write_image(data / "big.ppm", sdr)
    write_image(data / "small.pfm", make_hdr_scene(1, 20))
    h, w = sdr_size
    write_image(data / "small.ppm", Image(np.full((h, w, 3), 0.5, np.float32)))
    ckpt, log = tmp_path / "m.ckpt", tmp_path / "loss.log"
    rc = main(["train", "--data", str(data), "--out", str(ckpt), "--iters", "50",
               "--patch-size", "32", "--model-config", str(tiny_model_cfg), "--log", str(log)])
    assert rc == EXIT_FAIL
    out, err = capsys.readouterr()
    assert "small.pfm, small.ppm: " + message in err and "final loss" not in out
    assert not ckpt.exists() and not log.exists()


def test_train_checks_each_pair_once(pair_dir, tiny_model_cfg, tmp_path, monkeypatch):
    # train_loop checks every pair (a full-frame scan of its label) before its
    # first iteration, and the CLI does not check them again
    check, calls = training.check_pair, []

    def counting_check(hdr, sdr, size):
        calls.append(id(hdr))
        return check(hdr, sdr, size)

    monkeypatch.setattr(training, "check_pair", counting_check)
    rc = main(["train", "--data", str(pair_dir), "--out", str(tmp_path / "m.ckpt"),
               "--iters", "1", "--patch-size", "16", "--model-config", str(tiny_model_cfg)])
    assert rc == EXIT_OK
    assert len(calls) == 2 and len(set(calls)) == 2


def test_train_rejects_a_negative_label_before_training(pair_dir, tiny_model_cfg, tmp_path,
                                                        capsys):
    label = read_image(pair_dir / "s1.pfm")
    label.data[5:9, 5:9] = -0.5
    write_image(pair_dir / "s1.pfm", label)
    ckpt, log = tmp_path / "m.ckpt", tmp_path / "loss.log"
    rc = main(["train", "--data", str(pair_dir), "--out", str(ckpt), "--iters", "50",
               "--patch-size", "16", "--model-config", str(tiny_model_cfg), "--log", str(log)])
    assert rc == EXIT_FAIL
    out, err = capsys.readouterr()
    assert "s1.pfm" in err and "negative" in err and "final loss" not in out
    assert not ckpt.exists() and not log.exists()


def test_infer_rejects_a_frame_under_three_pixels(pair_dir, tiny_model_cfg, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(pair_dir), "--out", str(ckpt), "--iters", "0",
                 "--model-config", str(tiny_model_cfg)]) == EXIT_OK
    small = tmp_path / "small.ppm"
    write_image(small, Image(np.full((2, 9, 3), 0.5, np.float32), NONLINEAR_SDR))
    capsys.readouterr()
    pred = tmp_path / "pred.pfm"
    rc = main(["infer", "--checkpoint", str(ckpt), "--in", str(small), "--out", str(pred)])
    assert rc == EXIT_FAIL
    assert "9x2 frame is too small: the network needs at least 3x3" in capsys.readouterr().err
    assert not pred.exists()


def test_train_rejects_a_patch_under_three_pixels(pair_dir, tiny_model_cfg, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    rc = main(["train", "--data", str(pair_dir), "--out", str(ckpt), "--iters", "1",
               "--patch-size", "2", "--model-config", str(tiny_model_cfg)])
    assert rc == EXIT_FAIL
    assert "patch_size must be >= 3" in capsys.readouterr().err
    assert not ckpt.exists()


def test_infer_rejects_hdr_input(pair_dir, tiny_model_cfg, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(pair_dir), "--out", str(ckpt), "--iters", "0",
                 "--model-config", str(tiny_model_cfg)]) == EXIT_OK
    capsys.readouterr()
    pred = tmp_path / "pred.pfm"
    rc = main(["infer", "--checkpoint", str(ckpt), "--in", str(pair_dir / "s0.pfm"),
               "--out", str(pred)])
    assert rc == EXIT_FAIL
    assert "linear_hdr" in capsys.readouterr().err
    assert not pred.exists()


@pytest.mark.parametrize("name", ["pred.ppm", "pred.exr", "pred"])
def test_infer_rejects_a_non_hdr_out_before_reading_the_checkpoint(pair_dir, tmp_path, capsys,
                                                                  name):
    pred, preview = tmp_path / name, tmp_path / "prev.ppm"
    rc = main(["infer", "--checkpoint", str(tmp_path / "missing.ckpt"),
               "--in", str(pair_dir / "s0.ppm"), "--out", str(pred), "--preview", str(preview)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert f"--out {pred}: infer writes only .pfm and .hdr files" in err
    assert "missing.ckpt" not in err
    assert not pred.exists() and not preview.exists()


@pytest.mark.parametrize("name", ["prev.txt", "prev.pfm", "prev"])
def test_infer_rejects_a_non_ppm_preview_before_reading_the_checkpoint(pair_dir, tmp_path,
                                                                      capsys, name):
    # a .pfm preview would hold 8-bit codes as floats; no output file is left
    pred, preview = tmp_path / "pred.pfm", tmp_path / name
    rc = main(["infer", "--checkpoint", str(tmp_path / "missing.ckpt"),
               "--in", str(pair_dir / "s0.ppm"), "--out", str(pred), "--preview", str(preview)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert f"--preview {preview}: the preview is written only as a .ppm file" in err
    assert "missing.ckpt" not in err
    assert sorted(tmp_path.iterdir()) == [pair_dir]


def test_no_command_loads_scipy(pair_dir, tiny_model_cfg, tmp_path):
    # hdrlite runs on numpy alone; scipy is only the tests' oracle
    ckpt, pred = tmp_path / "tiny.ckpt", tmp_path / "pred.pfm"
    commands = [
        ["degrade", "--in", pair_dir, "--out", tmp_path / "deg"],
        ["train", "--data", pair_dir, "--out", ckpt, "--iters", "1", "--patch-size", "16",
         "--model-config", tiny_model_cfg],
        ["infer", "--checkpoint", ckpt, "--in", pair_dir / "s0.ppm", "--out", pred,
         "--preview", tmp_path / "prev.ppm"],
        ["eval", "--pred", pred, "--ref", pair_dir / "s0.pfm"],
        ["info", "--resolution", "64x48"],
    ]
    script = textwrap.dedent(f"""
        import sys
        from hdrlite.cli import main

        for argv in {[[str(a) for a in argv] for argv in commands]!r}:
            assert main(argv) == 0, argv
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert loaded == [], (argv[0], loaded)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(hdrlite.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "mean: psnr=" in proc.stdout


def test_eval_file_mode_reads_only_hdr_files(pair_dir, capsys):
    # an SDR .ppm against its label would be scored on SDR codes
    rc = main(["eval", "--pred", str(pair_dir / "s0.ppm"), "--ref", str(pair_dir / "s0.pfm")])
    assert rc == EXIT_FAIL
    out, err = capsys.readouterr()
    assert "s0.ppm" in err and "psnr=" not in out


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


def test_eval_directory_mode_skips_and_names_a_bad_pair(tmp_path, capsys):
    # b has an all-zero reference and d a 16x32 prediction against a 32x32
    # reference: each is named with its error, a and c are scored and averaged
    pred, ref = tmp_path / "pred", tmp_path / "ref"
    pred.mkdir()
    ref.mkdir()
    scene = make_hdr_scene(3, 32)
    for stem in ("a", "b", "c", "d"):
        write_image(pred / f"{stem}.pfm", scene)
        write_image(ref / f"{stem}.pfm", scene)
    write_image(ref / "b.pfm", Image(np.zeros((32, 32, 3), np.float32), LINEAR_HDR))
    write_image(pred / "d.pfm", Image(scene.data[:16], LINEAR_HDR))
    rc = main(["eval", "--pred", str(pred), "--ref", str(ref)])
    assert rc == EXIT_PARTIAL
    out, err = capsys.readouterr()
    assert [ln.split(":")[0] for ln in out.splitlines() if "psnr=" in ln] == ["a.pfm", "c.pfm",
                                                                              "mean"]
    assert "error: b: cannot normalize an all-zero image" in err
    assert "error: d: psnr dims differ" in err
    assert "2/4 pairs failed" in err

    for stem in ("a", "c"):
        (pred / f"{stem}.pfm").unlink()
    rc = main(["eval", "--pred", str(pred), "--ref", str(ref)])
    assert rc == EXIT_FAIL
    out, err = capsys.readouterr()
    assert "psnr=" not in out and "2/2 pairs failed" in err


def test_eval_directory_mode_names_unmatched_stems(pair_dir, tmp_path, capsys):
    # pred {s0, s1} against ref {s0, r9}: s0 is scored, and the stems found
    # on one side only are named on stderr; stdout and the exit code are
    # those of a run over s0 alone
    ref = tmp_path / "ref"
    ref.mkdir()
    for name in ("s0", "r9"):
        write_image(ref / f"{name}.pfm", read_image(pair_dir / "s0.pfm"))
    rc = main(["eval", "--pred", str(pair_dir), "--ref", str(ref)])
    assert rc == EXIT_OK
    out, err = capsys.readouterr()
    assert [ln.split(":")[0] for ln in out.splitlines() if "psnr=" in ln] == ["s0.pfm", "mean"]
    assert "skipped stems only in --pred: s1" in err
    assert "skipped stems only in --ref: r9" in err
    assert main(["eval", "--pred", str(pair_dir), "--ref", str(pair_dir)]) == EXIT_OK
    assert "skipped" not in capsys.readouterr().err


def test_train_names_labels_without_an_sdr_input(pair_dir, tiny_model_cfg, tmp_path,
                                                  capsys):
    write_image(pair_dir / "lone.pfm", make_hdr_scene(0, 16))  # no lone.ppm
    rc = main(["train", "--data", str(pair_dir), "--out", str(tmp_path / "m.ckpt"),
               "--iters", "0", "--model-config", str(tiny_model_cfg)])
    assert rc == EXIT_OK
    assert "skipped labels with no .ppm input: lone.pfm" in capsys.readouterr().err


def test_train_names_inputs_without_a_label(pair_dir, tiny_model_cfg, tmp_path, capsys):
    write_image(pair_dir / "lone.ppm", make_pairs(1, 16)[0][1])  # no lone.pfm/.hdr
    rc = main(["train", "--data", str(pair_dir), "--out", str(tmp_path / "m.ckpt"),
               "--iters", "0", "--model-config", str(tiny_model_cfg)])
    assert rc == EXIT_OK
    err = capsys.readouterr().err
    assert "skipped inputs with no .pfm/.hdr label: lone.ppm" in err
    assert "skipped labels" not in err


def test_eval_directory_mode_reads_only_hdr_files(pair_dir, tmp_path, capsys):
    # predictions equal to the labels of a pairs dir: each is scored against
    # its .pfm label (psnr=inf), never against the stem's SDR .ppm input
    pred = tmp_path / "pred"
    pred.mkdir()
    for i in range(2):
        write_image(pred / f"s{i}.pfm", read_image(pair_dir / f"s{i}.pfm"))
    rc = main(["eval", "--pred", str(pred), "--ref", str(pair_dir)])
    assert rc == EXIT_OK
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ": psnr=" in ln]
    assert [ln.split(" ")[:2] for ln in lines] == [
        ["s0.pfm:", "psnr=inf"], ["s1.pfm:", "psnr=inf"], ["mean:", "psnr=inf"]]


@pytest.fixture
def duplicate_label_dir(pair_dir):
    # s0 has a .pfm and a .hdr label: train would sample it twice and eval
    # would keep one of them
    write_image(pair_dir / "s0.hdr", read_image(pair_dir / "s0.pfm"))
    return pair_dir


def test_train_rejects_a_stem_with_two_labels(duplicate_label_dir, tiny_model_cfg,
                                              tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    rc = main(["train", "--data", str(duplicate_label_dir), "--out", str(ckpt),
               "--iters", "1", "--model-config", str(tiny_model_cfg)])
    assert rc == EXIT_FAIL and not ckpt.exists()
    err = capsys.readouterr().err
    assert "'s0'" in err and "s0.hdr" in err and "s0.pfm" in err


def test_eval_directory_mode_rejects_a_stem_with_two_labels(duplicate_label_dir, capsys):
    rc = main(["eval", "--pred", str(duplicate_label_dir), "--ref", str(duplicate_label_dir)])
    assert rc == EXIT_FAIL
    out, err = capsys.readouterr()
    assert "'s0'" in err and "psnr=" not in out


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


# ---------------------------------------------------------------------------
# run statistics
# ---------------------------------------------------------------------------

def run_stats(out: str) -> dict:
    """The seconds=, peak_rss_mb= and threads= lines a run ends with."""
    stats = dict(line.split("=", 1) for line in out.splitlines()[-3:])
    assert list(stats) == ["seconds", "peak_rss_mb", "threads"]
    assert float(stats["seconds"]) >= 0
    assert float(stats["peak_rss_mb"]) > 1
    assert stats["threads"] == "unknown" or int(stats["threads"]) >= 1
    return stats


def test_run_stats_end_degrade_train_infer_eval(sdr_dir, pair_dir, tiny_model_cfg,
                                                tmp_path, capsys):
    rc = main(["degrade", "--in", str(sdr_dir), "--out", str(tmp_path / "deg")])
    assert rc == EXIT_OK
    run_stats(capsys.readouterr().out)

    rc = main(["stats", "--in", str(sdr_dir)])
    assert rc == EXIT_OK
    run_stats(capsys.readouterr().out)

    ckpt, log = tmp_path / "model.ckpt", tmp_path / "loss.log"
    rc = main(["train", "--data", str(pair_dir), "--out", str(ckpt), "--iters", "2",
               "--patch-size", "16", "--model-config", str(tiny_model_cfg), "--log", str(log)])
    assert rc == EXIT_OK
    run_stats(capsys.readouterr().out)
    assert len(log.read_text().splitlines()) == 2  # the loss log keeps its lines

    pred = tmp_path / "pred.pfm"
    rc = main(["infer", "--checkpoint", str(ckpt), "--in", str(pair_dir / "s0.ppm"),
               "--out", str(pred)])
    assert rc == EXIT_OK
    run_stats(capsys.readouterr().out)

    rc = main(["eval", "--pred", str(pred), "--ref", str(pair_dir / "s0.pfm")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    run_stats(out)
    # exactly one line starts with the prediction's name, as scripts filter it
    assert len([l for l in out.splitlines() if l.startswith("pred.pfm:")]) == 1


def test_run_stats_end_a_failed_run_too(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["degrade", "--in", str(empty), "--out", str(tmp_path / "o")]) == EXIT_FAIL
    run_stats(capsys.readouterr().out)


def test_info_and_bench_print_no_run_stats(tiny_model_cfg, capsys):
    assert main(["info", "--model-config", str(tiny_model_cfg)]) == EXIT_OK
    assert "\nseconds=" not in capsys.readouterr().out
    assert main(["bench", "--model-config", str(tiny_model_cfg), "--resolution", "24x16",
                 "--repeats", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "\nseconds=" not in out  # bench reports median_seconds= instead
    assert float(next(l for l in out.splitlines()
                      if l.startswith("peak_rss_mb=")).split("=")[1]) > 1


@pytest.mark.parametrize("flag", ["--model-config", "--config", "--degrade-config"])
def test_a_config_file_that_is_not_utf8_fails_naming_the_file(flag, pair_dir, tiny_model_cfg,
                                                              tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    raw = bytearray(tiny_model_cfg.read_bytes() if flag == "--model-config"
                    else b"jpeg_qf2=90\n")
    raw[0] = 0xFF
    bad.write_bytes(bytes(raw))
    out = tmp_path / "out"
    argv = {"--model-config": ["info"],
            "--config": ["degrade", "--in", str(pair_dir), "--out", str(out)],
            "--degrade-config": ["train", "--data", str(pair_dir), "--out", str(out)]}[flag]
    assert main(argv + [flag, str(bad)]) == EXIT_FAIL
    assert f"{bad} is not UTF-8 text (byte 0)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["degrade", "bench"])
def test_a_negative_seed_is_a_usage_error_naming_the_flag(command, sdr_dir, tmp_path, capsys,
                                                          monkeypatch):
    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr("hdrlite.imgio.read_image", no_read)
    out = tmp_path / "out"
    argv = {"degrade": ["degrade", "--in", str(sdr_dir), "--out", str(out)],
            "bench": ["bench", "--resolution", "24x16"]}[command]
    with pytest.raises(SystemExit) as e:
        main(argv + ["--seed", "-1"])
    assert e.value.code == 2
    assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


def test_train_keeps_the_train_config_seed_check(pair_dir, tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(pair_dir), "--out", str(out), "--iters", "0",
                 "--seed", "-1"]) == EXIT_FAIL
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
