"""Release gate: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured numbers (bypassing output capture so the
lines are echoed in the terminal summary of the run)."""
import time
from dataclasses import replace

import numpy as np
import pytest

from hdrlite import tensor as T
from hdrlite.degrade import (
    DegradationConfig, conventional_degrade, exposure_stats, virtual_shot,
)
from hdrlite.imgio import (
    Image, ImageFormatError, LINEAR_HDR, NONLINEAR_SDR, float_to_code,
    read_pfm, read_ppm, read_rgbe, rgbe_to_float, write_pfm, write_rgbe,
)
from hdrlite.metrics import ablation_suite, psnr
from hdrlite.model import (
    ModelConfig, bright_invalid_mask, bright_valid_mask, count_macs, count_params,
)
from hdrlite.training import (
    TrainConfig, postprocess_gamma, preprocess_gamma, train_loop,
)
from tests.conftest import make_hdr_scene, make_pairs
from tests.test_tensor import GRAD_CASES, case_rng


CRITERION_LINES: list[str] = []


def report(num: int, desc: str, ok: bool, detail: str):
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'} [{detail}]"
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.time()
    worst = 0.0
    for name in sorted(GRAD_CASES):
        fn, tensors = GRAD_CASES[name](case_rng(name))
        worst = max(worst, T.gradient_check(fn, tensors))
    elapsed = time.time() - t0
    report(1, "finite-difference gradient checks",
           worst < 1e-4 and elapsed < 60.0,
           f"{len(GRAD_CASES)} layer types, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_parameter_and_mac_budget():
    params = count_params(ModelConfig())
    macs = count_macs(ModelConfig(), 1080, 1920)
    ok = (200_000 <= params <= 250_000 and 130e9 <= macs <= 190e9
          and params == 234_082 and macs == 164_805_580_800)
    report(2, "default model size", ok,
           f"params={params}, macs@1080p={macs / 1e9:.1f}G")


def test_criterion_3_brightness_mask_equations():
    vals_ok = (abs(bright_valid_mask(0.95) - 0.5) < 1e-9
               and abs(bright_invalid_mask(0.95) - 0.5) < 1e-9
               and bright_valid_mask(1.0) == 1.0
               and bright_invalid_mask(1.0) == 0.0
               and bright_valid_mask(0.5) == 0.0
               and bright_invalid_mask(0.5) == 1.0)
    p = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    v, i = bright_valid_mask(p), bright_invalid_mask(p)
    grid_ok = (np.abs((v + i)[p >= 0.9] - 1.0).max() < 1e-12
               and (np.diff(v) >= -1e-12).all()
               and (np.diff(i) <= 1e-12).all()
               and v.min() >= 0 and v.max() <= 1 and i.min() >= 0 and i.max() <= 1)
    report(3, "soft brightness masks", vals_ok and grid_ok,
           f"valid(0.95)={bright_valid_mask(0.95):.4f}, partition+monotone on 1e-3 grid")


def test_criterion_4_gamma_roundtrip_wide_range():
    vals = np.logspace(-3, 3, 120).astype(np.float32)  # six orders of magnitude
    img = Image(np.repeat(vals, 3).reshape(8, 15, 3), LINEAR_HDR)
    lifted, max_y = preprocess_gamma(img)
    back = postprocess_gamma(lifted.data) * max_y
    err = float(np.max(np.abs(back - img.data) / img.data))
    report(4, "gamma pre/postprocess inversion", err < 1e-5,
           f"max rel err {err:.2e} over [1e-3, 1e3]")


def test_criterion_5_degradation_chain_behavior():
    sdr = virtual_shot(make_hdr_scene(0, 64), 0.5)
    gentle = DegradationConfig(noise_sigma_range=(0.0, 0.0),
                               jpeg_qf1_range=(100, 100), jpeg_qf2=100,
                               rescale_range=(1.0, 1.0))
    near, _ = conventional_degrade(sdr, gentle, np.random.default_rng(0))
    p_near = psnr(near, sdr)
    full, _ = conventional_degrade(sdr, DegradationConfig(), np.random.default_rng(0))
    p_full = psnr(full, sdr)
    again, _ = conventional_degrade(sdr, DegradationConfig(), np.random.default_rng(0))
    identical = bool((full.data == again.data).all())
    report(5, "degradation chain strength and determinism",
           p_near > 40.0 and p_full < 50.0 and identical,
           f"near-identity {p_near:.1f}dB, default {p_full:.1f}dB, "
           f"seed-stable={identical}")


def test_criterion_6_overfit_small_dataset():
    pairs = make_pairs(8, 64)
    t0 = time.time()
    _, trace = train_loop(ModelConfig(),
                          TrainConfig(max_iters=500, patch_size=64, seed=0),
                          pairs)
    elapsed = time.time() - t0
    initial, final = trace[0]["total"], trace[-1]["total"]
    ratio = final / initial
    report(6, "500-iteration overfit", ratio <= 0.1,
           f"loss {initial:.4f} -> {final:.4f}, ratio {ratio:.3f}, {elapsed:.0f}s")


def test_criterion_7_ablation_directions():
    params_base = count_params(ModelConfig())
    params_nogroup = count_params(replace(ModelConfig(), groups=1))
    tiny = ModelConfig(dense_layers=3, dense_growth=8, unet_base_channels=8,
                       global_mlp_channels=16, groups=2)
    harsh = DegradationConfig(noise_sigma_range=(0.03, 0.05),
                              jpeg_qf1_range=(30, 40), jpeg_qf2=50,
                              rescale_range=(0.7, 0.9))
    test_pairs = [(make_hdr_scene(100 + i, 64),
                   virtual_shot(make_hdr_scene(100 + i, 64), 0.5))
                  for i in range(3)]
    rows = ablation_suite(tiny, TrainConfig(max_iters=300, patch_size=32, seed=0),
                          make_pairs(8, 64), test_pairs, harsh,
                          variants=("baseline", "no_conventional_degradation"))
    by = {r["variant"]: r for r in rows}
    ssim_base = by["baseline"]["ssim"]
    ssim_nodeg = by["no_conventional_degradation"]["ssim"]
    report(7, "ablation directions",
           params_nogroup > params_base and ssim_nodeg < ssim_base,
           f"params {params_base} -> {params_nogroup} without groups; "
           f"ssim on degraded inputs {ssim_base:.3f} vs {ssim_nodeg:.3f} "
           f"without training-time degradation")


def test_criterion_8_file_format_fidelity_and_fuzz():
    rng = np.random.default_rng(0)
    hdr = Image((rng.random((24, 31, 3)) * 300).astype(np.float32), LINEAR_HDR)
    pfm_exact = bool((read_pfm(write_pfm(hdr)).data == hdr.data).all())
    back = read_rgbe(write_rgbe(hdr)).data
    peak = hdr.data.max(axis=-1, keepdims=True)
    rgbe_err = float((np.abs(back - hdr.data) / peak).max())
    decode_ok = bool(np.allclose(
        rgbe_to_float(np.array([[[128, 128, 128, 130]]], dtype=np.uint8)), 2.0))

    prefixes = [b"", b"PF\n", b"Pf\n", b"P6\n", b"P6\n4 4\n255\n",
                b"PF\n4 4\n-1.0\n", b"#?RADIANCE\n",
                b"#?RADIANCE\n\n-Y 4 +X 4\n", b"#?RADIANCE\n\n-Y 64 +X 64\n"]
    crashes = 0
    t0 = time.time()
    for _ in range(10_000):
        blob = (prefixes[int(rng.integers(0, len(prefixes)))]
                + rng.bytes(int(rng.integers(0, 300))))
        for parser in (read_pfm, read_rgbe, read_ppm):
            try:
                parser(blob)
            except ImageFormatError:
                pass
            except Exception:
                crashes += 1
    fuzz_time = time.time() - t0
    report(8, "file format fidelity and parser fuzzing",
           pfm_exact and rgbe_err < 1 / 256 and decode_ok
           and crashes == 0 and fuzz_time < 60.0,
           f"pfm bit-exact={pfm_exact}, rgbe rel err {rgbe_err:.2e}, "
           f"10000 fuzz cases, {crashes} crashes, {fuzz_time:.1f}s")


def test_criterion_9_exposure_statistics():
    # 250x400 = 100,000 pixels with exactly 5,000 saturated
    codes = np.full((250, 400, 3), 128, dtype=np.int32)
    codes.reshape(-1, 3)[:5000, 0] = 255
    _, over5 = exposure_stats(codes)
    # broadcast-convention check: code 248 counts only when asked
    codes2 = np.full((250, 400, 3), 248, dtype=np.int32)
    _, over_default = exposure_stats(codes2)
    _, over_248 = exposure_stats(codes2, over_code=248)
    # engineered 4.711% suite
    codes3 = np.full((250, 400, 3), 10, dtype=np.int32)
    codes3.reshape(-1, 3)[:4711, 1] = 255
    _, frac = exposure_stats(codes3)
    report(9, "exposure statistics", over5 == 0.05 and over_default == 0.0
           and over_248 == 1.0 and abs(frac - 0.04711) < 5e-6,
           f"5%-at-255 -> {over5:.4f}, code-248 convention ok, "
           f"engineered suite -> {frac * 100:.3f}%")
