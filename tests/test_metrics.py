import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.ndimage

from hdrlite import metrics
from hdrlite import tensor as T
from hdrlite.degrade import DegradationConfig
from hdrlite.imgio import Image, LINEAR_HDR, NONLINEAR_SDR
from hdrlite.metrics import (
    ablation_suite, bench_forward, blas_threads,
    evaluate_on_degraded, hdr_pair_metrics, psnr, reconstruct_hdr, ssim,
    to_metric_domain, tonemap_preview,
)
from hdrlite.model import ModelConfig, Network, count_macs
from hdrlite.tensor import Tensor
from hdrlite.training import TrainConfig, kaiming_init, loss_terms
from tests.conftest import make_hdr_scene, make_pairs

TINY = ModelConfig(dense_layers=2, dense_growth=4, unet_base_channels=4,
                   global_mlp_channels=4, groups=2)


def sdr_image(seed, h=32, w=32):
    r = np.random.default_rng(seed)
    return Image(r.random((h, w, 3)).astype(np.float32), NONLINEAR_SDR)


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------

def test_psnr_uniform_offset():
    a = sdr_image(0)
    b = Image(np.clip(a.data[:16] + 1.0 / 255.0, 0, 1), NONLINEAR_SDR)
    a16 = Image(a.data[:16].copy(), NONLINEAR_SDR)
    # keep away from the clip boundary for the exact value
    mask_ok = (a16.data + 1.0 / 255.0 <= 1.0).all()
    if not mask_ok:
        a16 = Image(a16.data * 0.9, NONLINEAR_SDR)
        b = Image(a16.data + 1.0 / 255.0, NONLINEAR_SDR)
    assert psnr(a16, b) == pytest.approx(20 * np.log10(255), abs=1e-4)  # 48.1308


def test_psnr_identical_is_infinite():
    a = sdr_image(1)
    assert psnr(a, a) == np.inf


def test_psnr_symmetry_and_shape_check():
    a, b = sdr_image(2), sdr_image(3)
    assert psnr(a, b) == pytest.approx(psnr(b, a))
    with pytest.raises(ValueError):
        psnr(a, Image(a.data[:16].copy(), NONLINEAR_SDR))


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

def test_ssim_identical_is_one():
    a = sdr_image(4)
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)


def test_ssim_degrades_with_noise_and_is_symmetric():
    a = sdr_image(5, 48, 48)
    r = np.random.default_rng(6)
    mild = Image(np.clip(a.data + 0.02 * r.standard_normal(a.data.shape), 0, 1)
                 .astype(np.float32), NONLINEAR_SDR)
    heavy = Image(np.clip(a.data + 0.2 * r.standard_normal(a.data.shape), 0, 1)
                  .astype(np.float32), NONLINEAR_SDR)
    s_mild, s_heavy = ssim(a, mild), ssim(a, heavy)
    assert 1.0 > s_mild > s_heavy
    assert ssim(mild, a) == pytest.approx(s_mild)


def test_ssim_rejects_tiny_images():
    a = sdr_image(7, 8, 8)
    with pytest.raises(ValueError, match="11x11"):
        ssim(a, a)


def ssim_2d_reference(a, b, peak=1.0):
    """SSIM with the full 11x11 window as one 2-D convolution per channel."""
    ax = np.arange(11) - 5.0
    g = np.exp(-(ax ** 2) / (2 * 1.5 * 1.5))
    win = np.outer(g, g)
    win /= win.sum()
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2

    def filt(x):
        return scipy.ndimage.convolve(x, win, mode="mirror")

    vals = []
    for c in range(3):
        x = np.asarray(a.data[..., c], np.float64)
        y = np.asarray(b.data[..., c], np.float64)
        mx, my = filt(x), filt(y)
        vxx = filt(x * x) - mx * mx
        vyy = filt(y * y) - my * my
        vxy = filt(x * y) - mx * my
        num = (2 * mx * my + c1) * (2 * vxy + c2)
        den = (mx * mx + my * my + c1) * (vxx + vyy + c2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


@pytest.mark.parametrize("h,w,sigma", [(32, 32, 0.05), (11, 11, 0.1), (11, 40, 0.02),
                                       (57, 13, 0.3), (64, 96, 0.01)])
def test_separable_ssim_matches_2d_window(h, w, sigma):
    r = np.random.default_rng(h * w)
    a = sdr_image(h + w, h, w)
    b = Image(np.clip(a.data + sigma * r.standard_normal(a.data.shape), 0, 1)
              .astype(np.float32), NONLINEAR_SDR)
    assert abs(ssim(a, b) - ssim_2d_reference(a, b)) <= 1e-12
    assert abs(ssim(a, b, peak=2.0) - ssim_2d_reference(a, b, peak=2.0)) <= 1e-12


def ssim_separable_reference(a, b, peak=1.0):
    """SSIM with scipy's 1-D mirror-mode correlation along each axis."""
    g = metrics._ssim_window()
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2

    def filt(x):
        x = scipy.ndimage.correlate1d(x, g, axis=0, mode="mirror")
        return scipy.ndimage.correlate1d(x, g, axis=1, mode="mirror")

    vals = []
    for c in range(3):
        x = np.asarray(a.data[..., c], np.float64)
        y = np.asarray(b.data[..., c], np.float64)
        mx, my = filt(x), filt(y)
        vxx = filt(x * x) - mx * mx
        vyy = filt(y * y) - my * my
        vxy = filt(x * y) - mx * my
        num = (2 * mx * my + c1) * (2 * vxy + c2)
        den = (mx * mx + my * my + c1) * (vxx + vyy + c2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


# sizes below, at and across the 32-sample GEMM block, with end blocks that
# are whole, partial and shorter than the taps' reach
@pytest.mark.parametrize("h,w", [(11, 11), (11, 40), (57, 13), (33, 97), (270, 480),
                                 (37, 69), (64, 66)])
def test_banded_ssim_matches_separable_scipy_reference(h, w):
    r = np.random.default_rng(h + 7 * w)
    a = sdr_image(h * w, h, w)
    b = Image(np.clip(a.data + 0.05 * r.standard_normal(a.data.shape), 0, 1)
              .astype(np.float32), NONLINEAR_SDR)
    for peak in (1.0, 2.0):
        assert abs(ssim(a, b, peak) - ssim_separable_reference(a, b, peak)) <= 1e-12


def test_ssim_memory_does_not_grow_with_the_square_of_a_side():
    # one dense 8192x8192 float64 filter matrix would take 512 MiB; the
    # banded passes hold two (5, h, w) float64 stacks, 10 MiB here
    a = sdr_image(5, 16, 8192)
    b = sdr_image(6, 16, 8192)
    tracemalloc.start()
    try:
        ssim(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# Metric domain
# ---------------------------------------------------------------------------

def test_to_metric_domain_normalizes_and_lifts():
    img = Image(np.full((2, 2, 3), 4.0, dtype=np.float32), LINEAR_HDR)
    out = to_metric_domain(img)
    np.testing.assert_allclose(out.data, 1.0)
    out2 = to_metric_domain(img, max_y=16.0)
    np.testing.assert_allclose(out2.data, 0.25 ** 0.45, rtol=1e-6)
    with pytest.raises(ValueError):
        to_metric_domain(Image(np.zeros((2, 2, 3), dtype=np.float32), LINEAR_HDR))


def test_hdr_pair_metrics_scale_handling():
    hdr = make_hdr_scene(8, 32)
    p, s = hdr_pair_metrics(hdr, hdr)
    assert p == np.inf
    assert s == pytest.approx(1.0, abs=1e-9)
    off = Image(hdr.data * 1.1, LINEAR_HDR)
    p2, s2 = hdr_pair_metrics(off, hdr)
    assert np.isfinite(p2) and p2 > 20
    assert s2 < 1.0


# ---------------------------------------------------------------------------
# Tonemap
# ---------------------------------------------------------------------------

def test_tonemap_monotone_and_bounded():
    vals = np.logspace(-2, 2, 30).astype(np.float32)
    hdr = Image(np.repeat(vals, 3).reshape(5, 6, 3), LINEAR_HDR)
    codes = tonemap_preview(hdr)
    assert codes.dtype == np.uint8
    flat = codes[..., 0].ravel()
    assert (np.diff(flat.astype(int)) >= 0).all()
    assert flat[-1] <= 255


# ---------------------------------------------------------------------------
# Inference and benchmarking
# ---------------------------------------------------------------------------

def test_reconstruct_hdr_contract():
    net = kaiming_init(TINY, np.random.default_rng(9))
    sdr = sdr_image(10, 24, 20)
    hdr = reconstruct_hdr(net, sdr)
    assert hdr.domain == LINEAR_HDR
    assert hdr.data.shape == (24, 20, 3)
    assert (hdr.data >= 0).all()
    with pytest.raises(ValueError, match="nonlinear_sdr"):
        reconstruct_hdr(net, Image(sdr.data, LINEAR_HDR))


def test_bench_forward_contract():
    rep = bench_forward(TINY, 16, 24, repeats=3, seed=0)
    assert rep["resolution"] == "24x16"
    assert rep["repeats"] == 3
    assert rep["median_seconds"] > 0
    assert len(rep["all_seconds"]) == 3
    assert rep["median_seconds"] == pytest.approx(
        float(np.median(rep["all_seconds"])))
    assert rep["gmac_per_s"] == pytest.approx(
        count_macs(TINY, 16, 24) / rep["median_seconds"] / 1e9)
    assert rep["threads"] == blas_threads()
    assert rep["threads"] == "unknown" or rep["threads"] >= 1
    with pytest.raises(ValueError):
        bench_forward(TINY, 8, 8, repeats=2)


# ---------------------------------------------------------------------------
# Ablation harness plumbing
# ---------------------------------------------------------------------------

def test_evaluate_on_degraded_smoke():
    net = kaiming_init(TINY, np.random.default_rng(11))
    pairs = make_pairs(2, 32)
    p, s = evaluate_on_degraded(net, pairs, DegradationConfig(), seed=0)
    assert np.isfinite(p)
    assert -1.0 <= s <= 1.0


def test_evaluate_on_degraded_records_no_tape():
    # weights fresh from kaiming_init require grad; the evaluation peaks
    # about as low as over the same arrays without grad
    net = kaiming_init(ModelConfig(), np.random.default_rng(12))
    bare = Network(net.cfg, {k: Tensor(t.data) for k, t in net.weights.items()})
    pairs = make_pairs(2, 96)
    peaks, scores = [], []
    for n in (net, bare):
        tracemalloc.start()
        try:
            scores.append(evaluate_on_degraded(n, pairs, DegradationConfig(), seed=0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert scores[0] == scores[1]
    assert peaks[0] <= 1.2 * peaks[1], peaks


def test_inference_leaves_the_weights_trainable():
    net = kaiming_init(TINY, np.random.default_rng(13))
    sdr = sdr_image(14, 24, 20)
    hdr = reconstruct_hdr(net, sdr)
    evaluate_on_degraded(net, make_pairs(1, 32), DegradationConfig(), seed=0)
    assert all(t.requires_grad for t in net.weights.values())
    bare = Network(net.cfg, {k: Tensor(t.data) for k, t in net.weights.items()})
    assert reconstruct_hdr(bare, sdr).data.tobytes() == hdr.data.tobytes()
    x = Tensor(sdr.data.transpose(2, 0, 1)[None])
    total, _, _ = loss_terms(net.forward(x), Tensor(np.ones_like(x.data)))
    T.backward(total)
    for name, t in net.weights.items():
        assert t.grad is not None and t.grad.shape == t.shape, name


def test_ablation_config_names(monkeypatch):
    model_cfg, train_cfg = ModelConfig(groups=2), TrainConfig(max_iters=3)
    seen = []

    def record_training(cfg, tcfg, *args):
        seen.append((cfg, tcfg))
        return None, []

    monkeypatch.setattr(metrics, "train_loop", record_training)
    monkeypatch.setattr(metrics, "evaluate_on_degraded", lambda *a: (0.0, 0.0))
    rows = ablation_suite(model_cfg, train_cfg, None, None, None)
    assert [r["variant"] for r in rows] == list(metrics.ABLATIONS) == [
        "baseline", "no_conventional_degradation", "no_partial_conv", "no_group_conv"]
    assert seen == [
        (model_cfg, train_cfg),
        (model_cfg, replace(train_cfg, apply_degradation=False)),
        (replace(model_cfg, use_partial_conv=False), train_cfg),
        (replace(model_cfg, groups=1), train_cfg),
    ]
    seen.clear()
    with pytest.raises(ValueError, match="unknown ablation 'no_dense'"):
        ablation_suite(model_cfg, train_cfg, None, None, None, variants=("baseline", "no_dense"))
    assert seen == []


def test_ablation_suite_rejects_unknown_variant_before_training(monkeypatch):
    def no_training(*args, **kw):
        raise AssertionError("train_loop called before every variant was checked")

    monkeypatch.setattr(metrics, "train_loop", no_training)
    for variants in (("no_dense",), ("baseline", "no_dense")):
        with pytest.raises(ValueError, match="unknown ablation 'no_dense'"):
            ablation_suite(ModelConfig(), None, None, None, None, variants=variants)
