"""Quality metrics, overhead reporting, preview tonemapping, ablation harness.

All PSNR/SSIM numbers are computed in one declared domain: images are
max-normalized and lifted to gamma 0.45 (the training objective's domain)
before comparison, and every report carries that tag.
"""
from __future__ import annotations

import ctypes
import resource
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .degrade import DegradationConfig, conventional_degrade
from .imgio import Image, LINEAR_HDR, NONLINEAR_SDR, float_to_code
from .model import ModelConfig, Network, count_macs, count_params
from .tensor import Tensor
from .training import GAMMA, TrainConfig, kaiming_init, postprocess_gamma, train_loop

METRIC_DOMAIN = "gamma045"


def psnr(a: Image, b: Image, peak: float = 1.0) -> float:
    if a.data.shape != b.data.shape:
        raise ValueError(f"psnr dims differ: {a.data.shape} vs {b.data.shape}")
    mse = float(np.mean((np.asarray(a.data, np.float64) - np.asarray(b.data, np.float64)) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def _ssim_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """1-D taps of the normalized Gaussian; the 2-D window is their outer
    product."""
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2 * sigma * sigma))
    return g / g.sum()


def ssim(a: Image, b: Image, peak: float = 1.0) -> float:
    """Single-scale SSIM, 11x11 Gaussian window sigma 1.5, channel-averaged.

    The Gaussian is separable (Wang et al. 2004) and mirror extension acts
    per axis, so two 1-D passes give the 2-D windowed means.
    """
    import scipy.ndimage  # here, so that importing hdrlite loads no scipy

    if a.data.shape != b.data.shape:
        raise ValueError("ssim dims differ")
    h, w = a.data.shape[:2]
    if h < 11 or w < 11:
        raise ValueError(f"image {w}x{h} smaller than the 11x11 SSIM window")
    g = _ssim_window()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2

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


def to_metric_domain(img: Image, max_y: float | None = None) -> Image:
    """Max-normalize (by max_y if given) and lift to the gamma domain."""
    data = np.clip(np.asarray(img.data, np.float64), 0.0, None)
    m = float(data.max()) if max_y is None else float(max_y)
    if m <= 0:
        raise ValueError("cannot normalize an all-zero image")
    return Image(np.clip(data / m, 0.0, 1.0).astype(np.float32) ** GAMMA)


def hdr_pair_metrics(pred: Image, ref: Image):
    """PSNR/SSIM of two linear HDR images in the declared gamma domain.

    Both are normalized by the reference maximum.
    """
    m = float(np.asarray(ref.data).max())
    p = to_metric_domain(pred, m)
    r = to_metric_domain(ref, m)
    return psnr(p, r), ssim(p, r)


def tonemap_preview(hdr: Image) -> np.ndarray:
    """Simple global preview operator: x/(1+x), gamma 1/2.2, 8-bit codes."""
    x = np.clip(np.asarray(hdr.data, np.float64), 0.0, None)
    y = (x / (1.0 + x)) ** (1.0 / 2.2)
    return float_to_code(y, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Inference and benchmarking
# ---------------------------------------------------------------------------

def reconstruct_hdr(net: Network, sdr: Image) -> Image:
    """SDR in [0,1] -> relative linear HDR via the two-step network."""
    if sdr.domain != NONLINEAR_SDR:
        raise ValueError(f"reconstruct_hdr reads {NONLINEAR_SDR} images, got {sdr.domain}")
    x = Tensor(sdr.data.transpose(2, 0, 1)[None].astype(np.float32))
    y = net.forward(x)
    linear = postprocess_gamma(y.data[0].transpose(1, 2, 0))
    return Image(linear.astype(np.float32), LINEAR_HDR)


def bench_forward(cfg: ModelConfig, h: int, w: int, repeats: int = 3,
                  seed: int = 0) -> dict:
    """Median CPU wall time of one forward pass, warm-up excluded."""
    if repeats < 3:
        raise ValueError("need at least 3 repeats")
    rng = np.random.default_rng(seed)
    net = kaiming_init(cfg, rng)
    for t in net.weights.values():
        t.requires_grad = False  # time the inference forward: no graph kept
    x = Tensor(rng.random((1, 3, h, w)).astype(np.float32))
    net.forward(x)  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        net.forward(x)
        times.append(time.perf_counter() - t0)
    median = float(np.median(times))
    return {
        "resolution": f"{w}x{h}",
        "repeats": repeats,
        "median_seconds": median,
        "all_seconds": times,
        "gmac_per_s": count_macs(cfg, h, w) / median / 1e9,
        "threads": blas_threads(),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (ru_maxrss, which
    Linux reports in KiB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def blas_threads() -> int | str:
    """Thread count of numpy's bundled OpenBLAS, read from the library
    itself; "unknown" when that library is not present."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas64_*.so")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return "unknown"


# ---------------------------------------------------------------------------
# Ablation harness
# ---------------------------------------------------------------------------

def evaluate_on_degraded(net: Network, pairs, degrade_cfg: DegradationConfig,
                         seed: int):
    """Mean PSNR/SSIM of reconstructions from degraded SDR inputs."""
    rng = np.random.default_rng([seed, 977])
    ps, ss = [], []
    for hdr, sdr in pairs:
        degraded, _ = conventional_degrade(sdr, degrade_cfg, rng)
        pred = reconstruct_hdr(net, degraded)
        # compare in the gamma domain with each image normalized by its own max
        pred_gamma = to_metric_domain(pred, float(np.asarray(pred.data).max()) or 1.0)
        ref_gamma = to_metric_domain(hdr)
        ps.append(psnr(pred_gamma, ref_gamma))
        ss.append(ssim(pred_gamma, ref_gamma))
    return float(np.mean(ps)), float(np.mean(ss))


# Each ablation variant as (ModelConfig changes, TrainConfig changes).
ABLATIONS = {
    "baseline": ({}, {}),
    "no_conventional_degradation": ({}, {"apply_degradation": False}),
    "no_partial_conv": ({"use_partial_conv": False}, {}),  # SFT blocks in the encoder
    "no_group_conv": ({"groups": 1}, {}),
}


def ablation_suite(model_cfg: ModelConfig, train_cfg: TrainConfig,
                   dataset, test_pairs, degrade_cfg: DegradationConfig,
                   variants=tuple(ABLATIONS)) -> list[dict]:
    """Train each ABLATIONS variant under an identical budget and compare.

    Returns one row per variant with params, MACs (at the training patch
    size) and PSNR/SSIM on degraded test inputs.
    """
    for name in variants:  # an unknown name fails before any training
        if name not in ABLATIONS:
            raise ValueError(f"unknown ablation {name!r}")
    rows = []
    for name in variants:
        model_changes, train_changes = ABLATIONS[name]
        cfg = replace(model_cfg, **model_changes)
        tcfg = replace(train_cfg, **train_changes)
        net, _ = train_loop(cfg, tcfg, dataset, degrade_cfg)
        p, s = evaluate_on_degraded(net, test_pairs, degrade_cfg, train_cfg.seed)
        rows.append({
            "variant": name,
            "params": count_params(cfg),
            "macs": count_macs(cfg, train_cfg.patch_size, train_cfg.patch_size),
            "psnr": p,
            "ssim": s,
        })
    return rows

