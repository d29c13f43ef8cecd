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


_SSIM_TAPS = _ssim_window()
_SSIM_RADIUS = len(_SSIM_TAPS) // 2
_SSIM_BLOCK = 32  # output samples per banded GEMM


def _ssim_band(n: int, lo: int, hi: int):
    """(i0, m): x[i0:i0 + len(m)] @ m correlates x, an axis of n samples,
    with the SSIM taps at outputs lo..hi, under mirror extension
    (x[-k] = x[k], x[n - 1 + k] = x[n - 1 - k]); taps that reach past an end
    are folded onto the samples they mirror."""
    r = _SSIM_RADIUS
    i0, i1 = max(lo - r, 0), min(hi + r, n)
    m = np.zeros((i1 - i0, hi - lo))
    j = np.arange(hi - lo)
    for t, tap in enumerate(_SSIM_TAPS):
        src = np.abs(lo + j + t - r)
        src = np.where(src > n - 1, 2 * (n - 1) - src, src)
        np.add.at(m, (src - i0, j), tap)
    return i0, m


# the Toeplitz band of a whole block that reaches past neither end:
# band[i, j] = taps[i - j]; a shorter interior block uses its top-left corner
_SSIM_BAND = _ssim_band(_SSIM_BLOCK + 2 * _SSIM_RADIUS, _SSIM_RADIUS,
                        _SSIM_RADIUS + _SSIM_BLOCK)[1]


def _ssim_blocks(n: int):
    """[(lo, hi, i0, m)]: the _ssim_band of each block of _SSIM_BLOCK outputs
    along an axis of n samples; only blocks at the ends build their own."""
    r = _SSIM_RADIUS
    out = []
    for lo in range(0, n, _SSIM_BLOCK):
        hi = min(lo + _SSIM_BLOCK, n)
        if lo >= r and hi + r <= n:
            out.append((lo, hi, lo - r, _SSIM_BAND[:hi - lo + 2 * r, :hi - lo]))
        else:
            out.append((lo, hi, *_ssim_band(n, lo, hi)))
    return out


def ssim(a: Image, b: Image, peak: float = 1.0) -> float:
    """Single-scale SSIM, 11x11 Gaussian window sigma 1.5, mirror edges,
    channel-averaged.

    The Gaussian is separable (Wang et al. 2004) and mirror extension acts
    per axis, so two 1-D passes give the 2-D windowed means. Each pass runs
    over one (5, h, w) stack of x, y, x^2, y^2 and xy as banded GEMMs, one
    per block of _SSIM_BLOCK outputs.
    """
    if a.data.shape != b.data.shape:
        raise ValueError("ssim dims differ")
    h, w = a.data.shape[:2]
    if h < 11 or w < 11:
        raise ValueError(f"image {w}x{h} smaller than the 11x11 SSIM window")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    along_w, along_h = _ssim_blocks(w), _ssim_blocks(h)
    stack, rows = np.empty((5, h, w)), np.empty((5, h, w))
    flat, rows_flat = stack.reshape(5 * h, w), rows.reshape(5 * h, w)
    vals = []
    for c in range(3):
        x, y, xx, yy, xy = stack
        x[...] = a.data[..., c]
        y[...] = b.data[..., c]
        np.multiply(x, x, out=xx)
        np.multiply(y, y, out=yy)
        np.multiply(x, y, out=xy)
        for lo, hi, i0, m in along_w:
            np.matmul(flat[:, i0:i0 + len(m)], m, out=rows_flat[:, lo:hi])
        for lo, hi, i0, m in along_h:
            np.matmul(m.T, rows[:, i0:i0 + len(m)], out=stack[:, lo:hi])
        # the windowed means are in stack; rows is free for the products
        mx, my, vxx, vyy, vxy = stack
        mxx, myy, mxy = rows[:3]
        np.multiply(mx, mx, out=mxx)
        np.multiply(my, my, out=myy)
        np.multiply(mx, my, out=mxy)
        vxx -= mxx
        vyy -= myy
        vxy -= mxy
        # num = (2 mx my + c1)(2 vxy + c2), den = (mx^2 + my^2 + c1)(vxx + vyy + c2)
        mxy *= 2.0
        mxy += c1
        vxy *= 2.0
        vxy += c2
        vxy *= mxy
        mxx += myy
        mxx += c1
        vxx += vyy
        vxx += c2
        vxx *= mxx
        vxy /= vxx
        vals.append(np.mean(vxy))
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

def _without_grad(net: Network) -> Network:
    """net over grad-free views of its weight arrays (no copy): a forward
    through it records no tape, whatever flags net's own weights carry, and
    those flags are left as they are."""
    return Network(net.cfg, {k: Tensor(t.data) for k, t in net.weights.items()})


def reconstruct_hdr(net: Network, sdr: Image) -> Image:
    """SDR in [0,1] -> relative linear HDR via the two-step network, run
    with no tape (_without_grad)."""
    if sdr.domain != NONLINEAR_SDR:
        raise ValueError(f"reconstruct_hdr reads {NONLINEAR_SDR} images, got {sdr.domain}")
    x = Tensor(sdr.data.transpose(2, 0, 1)[None])
    y = _without_grad(net).forward(x)
    linear = postprocess_gamma(y.data[0].transpose(1, 2, 0))
    return Image(linear.astype(np.float32), LINEAR_HDR)


def bench_forward(cfg: ModelConfig, h: int, w: int, repeats: int = 3,
                  seed: int = 0) -> dict:
    """Median CPU wall time of one forward pass, warm-up excluded."""
    if repeats < 3:
        raise ValueError("need at least 3 repeats")
    rng = np.random.default_rng(seed)
    net = _without_grad(kaiming_init(cfg, rng))  # time the forward alone: no tape
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

