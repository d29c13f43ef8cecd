"""Camera-pipeline degradation simulator.

Two families of degradation produce legacy-style SDR from clean sources:
the virtual shot (exposure, color transform, clipping, response curve,
quantization) turns linear HDR into nonlinear SDR, and the conventional
chain injects sensor noise in the linearized RAW domain followed by a
double block-DCT compression roundtrip at the nonlinear end.
Every stochastic step draws only from an explicit Generator, so a fixed
seed reproduces outputs bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft
import scipy.ndimage

from .imgio import Image, LINEAR_HDR, NONLINEAR_SDR

# Generic wide-gamut -> sRGB style primary conversion (rows sum to ~1,
# well-conditioned, invertible); stands in for an unspecified camera matrix.
DEFAULT_CST = np.array([
    [1.6605, -0.5876, -0.0728],
    [-0.1246, 1.1329, -0.0083],
    [-0.0182, -0.1006, 1.1187],
], dtype=np.float64)


@dataclass
class DegradationConfig:
    exposure_scale: float = 1.0
    crf_gamma: float = 1.0 / 2.2
    clip_low: float = 0.0
    clip_high: float = 1.0
    quant_bits: int = 8
    noise_sigma_range: tuple = (0.001, 0.003)
    jpeg_qf1_range: tuple = (60, 80)
    jpeg_qf2: int = 75
    rescale_range: tuple = (0.7, 1.0)
    cst_matrix: np.ndarray = field(default_factory=lambda: DEFAULT_CST.copy())
    seed: int = 0

    def validate(self):
        if self.exposure_scale <= 0:
            raise ValueError("exposure_scale must be positive")
        if not self.clip_low < self.clip_high <= 1.0:
            raise ValueError("need clip_low < clip_high <= 1")
        m = np.asarray(self.cst_matrix, dtype=np.float64)
        if m.shape != (3, 3) or abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("cst_matrix must be an invertible 3x3 matrix")
        self.cst_matrix = m
        if self.quant_bits < 1:
            raise ValueError(f"quant_bits must be >= 1, got {self.quant_bits}")
        for name in ("noise_sigma_range", "jpeg_qf1_range", "rescale_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} must have lo <= hi, got ({lo}, {hi})")
        if self.noise_sigma_range[0] < 0:
            raise ValueError(f"noise_sigma_range must be >= 0, got {self.noise_sigma_range}")
        if not all(1 <= q <= 100 for q in self.jpeg_qf1_range):
            raise ValueError(f"jpeg_qf1_range must lie in [1, 100], got {self.jpeg_qf1_range}")
        if not 1 <= self.jpeg_qf2 <= 100:
            raise ValueError(f"jpeg_qf2 must lie in [1, 100], got {self.jpeg_qf2}")
        if self.rescale_range[0] <= 0:
            raise ValueError(f"rescale_range must be > 0, got {self.rescale_range}")

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])


# ---------------------------------------------------------------------------
# Stage primitives
# ---------------------------------------------------------------------------

def srgb_encode(linear: np.ndarray) -> np.ndarray:
    return np.clip(linear, 0.0, 1.0) ** (1.0 / 2.2)


def srgb_decode(nonlinear: np.ndarray) -> np.ndarray:
    return np.clip(nonlinear, 0.0, 1.0) ** 2.2


def cst_apply(img: np.ndarray, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"color matrix must be 3x3, got {m.shape}")
    if abs(np.linalg.det(m)) < 1e-12:
        raise ValueError("color matrix is singular")
    return np.einsum("ij,hwj->hwi", m, np.asarray(img, dtype=np.float64))


def add_camera_noise(linear: np.ndarray, sigma: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Signal-dependent Gaussian: var(x) = sigma^2 * x + sigma^2."""
    x = np.asarray(linear, dtype=np.float64)
    if sigma == 0.0:
        return x.copy()
    std = np.sqrt(sigma * sigma * np.clip(x, 0.0, None) + sigma * sigma)
    return np.clip(x + rng.standard_normal(x.shape) * std, 0.0, 1.0)


def virtual_shot(hdr: Image, cfg: DegradationConfig) -> Image:
    """Linear HDR -> quantized nonlinear SDR via a virtual camera."""
    cfg.validate()
    x = np.asarray(hdr.data, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("HDR input contains non-finite values")
    x = x * cfg.exposure_scale
    x = cst_apply(x, cfg.cst_matrix)
    x = np.clip(x, cfg.clip_low, cfg.clip_high)
    x = (x - cfg.clip_low) / (cfg.clip_high - cfg.clip_low)
    x = x ** cfg.crf_gamma
    levels = (1 << cfg.quant_bits) - 1
    x = np.floor(x * levels + 0.5) / levels
    return Image(x.astype(np.float32), NONLINEAR_SDR)


# ---------------------------------------------------------------------------
# Block-DCT compression roundtrip
# ---------------------------------------------------------------------------

# Standard 8x8 luminance / chrominance quantization tables.
_Q_LUMA = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)

_Q_CHROMA = np.array([
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
], dtype=np.float64)

_RGB_TO_YCC = np.array([
    [0.299, 0.587, 0.114],
    [-0.168736, -0.331264, 0.5],
    [0.5, -0.418688, -0.081312],
], dtype=np.float64)
_YCC_TO_RGB = np.linalg.inv(_RGB_TO_YCC)


def _qf_table(base: np.ndarray, qf: int) -> np.ndarray:
    if not 1 <= qf <= 100:
        raise ValueError(f"quality factor must lie in [1,100], got {qf}")
    s = 5000.0 / qf if qf < 50 else 200.0 - 2.0 * qf
    return np.clip(np.floor((base * s + 50.0) / 100.0), 1.0, 255.0)


def _dct_roundtrip(plane: np.ndarray, table: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    blocks = plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
    coeff = scipy.fft.dctn(blocks, axes=(2, 3), norm="ortho")
    coeff = np.rint(coeff / table) * table
    rec = scipy.fft.idctn(coeff, axes=(2, 3), norm="ortho")
    return rec.transpose(0, 2, 1, 3).reshape(h, w)


def _down2(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return plane.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def _up2(plane: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(plane, 2, axis=0), 2, axis=1)


def jpeg_sim(img: Image, qf: int) -> Image:
    """Block-DCT quantization roundtrip with 4:2:0 chroma, no entropy coding.

    Reproduces blocking and ringing artifacts without producing a bitstream.
    """
    x = np.asarray(img.data, dtype=np.float64) * 255.0
    h, w = x.shape[:2]
    ph, pw = (-h) % 16, (-w) % 16
    if ph or pw:
        x = np.pad(x, ((0, ph), (0, pw), (0, 0)), mode="edge")
    ycc = np.einsum("ij,hwj->hwi", _RGB_TO_YCC, x)
    y = _dct_roundtrip(ycc[..., 0] - 128.0, _qf_table(_Q_LUMA, qf)) + 128.0
    chroma = []
    ctab = _qf_table(_Q_CHROMA, qf)
    for c in (1, 2):
        sub = _down2(ycc[..., c])
        chroma.append(_up2(_dct_roundtrip(sub, ctab)))
    out = np.einsum("ij,hwj->hwi", _YCC_TO_RGB, np.stack([y] + chroma, axis=-1))
    out = np.clip(out[:h, :w] / 255.0, 0.0, 1.0)
    return Image(out.astype(np.float32), NONLINEAR_SDR)


def _resize_bilinear(img: np.ndarray, h: int, w: int) -> np.ndarray:
    sh, sw = img.shape[:2]
    if (sh, sw) == (h, w):
        return img.copy()
    out = scipy.ndimage.zoom(img, (h / sh, w / sw, 1.0), order=1, grid_mode=True,
                             mode="nearest")
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Full conventional chain
# ---------------------------------------------------------------------------

def conventional_degrade(sdr: Image, cfg: DegradationConfig,
                         rng: np.random.Generator):
    """Noise in the linear RAW domain, then double compression.

    Order: linearize -> to RAW primaries -> camera noise -> back to sRGB ->
    re-encode -> compress (qf1 ~ U range) -> rescale -> compress (fixed qf2)
    -> rescale back.  Returns (degraded image, manifest of sampled params).
    Quality 100 disables a compression stage entirely, so a recipe of
    sigma 0, qf 100/100, scale 1 passes images through nearly unchanged.
    """
    cfg.validate()
    lo, hi = cfg.noise_sigma_range
    sigma = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
    q1lo, q1hi = cfg.jpeg_qf1_range
    qf1 = int(rng.integers(q1lo, q1hi + 1)) if q1hi > q1lo else int(q1lo)
    rlo, rhi = cfg.rescale_range
    scale = float(rng.uniform(rlo, rhi)) if rhi > rlo else float(rlo)

    m = cfg.cst_matrix
    x = srgb_decode(np.asarray(sdr.data, dtype=np.float64))
    x = cst_apply(x, np.linalg.inv(m))
    x = np.clip(x, 0.0, 1.0)
    x = add_camera_noise(x, sigma, rng)
    x = np.clip(cst_apply(x, m), 0.0, 1.0)
    x = srgb_encode(x)
    out = Image(x.astype(np.float32), NONLINEAR_SDR)
    if qf1 < 100:
        out = jpeg_sim(out, qf1)
    h, w = out.height, out.width
    rh, rw = max(8, round(h * scale)), max(8, round(w * scale))
    rescaled = _resize_bilinear(np.asarray(out.data, dtype=np.float64), rh, rw)
    out = Image(rescaled.astype(np.float32), NONLINEAR_SDR)
    if cfg.jpeg_qf2 < 100:
        out = jpeg_sim(out, cfg.jpeg_qf2)
    restored = _resize_bilinear(np.asarray(out.data, dtype=np.float64), h, w)
    manifest = {"sigma": sigma, "qf1": qf1, "qf2": cfg.jpeg_qf2, "rescale": scale}
    return Image(restored.astype(np.float32), NONLINEAR_SDR), manifest


def exposure_stats(codes: np.ndarray, over_code: int = 255, under_code: int = 0):
    """(under_fraction, over_fraction) of an integer-coded SDR image.

    A pixel counts via its max channel: under-exposed when every channel is
    at or below under_code, over-exposed when any channel reaches over_code.
    """
    codes = np.asarray(codes)
    if codes.ndim != 3 or codes.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) coded image, got {codes.shape}")
    p = codes.max(axis=2)
    n = p.size
    return float((p <= under_code).sum() / n), float((p >= over_code).sum() / n)


# ---------------------------------------------------------------------------
# Plain-text recipes and manifests
# ---------------------------------------------------------------------------

def config_to_kv(cfg: DegradationConfig) -> str:
    cfg.validate()
    lines = [
        f"exposure_scale={cfg.exposure_scale}",
        f"crf_gamma={cfg.crf_gamma}",
        f"clip_low={cfg.clip_low}",
        f"clip_high={cfg.clip_high}",
        f"quant_bits={cfg.quant_bits}",
        f"noise_sigma_range={cfg.noise_sigma_range[0]},{cfg.noise_sigma_range[1]}",
        f"jpeg_qf1_range={cfg.jpeg_qf1_range[0]},{cfg.jpeg_qf1_range[1]}",
        f"jpeg_qf2={cfg.jpeg_qf2}",
        f"rescale_range={cfg.rescale_range[0]},{cfg.rescale_range[1]}",
        "cst_matrix=" + ",".join(f"{v:.6f}" for v in cfg.cst_matrix.reshape(-1)),
        f"seed={cfg.seed}",
    ]
    return "\n".join(lines) + "\n"


def config_from_kv(text: str) -> DegradationConfig:
    cfg = DegradationConfig()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed recipe line: {line!r}")
        k, v = (s.strip() for s in line.split("=", 1))
        if k in ("exposure_scale", "crf_gamma", "clip_low", "clip_high"):
            cfg = replace(cfg, **{k: float(v)})
        elif k in ("quant_bits", "jpeg_qf2", "seed"):
            cfg = replace(cfg, **{k: int(v)})
        elif k in ("noise_sigma_range", "rescale_range"):
            a, b = (float(s) for s in v.split(","))
            cfg = replace(cfg, **{k: (a, b)})
        elif k == "jpeg_qf1_range":
            a, b = (int(float(s)) for s in v.split(","))
            cfg = replace(cfg, jpeg_qf1_range=(a, b))
        elif k == "cst_matrix":
            vals = [float(s) for s in v.split(",")]
            if len(vals) != 9:
                raise ValueError("cst_matrix needs 9 comma-separated values")
            cfg = replace(cfg, cst_matrix=np.array(vals).reshape(3, 3))
        else:
            raise ValueError(f"unknown recipe key {k!r}")
    cfg.validate()
    return cfg


def manifest_to_kv(manifest: dict) -> str:
    return "\n".join(f"{k}={v}" for k, v in manifest.items()) + "\n"
