"""Seeded inputs for the benchmark, written as plain files.

Scenes are made with numpy alone, so the inputs stay the same whatever the
program under test does; only the checkpoint is written through hdrlite's
public `kaiming_init` and `save_checkpoint`.

A scene is a linear HDR label and its 8-bit SDR frame.  It mixes
  * a smooth tinted gradient (slowly varying RGBE mantissas),
  * a textured half (noise: RGBE literals),
  * flat rectangles and flat bright discs (long RGBE runs); the discs exceed
    1.0 in every channel, so they clip to code 255 in the SDR frame and make
    up about 5% of the pixels.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

SCENE_SALT = 0x5C3E
CHECKPOINT_SEED = 20221121
OVEREXPOSED_TARGET = 0.05


def scene(scene_id: int, h: int, w: int) -> np.ndarray:
    """Linear HDR label, (h, w, 3) float32, for one scene id."""
    rng = np.random.default_rng([SCENE_SALT, scene_id, h, w])
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    yy /= h
    xx /= w
    field = np.zeros((h, w))
    for _ in range(3):
        fy, fx = rng.uniform(0.5, 3.0, 2)
        py, px = rng.uniform(0, 2 * np.pi, 2)
        field += np.cos(2 * np.pi * fy * yy + py) * np.cos(2 * np.pi * fx * xx + px)
    field = 0.3 + 0.08 * field
    tint = rng.uniform(0.7, 1.0, 3)
    img = field[..., None] * tint

    # textured half: multiplicative noise gives mostly RGBE literals
    tex = 1.0 + 0.35 * rng.standard_normal((h, w, 1))
    if rng.random() < 0.5:
        img[:, : w // 2] *= tex[:, : w // 2]
    else:
        img[h // 2:] *= tex[h // 2:]

    # flat rectangles below the clipping point
    for _ in range(3):
        rh, rw = int(rng.integers(h // 8, h // 3)), int(rng.integers(w // 8, w // 3))
        y0, x0 = int(rng.integers(0, h - rh)), int(rng.integers(0, w - rw))
        img[y0:y0 + rh, x0:x0 + rw] = rng.uniform(0.05, 0.6, 3)

    # flat light sources above 1.0 in every channel: the over-exposed share
    n_disc = int(rng.integers(3, 7))
    area = rng.dirichlet(np.ones(n_disc)) * OVEREXPOSED_TARGET * h * w
    for a in area:
        r = np.sqrt(a / np.pi)
        cy, cx = rng.uniform(r, h - r), rng.uniform(r, w - r)
        level = rng.uniform(4.0, 30.0)
        color = level * np.array([1.0, rng.uniform(0.8, 1.0), rng.uniform(0.6, 1.0)])
        disc = (yy * h - cy) ** 2 + (xx * w - cx) ** 2 <= r * r
        img[disc] = color
    return np.clip(img, 0.0, None).astype(np.float32)


def sdr_codes(label: np.ndarray) -> np.ndarray:
    """Clip, gamma 1/2.2 and round to 8-bit codes: the SDR frame of a label."""
    x = np.clip(label.astype(np.float64), 0.0, 1.0) ** (1.0 / 2.2)
    return np.floor(x * 255.0 + 0.5).astype(np.uint8)


def overexposed_share(codes: np.ndarray) -> float:
    """Share of pixels with any channel at code 255."""
    return float((codes.max(axis=2) == 255).mean())


# ---------------------------------------------------------------------------
# Plain PFM / PPM files
# ---------------------------------------------------------------------------

def write_pfm(path, arr: np.ndarray):
    h, w, _ = arr.shape
    Path(path).write_bytes(f"PF\n{w} {h}\n-1.0\n".encode("ascii")
                           + np.ascontiguousarray(arr[::-1], "<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    head = data.split(b"\n", 3)
    if len(head) != 4 or head[0] != b"PF":
        raise ValueError(f"{path}: not a colour PFM")
    w, h = (int(t) for t in head[1].split())
    scale = float(head[2])
    arr = np.frombuffer(head[3], "<f4" if scale < 0 else ">f4", w * h * 3).reshape(h, w, 3)
    return arr[::-1].astype(np.float32) * abs(scale)


def write_ppm(path, codes: np.ndarray):
    h, w, _ = codes.shape
    Path(path).write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + codes.tobytes())


def read_ppm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    head = data.split(b"\n", 3)
    if len(head) != 4 or head[0] != b"P6" or head[2] != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 PPM")
    w, h = (int(t) for t in head[1].split())
    return np.frombuffer(head[3], np.uint8, w * h * 3).reshape(h, w, 3)


def write_scene(directory, scene_id: int, h: int, w: int, sdr_subdir: bool = False):
    """Write <id>.pfm (label) and the SDR frame <id>.ppm; return the frame's
    over-exposed share.  With sdr_subdir the frame goes alone into
    sdr/<id>/, the layout `hdrlite degrade --in` takes."""
    directory = Path(directory)
    label = scene(scene_id, h, w)
    codes = sdr_codes(label)
    write_pfm(directory / f"{scene_id}.pfm", label)
    sdr_dir = directory / "sdr" / str(scene_id) if sdr_subdir else directory
    sdr_dir.mkdir(parents=True, exist_ok=True)
    write_ppm(sdr_dir / f"{scene_id}.ppm", codes)
    return overexposed_share(codes)


def write_checkpoint(path):
    """Seeded Kaiming init of the default model, saved with save_checkpoint."""
    from hdrlite import model as mod
    from hdrlite import training as TR
    net = TR.kaiming_init(mod.ModelConfig(), np.random.default_rng(CHECKPOINT_SEED))
    mod.save_checkpoint(path, net)
