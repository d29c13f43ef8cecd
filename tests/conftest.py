import hashlib

import numpy as np
import pytest

from hdrlite.degrade import virtual_shot
from hdrlite.imgio import Image, LINEAR_HDR


def make_hdr_scene(seed: int, size: int = 64) -> Image:
    """Smooth gradient base plus a few bright Gaussian blobs (linear HDR)."""
    r = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    base = 0.2 + 0.6 * np.stack([yy, xx, 0.5 * (yy + xx)], axis=-1)
    for _ in range(3):
        cy, cx = r.random(2) * size
        amp = r.uniform(2.0, 6.0)
        blob = amp * np.exp(-(((yy * size - cy) ** 2 + (xx * size - cx) ** 2)
                              / (2 * (size / 8) ** 2)))
        base += blob[..., None] * r.random(3)
    return Image(base.astype(np.float32), LINEAR_HDR)


def sdr_frame(seed: int, h: int, w: int) -> Image:
    """A virtual shot (exposure 0.5) of a seeded scene, cropped to h x w."""
    hdr = make_hdr_scene(seed, max(h, w))
    return virtual_shot(Image(hdr.data[:h, :w], LINEAR_HDR), 0.5)


# The version the pinned output digests in the tests were recorded with. The
# degradation chain is float64 numpy arithmetic (its block DCT a BLAS GEMM),
# so another numpy or BLAS may round differently and change a digest without
# any change to hdrlite.
PINNED_WITH = "numpy 2.4.6"


def sha256_hex(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def make_pairs(count: int = 8, size: int = 64, exposure: float = 0.5):
    pairs = []
    for i in range(count):
        hdr = make_hdr_scene(i, size)
        pairs.append((hdr, virtual_shot(hdr, exposure)))
    return pairs


@pytest.fixture(scope="session")
def hdr_scene():
    return make_hdr_scene(42, 64)


@pytest.fixture(scope="session")
def train_pairs():
    return make_pairs(8, 64)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-gate verdict lines after the run."""
    import sys
    lines = []
    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            lines.extend(getattr(module, "CRITERION_LINES", []))
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(lines)):
            terminalreporter.write_line(line)
