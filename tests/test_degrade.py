import dataclasses

import numpy as np
import pytest
import scipy.fft
import scipy.ndimage

from hdrlite.cli import _read_config
from hdrlite.degrade import (
    DEFAULT_CST, DegradationConfig, _Q_CHROMA, _Q_LUMA, _RGB_TO_YCC, _YCC_TO_RGB,
    _dct_roundtrip, _down2, _qf_table, _resize_bilinear, add_camera_noise,
    conventional_degrade, cst_apply, exposure_stats, jpeg_sim, srgb_decode, srgb_encode,
    virtual_shot,
)
from hdrlite.imgio import Image, LINEAR_HDR, NONLINEAR_SDR, float_to_code
from hdrlite.kvtext import dumps, loads
from tests.conftest import PINNED_WITH, make_hdr_scene, sdr_frame, sha256_hex


def psnr(a, b):
    mse = np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2)
    return np.inf if mse == 0 else 10 * np.log10(1.0 / mse)


def sdr_scene(seed, size=64):
    return virtual_shot(make_hdr_scene(seed, size), 0.5)


# ---------------------------------------------------------------------------
# Stage primitives
# ---------------------------------------------------------------------------

def test_srgb_transfer_values():
    assert srgb_encode(np.float64(0.25)) == pytest.approx(0.532521, abs=1e-6)
    assert srgb_decode(np.float64(0.532521)) == pytest.approx(0.25, abs=1e-6)
    assert srgb_encode(np.float64(0.0)) == 0.0
    assert srgb_encode(np.float64(1.0)) == 1.0
    assert srgb_encode(np.float64(2.0)) == 1.0  # clipped first


def test_srgb_roundtrip():
    x = np.linspace(0, 1, 64).reshape(4, 16)
    np.testing.assert_allclose(srgb_decode(srgb_encode(x)), x, atol=1e-12)


def test_cst_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.random((5, 7, 3))
    back = cst_apply(cst_apply(x, DEFAULT_CST), np.linalg.inv(DEFAULT_CST))
    np.testing.assert_allclose(back, x, atol=1e-5)


def planar(x):
    """x as an (h, w, 3) view of contiguous channel planes, the layout the
    conventional chain works in."""
    return np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)


COLOR_MATRICES = {"DEFAULT_CST": DEFAULT_CST,
                  "inverse DEFAULT_CST": np.linalg.inv(DEFAULT_CST),
                  "RGB_TO_YCC": _RGB_TO_YCC, "YCC_TO_RGB": _YCC_TO_RGB}


@pytest.mark.parametrize("name", sorted(COLOR_MATRICES))
def test_cst_matches_einsum_bit_for_bit(name):
    m = COLOR_MATRICES[name]
    rng = np.random.default_rng(sorted(COLOR_MATRICES).index(name))
    for shape in ((1, 1, 3), (37, 53, 3), (270, 480, 3)):
        x = rng.random(shape) * 255.0
        want = np.einsum("ij,hwj->hwi", m, x)
        assert np.array_equal(cst_apply(x, m), want), shape
        assert np.array_equal(cst_apply(planar(x), m), want), shape


def test_down2_matches_mean_over_cells():
    rng = np.random.default_rng(12)
    for h, w in ((16, 16), (32, 48), (272, 480)):  # jpeg_sim pads to multiples of 16
        x = rng.random((h, w, 3)) * 255.0
        for c in range(3):
            want = x[..., c].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
            assert np.array_equal(_down2(x[..., c]), want), (h, w)
            assert np.array_equal(_down2(np.ascontiguousarray(x[..., c])), want), (h, w)


def test_resize_matches_scipy_zoom_bit_for_bit():
    rng = np.random.default_rng(13)
    for case in range(240):
        sh, sw = (int(n) for n in rng.integers(8, 301, size=2))
        scale = rng.uniform(0.7, 1.0)
        if case % 2:
            scale = 1.0 / scale
        h, w = max(8, round(sh * scale)), max(8, round(sw * scale))
        if case % 10 == 0:
            h = sh  # one axis keeps its size
        if case % 30 == 0:
            h, w = sh, sw  # the same-size path
        img = rng.random((sh, sw, 3))
        want = np.clip(scipy.ndimage.zoom(img, (h / sh, w / sw, 1.0), order=1,
                                          grid_mode=True, mode="nearest"), 0.0, 1.0)
        got = _resize_bilinear(img if case % 3 else planar(img), h, w)
        assert got.shape == (h, w, 3)
        assert np.array_equal(got, want), (sh, sw, h, w)


def test_cst_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        cst_apply(np.zeros((2, 2, 3)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="3x3"):
        cst_apply(np.zeros((2, 2, 3)), np.eye(4))


def test_camera_noise_variance_law():
    rng = np.random.default_rng(1)
    sigma = 0.1
    x = np.full((400, 400, 3), 0.5)
    noisy = add_camera_noise(x, sigma, rng)
    want = sigma * sigma * (0.5 + 1.0)
    assert np.var(noisy - x) == pytest.approx(want, rel=0.02)
    assert noisy.min() >= 0.0 and noisy.max() <= 1.0


def test_camera_noise_zero_sigma_is_identity():
    x = np.random.default_rng(2).random((4, 4, 3))
    out = add_camera_noise(x, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, x)


# ---------------------------------------------------------------------------
# Virtual shot
# ---------------------------------------------------------------------------

def test_virtual_shot_saturation_counting():
    # 101-step linear ramp, 10x exposure, identity primaries: exactly the
    # samples >= 0.1 land on the top code
    vals = np.linspace(0.0, 1.0, 101)
    hdr = Image(np.repeat(vals, 3).reshape(101, 1, 3).astype(np.float32),
                LINEAR_HDR)
    shot = virtual_shot(hdr, 10.0, np.eye(3))
    codes = float_to_code(shot.data, 255)
    under, over = exposure_stats(codes)
    assert over == pytest.approx(91 / 101)
    assert under == pytest.approx(1 / 101)


def test_virtual_shot_quantization_grid():
    hdr = make_hdr_scene(3, 32)
    shot = virtual_shot(hdr, 0.5)
    assert shot.domain == NONLINEAR_SDR
    codes = shot.data * 255.0
    np.testing.assert_allclose(codes, np.rint(codes), atol=1e-4)


def test_virtual_shot_exposure_monotone():
    hdr = make_hdr_scene(4, 32)
    dark = virtual_shot(hdr, 0.1, np.eye(3))
    bright = virtual_shot(hdr, 1.0, np.eye(3))
    assert (bright.data >= dark.data - 1e-6).all()
    assert bright.data.mean() > dark.data.mean()


def test_virtual_shot_rejects_nonfinite():
    bad = Image(np.full((2, 2, 3), np.nan, dtype=np.float32), LINEAR_HDR)
    with pytest.raises(ValueError, match="finite"):
        virtual_shot(bad)


@pytest.mark.parametrize("exposure", [0.0, -1.0, np.nan])
def test_virtual_shot_needs_a_positive_exposure(exposure):
    with pytest.raises(ValueError, match="exposure_scale"):
        virtual_shot(make_hdr_scene(0, 8), exposure)


# ---------------------------------------------------------------------------
# Compression roundtrip
# ---------------------------------------------------------------------------

def test_jpeg_quality_ordering():
    sdr = sdr_scene(5)
    ref = sdr.data
    p100 = psnr(jpeg_sim(sdr, 100).data, ref)
    p75 = psnr(jpeg_sim(sdr, 75).data, ref)
    p10 = psnr(jpeg_sim(sdr, 10).data, ref)
    # chroma subsampling alone caps top quality near 44 dB on this scene
    assert p100 > 40.0
    assert p100 > p75 > p10


@pytest.mark.parametrize("qf", [5, 30, 50, 75, 95, 100])
@pytest.mark.parametrize("base", [_Q_LUMA, _Q_CHROMA], ids=["luma", "chroma"])
def test_dct_roundtrip_matches_scipy_dctn(qf, base):
    # the 64x64 GEMM against scipy's orthonormal DCT-II with the same
    # quantization, on level-shifted 0..255 planes
    table = _qf_table(base, qf)
    r = np.random.default_rng(qf)
    for h, w in ((8, 8), (16, 40), (272, 480)):
        plane = r.random((h, w)) * 255.0 - 128.0
        blocks = plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
        coeff = scipy.fft.dctn(blocks, axes=(2, 3), norm="ortho")
        coeff = np.rint(coeff / table) * table
        want = scipy.fft.idctn(coeff, axes=(2, 3), norm="ortho")
        want = want.transpose(0, 2, 1, 3).reshape(h, w)
        np.testing.assert_allclose(_dct_roundtrip(plane, table), want, rtol=0, atol=1e-9)


def test_jpeg_preserves_shape_on_nonmultiple_sizes():
    rng = np.random.default_rng(6)
    sdr = Image(rng.random((19, 21, 3)).astype(np.float32), NONLINEAR_SDR)
    out = jpeg_sim(sdr, 75)
    assert out.data.shape == (19, 21, 3)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_jpeg_rejects_linear_hdr_input():
    with pytest.raises(ValueError, match=f"jpeg_sim.*{LINEAR_HDR}"):
        jpeg_sim(make_hdr_scene(0, 16), 75)


def test_jpeg_rejects_bad_quality():
    sdr = sdr_scene(7, 16)
    for qf in (0, 101, -5):
        with pytest.raises(ValueError):
            jpeg_sim(sdr, qf)


# ---------------------------------------------------------------------------
# Conventional chain
# ---------------------------------------------------------------------------

def test_conventional_chain_is_deterministic():
    sdr = sdr_scene(8)
    cfg = DegradationConfig()
    out1, m1 = conventional_degrade(sdr, cfg, np.random.default_rng(3))
    out2, m2 = conventional_degrade(sdr, cfg, np.random.default_rng(3))
    np.testing.assert_array_equal(out1.data, out2.data)
    assert m1 == m2
    out3, _ = conventional_degrade(sdr, cfg, np.random.default_rng(4))
    assert np.abs(out3.data - out1.data).max() > 0


def test_conventional_chain_rejects_linear_hdr_input():
    # an HDR label would be clipped to [0, 1] and come back tagged as SDR
    with pytest.raises(ValueError, match=f"conventional_degrade.*{LINEAR_HDR}"):
        conventional_degrade(make_hdr_scene(0, 16), DegradationConfig(),
                             np.random.default_rng(0))


def test_conventional_chain_manifest_ranges():
    sdr = sdr_scene(9)
    cfg = DegradationConfig()
    for seed in range(5):
        _, m = conventional_degrade(sdr, cfg, np.random.default_rng(seed))
        assert 0.001 <= m["sigma"] <= 0.003
        assert 60 <= m["qf1"] <= 80
        assert m["qf2"] == 75
        assert 0.7 <= m["rescale"] <= 1.0


def test_conventional_chain_damage_bounds():
    sdr = sdr_scene(10)
    out, _ = conventional_degrade(sdr, DegradationConfig(),
                                  np.random.default_rng(0))
    assert out.data.shape == sdr.data.shape
    p = psnr(out.data, sdr.data)
    assert p < 50.0  # visibly degraded
    assert p > 20.0  # but still the same picture
    gentle = DegradationConfig(noise_sigma_range=(0.0, 0.0),
                               jpeg_qf1_range=(100, 100), jpeg_qf2=100,
                               rescale_range=(1.0, 1.0))
    near, _ = conventional_degrade(sdr, gentle, np.random.default_rng(0))
    assert psnr(near.data, sdr.data) > 40.0


# ---------------------------------------------------------------------------
# Pinned outputs
# ---------------------------------------------------------------------------

# SHA-256 of the float32 output bytes followed by the manifest text of
# conventional_degrade(sdr_frame(11, h, w), DegradationConfig(), default_rng(seed)).
CHAIN_DIGESTS = {
    (270, 480, 0): "1b1705eff56f8739a5a68e2c43660a535aa04b2e92ac74225b5dd8e8ca36a0ba",
    (270, 480, 1): "c087f94842c727afd0e14a2a51ebd127cf991b0bdca298f9a674b49473932746",
    (64, 64, 0): "2b84a562dc3acc5145a4e1a7c23f7739a877a806f78f6d9765dcbe39be9714e2",
    (64, 64, 1): "da7b74f67f0a33f0cda1b345f11c17cd38bb2df7ae1cd3a89790219777677907",
    (37, 53, 0): "11c8dc3757ea542da9803e43dbfd4ece0ea46825119ecae015a1eb4385e6306c",
    (37, 53, 1): "c78c2fdccda85c405e4a0f2436bf0800a309e2d1b97e6fa8e60520e9bbd39778",
}

# SHA-256 of the float32 output bytes of jpeg_sim(sdr_frame(12, 37, 53), qf):
# neither side is a multiple of 16, so the edge padding runs.
JPEG_DIGESTS = {
    10: "6df3dd456b585c0fceeb2753c85d8fea7ad58644eb143a3f9135e0027a997484",
    75: "f8c67910c78e17d0682c515e8cc3055f4cf5b29d84ec7606b546026caae965c1",
}


@pytest.mark.parametrize("h,w,seed", sorted(CHAIN_DIGESTS))
def test_conventional_chain_matches_pinned_digest(h, w, seed):
    out, manifest = conventional_degrade(sdr_frame(11, h, w), DegradationConfig(),
                                         np.random.default_rng(seed))
    got = sha256_hex(out.data.tobytes(), dumps(manifest).encode())
    assert got == CHAIN_DIGESTS[h, w, seed], (
        f"conventional_degrade output for {h}x{w}, seed {seed} changed "
        f"(digest pinned with {PINNED_WITH})")


@pytest.mark.parametrize("qf", sorted(JPEG_DIGESTS))
def test_jpeg_matches_pinned_digest(qf):
    got = sha256_hex(jpeg_sim(sdr_frame(12, 37, 53), qf).data.tobytes())
    assert got == JPEG_DIGESTS[qf], (
        f"jpeg_sim output at qf {qf} changed (digest pinned with {PINNED_WITH})")


# ---------------------------------------------------------------------------
# Exposure statistics
# ---------------------------------------------------------------------------

def test_exposure_stats_code_conventions():
    codes = np.zeros((10, 10, 3), dtype=np.int32)
    codes[:, :] = 100
    codes[0, 0] = [255, 10, 10]   # any channel at the top counts as over
    codes[0, 1] = [250, 0, 0]
    codes[1, 0] = [0, 0, 0]       # all channels at the floor counts as under
    codes[1, 1] = [0, 0, 5]
    under, over = exposure_stats(codes)
    assert over == pytest.approx(0.01)
    assert under == pytest.approx(0.01)
    under, over = exposure_stats(codes, over_code=248)
    assert over == pytest.approx(0.02)
    under, over = exposure_stats(codes, under_code=5)
    assert under == pytest.approx(0.02)
    with pytest.raises(ValueError):
        exposure_stats(codes[..., 0])


@pytest.mark.parametrize("top", [256, 65536])
def test_exposure_stats_matches_last_axis_max(top):
    # the channel-plane maximum gives the fractions of the old codes.max(axis=2)
    rng = np.random.default_rng(top)
    codes = rng.integers(0, top, (37, 53, 3))
    codes[rng.random(codes.shape[:2]) < 0.2] = 0
    codes[rng.random(codes.shape) < 0.1] = top - 1
    for over_code, under_code in ((255, 0), (top - 1, 0), (248, 7), (40000, 300)):
        p = codes.max(axis=2)
        want = (float((p <= under_code).sum() / p.size), float((p >= over_code).sum() / p.size))
        assert exposure_stats(codes, over_code=over_code, under_code=under_code) == want


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------

def test_config_kv_roundtrip():
    cfg = DegradationConfig(noise_sigma_range=(0.002, 0.004),
                            jpeg_qf1_range=(50, 90), jpeg_qf2=60,
                            rescale_range=(0.8, 0.9), cst_matrix=np.eye(3))
    back, _ = loads(DegradationConfig, dumps(cfg))
    assert back.noise_sigma_range == cfg.noise_sigma_range
    assert back.jpeg_qf1_range == cfg.jpeg_qf1_range
    assert back.jpeg_qf2 == cfg.jpeg_qf2
    assert back.rescale_range == cfg.rescale_range
    np.testing.assert_allclose(back.cst_matrix, cfg.cst_matrix, atol=1e-6)


def test_config_kv_comments_and_errors(tmp_path):
    def recipe(text):
        path = tmp_path / "recipe.txt"
        path.write_text(text)
        return _read_config(DegradationConfig, path, "recipe")

    cfg = recipe("# comment\n\njpeg_qf2=90\n")
    assert cfg.jpeg_qf2 == 90
    with pytest.raises(ValueError, match="unknown recipe keys.*bogus_key"):
        recipe("bogus_key=1\n")
    with pytest.raises(ValueError, match="malformed"):
        recipe("no equals sign\n")


def test_config_validation():
    with pytest.raises(ValueError):
        DegradationConfig(cst_matrix=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        DegradationConfig(cst_matrix=np.eye(4))


def test_config_keeps_a_read_only_copy_of_cst_matrix():
    a = np.eye(3, dtype=np.float32)
    cfg = DegradationConfig(cst_matrix=a)
    # a 3x3 array becomes a row-major tuple of nine Python floats
    assert cfg.cst_matrix == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    assert all(type(v) is float for v in cfg.cst_matrix)
    a[0, 0] = 2.0  # the caller's array stays writable and detached
    assert a.flags.writeable and cfg.cst_matrix[0] == 1.0
    assert DegradationConfig(cst_matrix=a.ravel()).cst_matrix[0] == 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.jpeg_qf2 = 10
    with pytest.raises(ValueError, match="jpeg_qf2"):
        dataclasses.replace(cfg, jpeg_qf2=0)


@pytest.mark.parametrize("field,value", [
    ("cst_matrix", np.ones((3, 3))),
    ("noise_sigma_range", (0.003, 0.001)),
    ("jpeg_qf1_range", (80, 60)),
    ("rescale_range", (1.0, 0.7)),
    ("noise_sigma_range", (-0.001, 0.002)),
    ("jpeg_qf1_range", (0, 50)),
    ("jpeg_qf1_range", (60, 101)),
    ("jpeg_qf2", 0),
    ("jpeg_qf2", 101),
    ("rescale_range", (0.0, 1.0)),
    # non-finite values, which the range and sign checks alone let through
    ("cst_matrix", np.where(np.eye(3) > 0, np.nan, 0.0)),
    ("cst_matrix", np.diag([1.0, np.inf, 1.0])),
    ("noise_sigma_range", (np.nan, np.nan)),
    ("noise_sigma_range", (0.001, np.inf)),
    ("rescale_range", (0.7, np.inf)),
    ("rescale_range", (np.nan, 1.0)),
    # ranges that are not a pair, named before any value is read
    ("rescale_range", (0.7,)),
    ("noise_sigma_range", (0.1, 0.2, 0.3)),
    ("jpeg_qf1_range", 5),
    ("rescale_range", 0.7),
])
def test_config_validation_names_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        DegradationConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("noise_sigma_range", ("a", "b")),
    ("noise_sigma_range", (False, True)),
    ("rescale_range", (True, True)),
    ("rescale_range", ("0.7", 1.0)),
    ("cst_matrix", ("1",) * 9),
    ("cst_matrix", (True,) + (1.0,) * 8),
    ("cst_matrix", np.eye(3, dtype=bool)),
])
def test_config_float_fields_reject_bools_and_strings_by_name(field, value):
    with pytest.raises(ValueError, match=f"{field} must hold real numbers"):
        DegradationConfig(**{field: value})


def test_config_float_fields_accept_numpy_scalars():
    cfg = DegradationConfig(noise_sigma_range=(np.float32(0.001), np.float64(0.002)),
                            rescale_range=(np.int64(1), 1),
                            cst_matrix=tuple(np.float32(v) for v in np.eye(3).ravel()))
    assert cfg.cst_matrix == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def test_config_validation_accepts_edge_recipes():
    DegradationConfig()
    DegradationConfig(noise_sigma_range=(0.0, 0.0),
                      jpeg_qf1_range=(100, 100), jpeg_qf2=100,
                      rescale_range=(1.0, 1.0))
    DegradationConfig(noise_sigma_range=(0.03, 0.05), jpeg_qf1_range=(1, 40),
                      jpeg_qf2=1, rescale_range=(0.7, 0.9))


# A valid value other than the default for every recipe key.
CHANGED_RECIPE_VALUES = {
    "noise_sigma_range": (0.02, 0.03),
    "jpeg_qf1_range": (20, 30),
    "jpeg_qf2": 40,
    "rescale_range": (0.5, 0.6),
    "cst_matrix": np.eye(3),
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DegradationConfig)])
def test_every_recipe_key_changes_the_degradation(name):
    # a recipe key that conventional_degrade does not read would be accepted
    # and silently ignored
    sdr = sdr_scene(6, 32)
    base, base_manifest = conventional_degrade(sdr, DegradationConfig(),
                                               np.random.default_rng(0))
    cfg = DegradationConfig(**{name: CHANGED_RECIPE_VALUES[name]})
    out, manifest = conventional_degrade(sdr, cfg, np.random.default_rng(0))
    assert manifest != base_manifest or not np.array_equal(out.data, base.data)


def test_manifest_serialization():
    text = dumps({"sigma": 0.002, "qf1": 70})
    assert "sigma=0.002" in text and "qf1=70" in text
