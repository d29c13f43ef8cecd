import numpy as np
import pytest

from hdrlite.degrade import (
    DEFAULT_CST, DegradationConfig, add_camera_noise, config_from_kv,
    config_to_kv, conventional_degrade, cst_apply, exposure_stats, jpeg_sim,
    manifest_to_kv, srgb_decode, srgb_encode, virtual_shot,
)
from hdrlite.imgio import Image, LINEAR_HDR, NONLINEAR_SDR, float_to_code
from tests.conftest import make_hdr_scene


def psnr(a, b):
    mse = np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2)
    return np.inf if mse == 0 else 10 * np.log10(1.0 / mse)


def sdr_scene(seed, size=64):
    return virtual_shot(make_hdr_scene(seed, size),
                        DegradationConfig(exposure_scale=0.5))


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
    cfg = DegradationConfig(exposure_scale=10.0, cst_matrix=np.eye(3))
    shot = virtual_shot(hdr, cfg)
    codes = float_to_code(shot.data, 255)
    under, over = exposure_stats(codes)
    assert over == pytest.approx(91 / 101)
    assert under == pytest.approx(1 / 101)


def test_virtual_shot_quantization_grid():
    hdr = make_hdr_scene(3, 32)
    shot = virtual_shot(hdr, DegradationConfig(exposure_scale=0.5))
    assert shot.domain == NONLINEAR_SDR
    codes = shot.data * 255.0
    np.testing.assert_allclose(codes, np.rint(codes), atol=1e-4)


def test_virtual_shot_exposure_monotone():
    hdr = make_hdr_scene(4, 32)
    dark = virtual_shot(hdr, DegradationConfig(exposure_scale=0.1,
                                               cst_matrix=np.eye(3)))
    bright = virtual_shot(hdr, DegradationConfig(exposure_scale=1.0,
                                                 cst_matrix=np.eye(3)))
    assert (bright.data >= dark.data - 1e-6).all()
    assert bright.data.mean() > dark.data.mean()


def test_virtual_shot_rejects_nonfinite():
    bad = Image(np.full((2, 2, 3), np.nan, dtype=np.float32), LINEAR_HDR)
    with pytest.raises(ValueError, match="finite"):
        virtual_shot(bad, DegradationConfig())


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


def test_jpeg_preserves_shape_on_nonmultiple_sizes():
    rng = np.random.default_rng(6)
    sdr = Image(rng.random((19, 21, 3)).astype(np.float32), NONLINEAR_SDR)
    out = jpeg_sim(sdr, 75)
    assert out.data.shape == (19, 21, 3)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


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


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------

def test_config_kv_roundtrip():
    cfg = DegradationConfig(exposure_scale=0.25, quant_bits=10,
                            noise_sigma_range=(0.002, 0.004),
                            jpeg_qf1_range=(50, 90), jpeg_qf2=60,
                            rescale_range=(0.8, 0.9), seed=7)
    back = config_from_kv(config_to_kv(cfg))
    assert back.exposure_scale == cfg.exposure_scale
    assert back.quant_bits == cfg.quant_bits
    assert back.noise_sigma_range == cfg.noise_sigma_range
    assert back.jpeg_qf1_range == cfg.jpeg_qf1_range
    assert back.jpeg_qf2 == cfg.jpeg_qf2
    assert back.rescale_range == cfg.rescale_range
    assert back.seed == cfg.seed
    np.testing.assert_allclose(back.cst_matrix, cfg.cst_matrix, atol=1e-6)


def test_config_kv_comments_and_errors():
    cfg = config_from_kv("# comment\n\nexposure_scale=2.0\n")
    assert cfg.exposure_scale == 2.0
    with pytest.raises(ValueError, match="unknown"):
        config_from_kv("bogus_key=1\n")
    with pytest.raises(ValueError, match="malformed"):
        config_from_kv("no equals sign\n")


def test_config_validation():
    with pytest.raises(ValueError):
        DegradationConfig(exposure_scale=0.0).validate()
    with pytest.raises(ValueError):
        DegradationConfig(clip_low=0.5, clip_high=0.4).validate()
    with pytest.raises(ValueError):
        DegradationConfig(cst_matrix=np.zeros((3, 3))).validate()


@pytest.mark.parametrize("field,value", [
    ("quant_bits", 0),
    ("noise_sigma_range", (0.003, 0.001)),
    ("jpeg_qf1_range", (80, 60)),
    ("rescale_range", (1.0, 0.7)),
    ("noise_sigma_range", (-0.001, 0.002)),
    ("jpeg_qf1_range", (0, 50)),
    ("jpeg_qf1_range", (60, 101)),
    ("jpeg_qf2", 0),
    ("jpeg_qf2", 101),
    ("rescale_range", (0.0, 1.0)),
])
def test_config_validation_names_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        DegradationConfig(**{field: value}).validate()


def test_config_validation_accepts_edge_recipes():
    DegradationConfig().validate()
    DegradationConfig(quant_bits=1, noise_sigma_range=(0.0, 0.0),
                      jpeg_qf1_range=(100, 100), jpeg_qf2=100,
                      rescale_range=(1.0, 1.0)).validate()
    DegradationConfig(noise_sigma_range=(0.03, 0.05), jpeg_qf1_range=(1, 40),
                      jpeg_qf2=1, rescale_range=(0.7, 0.9)).validate()


def test_manifest_serialization():
    text = manifest_to_kv({"sigma": 0.002, "qf1": 70})
    assert "sigma=0.002" in text and "qf1=70" in text
