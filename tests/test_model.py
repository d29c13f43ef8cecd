from dataclasses import replace

import numpy as np
import pytest

from hdrlite import tensor as T
from hdrlite.kvtext import loads
from hdrlite.model import (
    ModelConfig, Network, ablation_config, bright_invalid_mask, bright_valid_mask,
    channel_modulation, count_macs, count_params, layer_breakdown, layer_table,
    load_checkpoint, prior_scalar, save_checkpoint, sft_modulation,
)
from hdrlite.tensor import Tensor
from hdrlite.training import kaiming_init

# Defaults are pinned: any change to the architecture must update these.
PINNED_DEFAULT_PARAMS = 234_082
PINNED_DEFAULT_MACS_1080P = 164_805_580_800


def small_cfg(**kw):
    base = dict(dense_growth=4, unet_base_channels=8, global_mlp_channels=8)
    base.update(kw)
    return ModelConfig(**base)


def make_net(cfg, seed=0):
    return kaiming_init(cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------

def test_bright_valid_mask_values():
    assert bright_valid_mask(0.5) == pytest.approx(0.0)
    assert bright_valid_mask(1.0) == pytest.approx(1.0)
    assert bright_valid_mask(0.95) == pytest.approx(0.5)


def test_bright_invalid_mask_values():
    assert bright_invalid_mask(0.5) == pytest.approx(1.0)
    assert bright_invalid_mask(1.0) == pytest.approx(0.0)
    assert bright_invalid_mask(0.95) == pytest.approx(0.5)


def test_mask_partition_and_monotonicity():
    p = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    v = bright_valid_mask(p)
    i = bright_invalid_mask(p)
    above = p >= 0.9
    np.testing.assert_allclose((v + i)[above], 1.0, atol=1e-12)
    below = p <= 0.9
    np.testing.assert_allclose(v[below & (p < 0.9)], 0.0)
    np.testing.assert_allclose(i[below], 1.0)
    assert (np.diff(v) >= -1e-12).all()
    assert (np.diff(i) <= 1e-12).all()


def test_prior_scalar_is_channel_max():
    x = np.zeros((1, 3, 1, 2), dtype=np.float32)
    x[0, :, 0, 0] = [0.1, 0.95, 0.3]
    x[0, :, 0, 1] = [2.0, -1.0, 0.5]  # clamped to [0,1] first
    p = prior_scalar(x)
    assert p[0, 0, 0, 0] == pytest.approx(0.95)
    assert p[0, 0, 0, 1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Modulation
# ---------------------------------------------------------------------------

def test_channel_modulation():
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((2, 3, 4, 4)).astype(np.float32))
    ones = Tensor(np.ones((2, 3, 1, 1), dtype=np.float32))
    zeros = Tensor(np.zeros((2, 3, 1, 1), dtype=np.float32))
    np.testing.assert_array_equal(channel_modulation(x, ones, zeros).data, x.data)
    fives = Tensor(np.full((2, 3, 1, 1), 5.0, dtype=np.float32))
    np.testing.assert_array_equal(channel_modulation(x, zeros, fives).data, 5.0)
    # channel mean maps linearly: alpha 2, beta 1 -> 2m + 1
    twos = Tensor(np.full((2, 3, 1, 1), 2.0, dtype=np.float32))
    out = channel_modulation(x, twos, ones)
    np.testing.assert_allclose(out.data.mean(axis=(2, 3)),
                               2 * x.data.mean(axis=(2, 3)) + 1, rtol=1e-6)
    with pytest.raises(ValueError):
        channel_modulation(x, Tensor(np.ones((2, 4, 1, 1), dtype=np.float32)), zeros)


def test_sft_modulation():
    x = Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
    a = Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float32))
    b = Tensor(np.full((1, 1, 1, 1), -1.0, dtype=np.float32))
    assert sft_modulation(x, a, b).data[0, 0, 0, 0] == pytest.approx(5.0)
    z = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
    np.testing.assert_array_equal(sft_modulation(z, a, b).data, b.data)
    with pytest.raises(ValueError):
        sft_modulation(x, Tensor(np.ones((1, 1, 2, 2), dtype=np.float32)), b)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def test_single_conv_param_arithmetic():
    from hdrlite.tensor import ConvSpec
    plain = ConvSpec(8, 8, 3)
    assert plain.weight_count + plain.bias_count == 8 * 8 * 9 + 8 == 584
    grouped = ConvSpec(8, 8, 3, groups=4)
    assert grouped.weight_count + grouped.bias_count == 8 * 2 * 9 + 8 == 152


def test_default_params_pinned():
    assert count_params(ModelConfig()) == PINNED_DEFAULT_PARAMS
    assert 200_000 <= PINNED_DEFAULT_PARAMS <= 250_000


def test_default_macs_pinned():
    assert count_macs(ModelConfig(), 1080, 1920) == PINNED_DEFAULT_MACS_1080P
    assert 130e9 <= PINNED_DEFAULT_MACS_1080P <= 190e9


def test_pointwise_mac_arithmetic():
    # one 1x1 conv 3->32 at 1920x1080
    cfg = ModelConfig()
    rows = dict((n, m) for n, _, m in layer_breakdown(cfg, 1080, 1920))
    assert rows["global.mod0"] == 1920 * 1080 * cfg.global_mlp_channels * 3


def test_macs_scale_quadratically():
    cfg = ModelConfig()
    assert count_macs(cfg, 2 * 64, 2 * 64) == 4 * count_macs(cfg, 64, 64)


def test_breakdown_sums_match_totals():
    cfg = small_cfg()
    rows = layer_breakdown(cfg, 48, 48)
    assert sum(r[1] for r in rows) == count_params(cfg)
    assert sum(r[2] for r in rows) == count_macs(cfg, 48, 48)


def test_count_macs_matches_executed_convs(monkeypatch):
    # 270 is not a multiple of 4: the local net runs on 272 padded rows and
    # the global net on the 270 cropped ones; count_macs must count both
    cfg = ModelConfig()
    net = Network.zeros(cfg)
    conv = T.conv2d
    executed = []

    def counting_conv(x, weight, *args, **kw):
        out = conv(x, weight, *args, **kw)
        n, oc, oh, ow = out.shape
        _, icg, k, _ = weight.shape
        executed.append(n * oc * oh * ow * icg * k * k)
        return out

    monkeypatch.setattr(T, "conv2d", counting_conv)
    net.forward(Tensor(np.zeros((1, 3, 270, 480), dtype=np.float32)))
    assert len(executed) == len(layer_table(cfg)) == 33
    assert sum(executed) == count_macs(cfg, 270, 480) == 10_367_385_600


def test_ablation_param_directions():
    base = count_params(ModelConfig())
    assert count_params(ablation_config(ModelConfig(), "no_group_conv")) > base
    assert count_params(ablation_config(ModelConfig(), "no_partial_conv")) != base


def test_ablation_config_names():
    cfg = ModelConfig(groups=2)
    assert ablation_config(cfg, "baseline") == cfg
    assert ablation_config(cfg, "no_group_conv") == replace(cfg, groups=1)
    assert ablation_config(cfg, "no_partial_conv") == replace(cfg, use_partial_conv=False)
    with pytest.raises(ValueError, match="unknown ablation 'no_dense'"):
        ablation_config(cfg, "no_dense")


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def test_global_net_shape_and_nonnegative():
    cfg = small_cfg()
    net = make_net(cfg)
    rng = np.random.default_rng(1)
    x = Tensor(rng.random((1, 3, 9, 13)).astype(np.float32))
    y = net.global_forward(x, x)
    assert y.shape == x.shape
    assert (y.data >= 0).all()


def test_global_net_constant_input_gives_constant_output():
    cfg = small_cfg()
    net = make_net(cfg, seed=2)
    x = Tensor(np.full((1, 3, 6, 6), 0.4, dtype=np.float32))
    y = net.global_forward(x, x)
    for c in range(3):
        assert np.ptp(y.data[0, c]) == pytest.approx(0.0, abs=1e-6)


def test_local_net_shape_contract_odd_sizes():
    cfg = small_cfg()
    net = make_net(cfg)
    rng = np.random.default_rng(3)
    for h, w in [(16, 16), (13, 17), (7, 9)]:
        x = Tensor(rng.random((1, 3, h, w)).astype(np.float32))
        y = net.local_forward(x, x)
        assert y.shape == (1, 3, h, w)


def test_local_net_unsaturated_input_equals_plain_conv_path():
    # max p < t: the invalid mask is all ones, so partial conv degenerates
    cfg = small_cfg()
    net = make_net(cfg, seed=4)
    rng = np.random.default_rng(5)
    x_data = (rng.random((1, 3, 16, 16)) * 0.8).astype(np.float32)
    y_masked = net.local_forward(Tensor(x_data), Tensor(x_data))
    cfg_plain = ablation_config(cfg, "no_partial_conv")
    # compare against explicitly forcing the mask to ones on the same weights:
    # rebuild with mask bypass by scaling prior so p stays below threshold
    y_again = net.local_forward(Tensor(x_data), Tensor(x_data * 0.5))
    np.testing.assert_allclose(y_masked.data, y_again.data, atol=2e-6)


def test_encoder_block_excludes_masked_features():
    # features under a zeroed mask must not influence the conv branch of a
    # partial residual block; only the identity skip carries them, so the
    # output may change at the perturbed pixels themselves and nowhere else
    cfg = small_cfg()
    net = make_net(cfg, seed=6)
    rng = np.random.default_rng(7)
    ch = cfg.unet_base_channels
    h1 = rng.random((1, ch, 32, 32)).astype(np.float32)
    mask = np.ones((1, 1, 32, 32), dtype=np.float32)
    mask[:, :, 8:24, 8:24] = 0.0
    h2 = h1.copy()
    h2[:, :, 12:20, 12:20] += 3.0
    y1, m1 = net._pconv_rb("local.enc0.rb0", Tensor(h1), mask)
    y2, m2 = net._pconv_rb("local.enc0.rb0", Tensor(h2), mask)
    np.testing.assert_array_equal(m1, m2)
    diff = np.abs(y1.data - y2.data)
    outside = np.ones((32, 32), dtype=bool)
    outside[12:20, 12:20] = False
    assert diff[:, :, outside].max() == 0.0
    assert diff[:, :, 12:20, 12:20].max() > 0.0  # identity skip still live


def test_full_forward_deterministic():
    cfg = small_cfg()
    net = make_net(cfg, seed=8)
    x = Tensor(np.random.default_rng(9).random((1, 3, 20, 20)).astype(np.float32))
    y1 = net.forward(x)
    y2 = net.forward(x)
    np.testing.assert_array_equal(y1.data, y2.data)
    assert (y1.data >= 0).all()
    assert y1.shape == x.shape


def test_activation_census_no_normalization():
    cfg = small_cfg()
    net = make_net(cfg, seed=10)
    x = Tensor(np.random.default_rng(11).random((1, 3, 8, 8)).astype(np.float32))
    with T.trace_ops() as trace:
        net.forward(x)
    assert trace.count("relu") == 1
    assert trace[::-1].index("relu") < trace[::-1].index("leaky_relu")  # ReLU is last
    assert not any("norm" in op for op in trace)


def test_ablation_configs_forward_and_gradcheck():
    rng = np.random.default_rng(12)
    for which in ("no_partial_conv", "no_group_conv"):
        cfg = ablation_config(ModelConfig(dense_layers=2, dense_growth=4,
                                          unet_base_channels=4,
                                          global_mlp_channels=4, groups=2), which)
        net = kaiming_init(cfg, np.random.default_rng(13))
        for t in net.weights.values():
            t.data = t.data.astype(np.float64)
        x = Tensor(rng.random((1, 3, 8, 8)).astype(np.float64))
        y = net.forward(x)
        assert y.shape == x.shape
        # spot gradcheck on one weight tensor
        w = net.weights["local.head.weight"]

        def f(w):
            y = net.forward(x)
            return T.mean_all(T.mul(y, y))
        # end-to-end check crosses many activation kinks, so looser than the
        # per-operation 1e-4 bound
        assert T.gradient_check(f, [w]) < 1e-3


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = small_cfg()
    net = make_net(cfg, seed=14)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net, extra={"opt.beta1": 0.9})
    loaded, extra = load_checkpoint(path)
    assert extra == {"opt.beta1": "0.9"}
    assert loaded.cfg == cfg
    for name, t in net.weights.items():
        np.testing.assert_array_equal(loaded.weights[name].data, t.data)
    # element count equals count_params
    total = sum(t.data.size for t in loaded.weights.values())
    assert total == count_params(cfg)


def test_checkpoint_magic_and_truncation(tmp_path):
    cfg = small_cfg()
    net = make_net(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net)
    raw = path.read_bytes()
    assert raw[:4] == b"LHDR"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:100])
    with pytest.raises(ValueError):
        load_checkpoint(bad)
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)


def test_network_missing_weight_names_the_key():
    weights = dict(make_net(small_cfg()).weights)
    del weights["local.head.weight"]
    with pytest.raises(ValueError, match="local.head.weight"):
        Network(small_cfg(), weights)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(mask_threshold=1.5).validate()
    with pytest.raises(ValueError):
        ModelConfig(unet_base_channels=6, groups=4).validate()
    with pytest.raises(ValueError):
        ModelConfig(modulation_after_layer=4).validate()


@pytest.mark.parametrize("word,value", [("true", True), ("False", False), ("1", True),
                                        ("0", False), ("YES", True), ("no", False)])
def test_config_text_bool_words(word, value):
    cfg, extra = loads(ModelConfig, f"use_partial_conv={word}\n")
    assert cfg.use_partial_conv is value and extra == {}


@pytest.mark.parametrize("word", ["ture", "", "2", "on", "enabled"])
def test_config_text_rejects_other_bool_words(word):
    with pytest.raises(ValueError, match=f"use_partial_conv.*{word!r}"):
        loads(ModelConfig, f"use_partial_conv={word}\n")
