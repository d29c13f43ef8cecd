import dataclasses
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from hdrlite import model
from hdrlite import tensor as T
from hdrlite.kvtext import loads
from hdrlite.model import (
    LEAKY_SLOPE, UNET_LEVELS, LayerInfo, ModelConfig, Network, bright_invalid_mask,
    bright_valid_mask, count_macs, count_params, layer_breakdown, layer_table, load_checkpoint,
    prior_scalar, save_checkpoint,
)
from hdrlite.tensor import Tensor
from hdrlite.training import kaiming_init
from tests.conftest import traced

# Defaults are pinned: any change to the architecture must update these.
PINNED_DEFAULT_PARAMS = 234_082
PINNED_DEFAULT_MACS_1080P = 164_805_580_800
# Checkpoint weight names and the perfbench `model.<row>` rows are these names.
PINNED_DEFAULT_LAYER_NAMES = [
    "local.dense0", "local.dense1", "local.dense2", "local.dense3", "local.dense4",
    "local.head",
    "local.enc0.rb0.conv1", "local.enc0.rb0.conv2", "local.down0",
    "local.enc1.rb0.conv1", "local.enc1.rb0.conv2", "local.down1",
    "local.mid.rb0.conv1", "local.mid.rb0.conv2",
    "local.up1", "local.skip1", "local.dec1.rb0.sft0", "local.dec1.rb0.sft1",
    "local.dec1.rb0.conv1", "local.dec1.rb0.conv2",
    "local.up0", "local.skip0", "local.dec0.rb0.sft0", "local.dec0.rb0.sft1",
    "local.dec0.rb0.conv1", "local.dec0.rb0.conv2",
    "local.fuse",
    "global.mlp0", "global.mlp1", "global.mlp2", "global.mlp3", "global.mod0", "global.mod1",
]


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
# Counters
# ---------------------------------------------------------------------------

def test_single_conv_param_arithmetic():
    plain = LayerInfo("plain", 8, 8, 3)
    assert plain.weight_count + plain.out_channels == 8 * 8 * 9 + 8 == 584
    grouped = LayerInfo("grouped", 8, 8, 3, groups=4)
    assert grouped.weight_count + grouped.out_channels == 8 * 2 * 9 + 8 == 152


def test_layerinfo_grouped_weight_count():
    li = LayerInfo("grouped", 8, 8, 3, groups=4)
    assert li.weight_shape == (8, 2, 3, 3)
    assert li.weight_count == 8 * 2 * 9 == 144


def test_default_params_pinned():
    assert count_params(ModelConfig()) == PINNED_DEFAULT_PARAMS
    assert 200_000 <= PINNED_DEFAULT_PARAMS <= 250_000


def test_default_macs_pinned():
    assert count_macs(ModelConfig(), 1080, 1920) == PINNED_DEFAULT_MACS_1080P
    assert 130e9 <= PINNED_DEFAULT_MACS_1080P <= 190e9


def test_default_layer_names_pinned():
    assert [li.name for li in layer_table(ModelConfig())] == PINNED_DEFAULT_LAYER_NAMES
    assert len(PINNED_DEFAULT_LAYER_NAMES) == 33


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
    # the global net on the 270 cropped ones; count_macs must count both.
    # count_macs is the nominal count: global.mod1 runs on the pooled mod0
    # features (one pixel).  The dense layers run as one _dense_block call.
    # Every 1x1 layer runs as a _pointwise_mlp call: local.skip0 and
    # local.skip1 (one step over two parts), local.fuse as two calls (over
    # hT, then over the dense stack) and global.mod1; each SFT branch (sft0,
    # sft1) is one call, and so are global.mlp0..3 and, pooled, global.mod0.
    # The modulation folds into global.mlp2's bias by one more 1x1 step over
    # one pixel (G^2 MACs).  local.up0 and local.up1 run as _up2_conv calls:
    # one 2x2 conv with 4*oc outputs of 4*ic inputs over each pixel of the
    # (h+1, w+1) padded low-resolution input, 4 of the nominal 9 taps per phase
    cfg = ModelConfig()
    net = make_net(cfg)
    for t in net.weights.values():
        t.requires_grad = False  # an inference forward: no graph kept
    conv, dense_block, pointwise_mlp = T.conv2d, T._dense_block, T._pointwise_mlp
    up2_conv = T._up2_conv
    executed = []

    def counting_conv(x, weight, *args, **kw):
        out = conv(x, weight, *args, **kw)
        n, oc, oh, ow = out.shape
        _, icg, k, _ = weight.shape
        executed.append(n * oc * oh * ow * icg * k * k)
        return out

    def counting_up2_conv(x, weight, *args, **kw):
        out = up2_conv(x, weight, *args, **kw)
        n, ic, h, w = x.shape
        executed.append(n * (h + 1) * (w + 1) * 4 * weight.shape[0] * 4 * ic)
        return out

    def counting_dense_block(x, weights, *args, **kw):
        out = dense_block(x, weights, *args, **kw)
        n, _, oh, ow = out.shape
        executed.append(sum(n * oh * ow * w.data.size for w in weights))
        return out

    def counting_pointwise_mlp(x, steps, **kw):
        out = pointwise_mlp(x, steps, **kw)
        n, _, h, w = (x if isinstance(x, Tensor) else x[0]).shape
        executed.append(sum(n * h * w * s[0].data.size for s in steps))
        return out

    monkeypatch.setattr(T, "conv2d", counting_conv)
    monkeypatch.setattr(T, "_up2_conv", counting_up2_conv)
    monkeypatch.setattr(T, "_dense_block", counting_dense_block)
    monkeypatch.setattr(T, "_pointwise_mlp", counting_pointwise_mlp)
    net.forward(Tensor(np.zeros((1, 3, 270, 480), dtype=np.float32)))
    sft_blocks, mlp_layers = 2, 4
    assert len(executed) == (len(layer_table(cfg)) - cfg.dense_layers + 1 + 1
                             - sft_blocks - (mlp_layers - 1) + 1) == 26
    G = cfg.global_mlp_channels
    mod1 = G * 2 * G
    # each up-conv's nominal 9 taps per output pixel less the 16 = 4 phases x
    # 4 taps per pixel of its padded (h+1, w+1) input
    up_saved = 0
    for lvl in range(2):
        oc, h, w = cfg.unet_base_channels << lvl, 136 >> lvl, 240 >> lvl
        up_saved += oc * 2 * oc * (9 * 2 * h * 2 * w - 16 * (h + 1) * (w + 1))
    assert up_saved == 1_029_977_600
    assert sum(executed) == (count_macs(cfg, 270, 480) - 270 * 480 * mod1 + mod1 + G * G
                             - up_saved) == 8_740_218_112
    assert count_macs(cfg, 270, 480) == 10_367_385_600


def test_ablation_param_directions():
    base = count_params(ModelConfig())
    assert count_params(replace(ModelConfig(), groups=1)) > base
    assert count_params(replace(ModelConfig(), use_partial_conv=False)) != base


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
    # the modulation folds into mlp2's weights per image: a batch is refused
    pair = Tensor(np.concatenate([x.data, x.data]))
    with pytest.raises(ValueError, match="one image"):
        net.global_forward(pair, pair)


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
        y = net.local_forward(x)
        assert y.shape == (1, 3, h, w)


def test_local_net_unsaturated_input_equals_plain_conv_path(monkeypatch):
    # max p < t: the invalid mask is all ones, so partial conv degenerates to
    # the same conv a partial conv handed an all-ones mask runs
    cfg = small_cfg()
    net = make_net(cfg, seed=4)
    rng = np.random.default_rng(5)
    x_data = (rng.random((1, 3, 16, 16)) * 0.8).astype(np.float32)
    y_masked = net.local_forward(Tensor(x_data))
    pconv = T.partial_conv
    masks = []

    def all_ones_mask(x, mask, *args, **kw):
        masks.append(mask)
        return pconv(x, np.ones_like(mask), *args, **kw)

    monkeypatch.setattr(T, "partial_conv", all_ones_mask)
    y_plain = net.local_forward(Tensor(x_data))
    assert len(masks) == 2 * UNET_LEVELS
    np.testing.assert_allclose(y_masked.data, y_plain.data, atol=2e-6)


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
    y1, m1 = net._rb("local.enc0.rb0", Tensor(h1), mask=mask)
    y2, m2 = net._rb("local.enc0.rb0", Tensor(h2), mask=mask)
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


def test_forward_takes_a_batch_of_one():
    net = make_net(small_cfg(), seed=8)
    x = Tensor(np.random.default_rng(9).random((2, 3, 16, 16)).astype(np.float32))
    with pytest.raises(ValueError, match=re.escape("(1, 3, h, w)")):
        net.forward(x)


def test_forward_needs_three_pixels_per_side():
    # a side of 1 or 2 px cannot be reflect-padded to a multiple of 4, so
    # 3x3 is the smallest frame that runs
    net = make_net(small_cfg(), seed=8)
    rng = np.random.default_rng(9)
    for h, w in ((2, 9), (9, 2), (1, 1)):
        x = Tensor(rng.random((1, 3, h, w)).astype(np.float32))
        with pytest.raises(ValueError, match=f"{w}x{h} frame is too small.*at least 3x3"):
            net.forward(x)
    for h, w in ((3, 3), (3, 9), (5, 7)):
        assert net.forward(Tensor(rng.random((1, 3, h, w)).astype(np.float32))).shape == (
            1, 3, h, w)


@pytest.mark.parametrize("use_partial_conv,pools", [(True, 2), (False, 1)],
                         ids=["pconv", "sft"])
def test_local_forward_pools_only_what_a_layer_reads(monkeypatch, use_partial_conv, pools):
    # the masked prior is pooled once, for the level-1 SFT blocks (the mid
    # block reads no prior), and the partial-conv mask once, for enc1
    net = make_net(ModelConfig(use_partial_conv=use_partial_conv))
    pool, shapes = model._pool2, []

    def counting_pool(a):
        shapes.append(a.shape)
        return pool(a)

    monkeypatch.setattr(model, "_pool2", counting_pool)
    net.forward(Tensor(np.random.default_rng(12).random((1, 3, 16, 16)).astype(np.float32)))
    assert len(shapes) == pools
    assert all(shape[2:] == (16, 16) for shape in shapes)


def test_sft_forward_builds_no_invalid_mask(monkeypatch):
    # only the partial-conv blocks read the invalid mask
    net = make_net(ModelConfig(use_partial_conv=False))
    x = Tensor(np.random.default_rng(13).random((1, 3, 16, 16)).astype(np.float32))
    x.data[:, :, 4:8, 4:8] = 1.0  # saturated, so a mask would not be all ones
    want = net.forward(x).data

    def no_mask(p):
        raise AssertionError("bright_invalid_mask called without partial convs")

    monkeypatch.setattr(model, "bright_invalid_mask", no_mask)
    np.testing.assert_array_equal(net.forward(x).data, want)


def test_activation_census_no_normalization():
    cfg = small_cfg()
    net = make_net(cfg, seed=10)
    x = Tensor(np.random.default_rng(11).random((1, 3, 8, 8)).astype(np.float32))
    with T.trace_ops() as trace:
        net.forward(x)
    assert trace.count("relu") == 1
    assert trace[-1] == "relu"  # ReLU is the last op
    assert not any("norm" in op for op in trace)


@pytest.mark.parametrize("requires_grad", [False, True], ids=["inference", "training"])
def test_forward_builds_no_channel_concat(requires_grad):
    # the dense layers read a channel concat as one _dense_block node,
    # local.skip* as one _pointwise_mlp node over two parts and local.fuse as
    # one _pointwise_mlp node per part, so no forward copies one into a
    # "concat" node
    net = make_net(ModelConfig(), seed=16)
    for t in net.weights.values():
        t.requires_grad = requires_grad
    x = Tensor(np.random.default_rng(17).random((1, 3, 12, 20)).astype(np.float32))
    with T.trace_ops() as trace:
        y = net.forward(x)
    assert y.requires_grad == requires_grad
    assert "conv2d" in trace and "concat" not in trace


@pytest.mark.parametrize("use_partial_conv,nodes", [(True, 40), (False, 38)],
                         ids=["pconv", "sft"])
def test_forward_node_count(use_partial_conv, nodes):
    # one node per 3x3 layer: partial conv's ratio and each block's residual
    # leaky_relu(h + y) run in conv2d's epilogue (a partial conv adds only its
    # gate's mul), so a 12x20 forward, which needs no pad or crop, builds
    # this many nodes
    net = make_net(ModelConfig(use_partial_conv=use_partial_conv), seed=16)
    x = Tensor(np.random.default_rng(17).random((1, 3, 12, 20)).astype(np.float32))
    with T.trace_ops() as trace:
        net.forward(x)
    assert len(trace) == nodes
    assert trace.count("conv2d") == 13  # each 3x3 layer but local.dense* and local.up*
    assert trace.count("mul") == (5 if use_partial_conv else 1)  # gates, global.mlp2's fold


@pytest.mark.parametrize("requires_grad", [False, True], ids=["inference", "training"])
def test_1x1_layers_run_only_as_pointwise_steps(monkeypatch, requires_grad):
    # no forward hands conv2d a 1x1 kernel, and the dense branch is the one
    # _dense_block call, over the single input tensor
    net = make_net(ModelConfig(), seed=16)
    for t in net.weights.values():
        t.requires_grad = requires_grad
    conv, dense_block = T.conv2d, T._dense_block
    kernels, dense_inputs = [], []

    def recording_conv(x, weight, *args, **kw):
        kernels.append(weight.shape[2])
        return conv(x, weight, *args, **kw)

    def recording_dense_block(x, *args, **kw):
        dense_inputs.append(x)
        return dense_block(x, *args, **kw)

    monkeypatch.setattr(T, "conv2d", recording_conv)
    monkeypatch.setattr(T, "_dense_block", recording_dense_block)
    net.forward(Tensor(np.random.default_rng(17).random((1, 3, 12, 20)).astype(np.float32)))
    assert kernels and 1 not in kernels
    assert len(dense_inputs) == 1 and isinstance(dense_inputs[0], Tensor)


def test_dense_branch_gathers_each_part_once(monkeypatch):
    # a default no-grad forward gathers the input and each dense output but
    # the last once: dense_layers column walks in all, not one per layer
    # and part (15 for the default 5 layers).  Only walks inside the dense
    # branch's call are counted
    cfg = ModelConfig()
    net = make_net(cfg, seed=18)
    for t in net.weights.values():
        t.requires_grad = False
    band_cols, dense_block = T._band_cols, T._dense_block
    walks = []
    inside = []

    def counting_band_cols(x, k):
        if inside:
            walks.append(x.shape[1])
        return band_cols(x, k)

    def marked_dense_block(x, weights, *args, **kw):
        inside.append(True)
        try:
            return dense_block(x, weights, *args, **kw)
        finally:
            inside.pop()

    monkeypatch.setattr(T, "_band_cols", counting_band_cols)
    monkeypatch.setattr(T, "_dense_block", marked_dense_block)
    net.forward(Tensor(np.random.default_rng(19).random((1, 3, 12, 20)).astype(np.float32)))
    assert walks == [3] + [cfg.dense_growth] * (cfg.dense_layers - 1)


def test_forward_working_set_bound():
    # the traced numpy peak of a no-grad default-config forward at 66x98 stays
    # under the dense features (3 + 5*16 = 83 channels), the conv column
    # buffer (_COL_BYTES) and three of the widest (48-channel) full-resolution
    # activations, all float32 planes of the frame padded to 68x100: about
    # 8.3 MB.  It fails if the dense features outlive the dense branch's place
    # in the forward, if a dense output keeps a second copy, or if the
    # elementwise tails each allocate again.
    cfg = ModelConfig()
    net = make_net(cfg, seed=14)
    for t in net.weights.values():
        t.requires_grad = False
    x = Tensor((np.random.default_rng(15).random((1, 3, 66, 98)) * 1.1).astype(np.float32))
    net.forward(x)
    plane = 68 * 100 * 4
    bound = ((3 + cfg.dense_layers * cfg.dense_growth) * plane + T._COL_BYTES
             + 3 * cfg.global_mlp_channels * plane)
    y, _, peak = traced(net.forward, x)
    assert y.shape == x.shape
    assert peak < bound, (peak, bound)


def test_global_forward_holds_two_wide_planes():
    # a no-grad global net at 66x98 peaks below 2.5 of its 48-channel
    # float32 planes, what one layer's input and output took when it ran
    # layer by layer.  It runs as banded ops now and builds no such plane
    # (test_pointwise_mlp_holds_only_its_output_and_bands in test_tensor).
    cfg = ModelConfig()
    net = make_net(cfg, seed=14)
    for t in net.weights.values():
        t.requires_grad = False
    rng = np.random.default_rng(15)
    x, y = (Tensor(rng.random((1, 3, 66, 98)).astype(np.float32)) for _ in range(2))
    net.global_forward(y, x)
    _, _, peak = traced(net.global_forward, y, x)
    assert peak < 2.5 * cfg.global_mlp_channels * 66 * 98 * 4, peak


def test_ablation_configs_forward_and_gradcheck():
    rng = np.random.default_rng(12)
    for changes in ({"use_partial_conv": False}, {"groups": 1}):
        cfg = replace(ModelConfig(dense_layers=2, dense_growth=4, unet_base_channels=4,
                                  global_mlp_channels=4, groups=2), **changes)
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


def test_checkpoint_rejects_a_repeated_record(tmp_path):
    # a second, zeroed global.mlp0.bias record must not overwrite the first
    net = make_net(small_cfg())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net)
    raw = path.read_bytes()
    at = 10 + struct.unpack_from("<I", raw, 6)[0]  # the record count
    (count,) = struct.unpack_from("<I", raw, at)
    name = b"global.mlp0.bias"
    bias = net.weights["global.mlp0.bias"]
    record = (struct.pack("<I", len(name)) + name + struct.pack("<4I", *bias.shape)
              + np.zeros(bias.shape, "<f4").tobytes())
    path.write_bytes(raw[:at] + struct.pack("<I", count + 1) + raw[at + 4:] + record)
    with pytest.raises(ValueError, match="duplicate checkpoint record 'global.mlp0.bias'"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_a_non_finite_record_by_name(tmp_path, value):
    net = make_net(small_cfg())
    net.weights["global.mlp3.weight"].data[0, 1, 0, 0] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net)
    with pytest.raises(ValueError, match="checkpoint record 'global.mlp3.weight' holds a NaN"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_record_whose_size_overflows(tmp_path):
    # 65536**4 floats wrap to 0 in int64; the record must read as truncated
    net = make_net(small_cfg())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net)
    raw = path.read_bytes()
    at = 14 + struct.unpack_from("<I", raw, 6)[0]  # the first record
    (name_len,) = struct.unpack_from("<I", raw, at)
    name = raw[at + 4:at + 4 + name_len].decode()
    dims_at = at + 4 + name_len
    path.write_bytes(raw[:dims_at] + struct.pack("<4I", *[65536] * 4) + raw[dims_at + 16:])
    with pytest.raises(ValueError, match=f"truncated checkpoint record '{name}'"):
        load_checkpoint(path)


@pytest.mark.parametrize("where,message", [
    ("header", "checkpoint header is not UTF-8 text"),
    ("record", "the name of checkpoint record 0 is not UTF-8 text"),
])
def test_checkpoint_rejects_text_that_is_not_utf8(tmp_path, where, message):
    net = make_net(small_cfg())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net)
    raw = bytearray(path.read_bytes())
    header_len = struct.unpack_from("<I", raw, 6)[0]
    raw[10 if where == "header" else 14 + header_len + 4] = 0xFF  # a first byte
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_checkpoint(path)


def test_network_missing_weight_names_the_key():
    weights = dict(make_net(small_cfg()).weights)
    del weights["local.head.weight"]
    with pytest.raises(ValueError, match="local.head.weight"):
        Network(small_cfg(), weights)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(unet_base_channels=6, groups=4)


def test_config_is_checked_when_built_and_frozen():
    with pytest.raises(ValueError, match="unet_base_channels must be divisible by groups"):
        replace(ModelConfig(), groups=3)
    cfg = ModelConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.groups = 3
    assert cfg.groups == 4


@pytest.mark.parametrize("key", ["dense_growth", "unet_base_channels", "groups",
                                 "global_mlp_channels"])
def test_config_rejects_widths_below_one(key):
    # checked before the divisibility test, so groups=0 is no modulo by zero
    for value in (0, -4):
        with pytest.raises(ValueError, match=f"{key} must be >= 1"):
            ModelConfig(**{key: value})


@pytest.mark.parametrize("word,value", [("true", True), ("False", False), ("1", True),
                                        ("0", False), ("YES", True), ("no", False)])
def test_config_text_bool_words(word, value):
    cfg, extra = loads(ModelConfig, f"use_partial_conv={word}\n")
    assert cfg.use_partial_conv is value and extra == {}


@pytest.mark.parametrize("word", ["ture", "", "2", "on", "enabled"])
def test_config_text_rejects_other_bool_words(word):
    with pytest.raises(ValueError, match=f"use_partial_conv.*{word!r}"):
        loads(ModelConfig, f"use_partial_conv={word}\n")


# ---------------------------------------------------------------------------
# Whole-network oracle: the forward as composed before the fast paths
# ---------------------------------------------------------------------------

def reference_forward(net, x):
    """The two-step network composed from the plain ops: nearest up2 then a
    3x3 conv, concat_channels copies, mod1 on the whole frame before the
    pooling, and every leaky ReLU a separate op."""
    cfg, W = net.cfg, net.weights

    def conv(name, inp):
        return T.conv2d(inp, W[f"{name}.weight"], W[f"{name}.bias"],
                        groups=net.layers[name].groups)

    def pconv(name, inp, mask):
        return T.partial_conv(inp, mask, W[f"{name}.weight"], W[f"{name}.bias"],
                              groups=net.layers[name].groups)

    def lrelu(t):
        return T.leaky_relu(t, LEAKY_SLOPE)

    def sft_rb(prefix, h, mprior):
        s = conv(f"{prefix}.sft1", lrelu(conv(f"{prefix}.sft0", mprior)))
        ch = h.shape[1]
        y = T.add(T.mul(h, T.narrow_channels(s, 0, ch)), T.narrow_channels(s, ch, ch))
        y = conv(f"{prefix}.conv2", lrelu(conv(f"{prefix}.conv1", y)))
        return lrelu(T.add(h, y))

    # local network
    n, c, h0, w0 = x.shape
    mult = 1 << UNET_LEVELS
    ph, pw = (-h0) % mult, (-w0) % mult
    xl = T.pad_reflect(x, ph, pw) if ph or pw else x
    pr = np.pad(np.clip(x.data, 0.0, 1.0), ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
    p = prior_scalar(pr)
    mp = pr * bright_valid_mask(p)
    mp_levels = [mp]
    for _ in range(UNET_LEVELS):
        a = mp_levels[-1]
        mp_levels.append(0.25 * (a[:, :, 0::2, 0::2] + a[:, :, 1::2, 0::2]
                                 + a[:, :, 0::2, 1::2] + a[:, :, 1::2, 1::2]))
    mp_levels = [Tensor(m.astype(x.dtype)) for m in mp_levels]
    feats = [xl]
    for i in range(cfg.dense_layers):
        inp = feats[0] if len(feats) == 1 else T.concat_channels(*feats)
        feats.append(lrelu(conv(f"local.dense{i}", inp)))
    dense_out = T.concat_channels(*feats[1:]) if cfg.dense_layers > 1 else feats[1]
    hT = lrelu(conv("local.head", xl))
    mask = bright_invalid_mask(p).astype(x.dtype)
    skips = []
    for lvl in range(UNET_LEVELS):
        pre = f"local.enc{lvl}.rb0"
        if cfg.use_partial_conv:
            y, m = pconv(f"{pre}.conv1", hT, mask)
            y, m = pconv(f"{pre}.conv2", lrelu(y), m)
            hT, mask = lrelu(T.add(hT, y)), m
        else:
            hT = sft_rb(pre, hT, mp_levels[lvl])
        skips.append(hT)
        hT = lrelu(conv(f"local.down{lvl}", T.down2(hT)))
        mask = 0.25 * (mask[:, :, 0::2, 0::2] + mask[:, :, 1::2, 0::2]
                       + mask[:, :, 0::2, 1::2] + mask[:, :, 1::2, 1::2])
    y = conv("local.mid.rb0.conv2", lrelu(conv("local.mid.rb0.conv1", hT)))
    hT = lrelu(T.add(hT, y))
    for lvl in reversed(range(UNET_LEVELS)):
        hT = lrelu(conv(f"local.up{lvl}", T.up2(hT)))
        hT = lrelu(conv(f"local.skip{lvl}", T.concat_channels(hT, skips[lvl])))
        hT = sft_rb(f"local.dec{lvl}.rb0", hT, mp_levels[lvl])
    local = lrelu(conv("local.fuse", T.concat_channels(dense_out, hT)))
    if ph or pw:
        local = T.crop(local, 0, 0, h0, w0)

    # global network
    m = T.global_avg_pool(conv("global.mod1", lrelu(conv("global.mod0", x))))
    G = cfg.global_mlp_channels
    alpha, beta = T.narrow_channels(m, 0, G), T.narrow_channels(m, G, G)
    h = lrelu(conv("global.mlp1", lrelu(conv("global.mlp0", local))))
    h = lrelu(conv("global.mlp2", T.add(T.mul(h, alpha), beta)))
    return T.relu(conv("global.mlp3", h))


def oracle_net(use_partial_conv, dtype, seed):
    cfg = ModelConfig(dense_layers=3, dense_growth=4, unet_base_channels=8,
                      global_mlp_channels=8, groups=2, use_partial_conv=use_partial_conv)
    net = make_net(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name, t in net.weights.items():  # non-zero biases exercise every bias path
        if name.endswith(".bias"):
            t.data = rng.normal(0, 0.1, t.shape)
        t.data = t.data.astype(dtype)
    return net


def oracle_input(h, w, dtype, seed):
    x = np.random.default_rng(seed).random((1, 3, h, w)) * 1.1  # some pixels clip
    return Tensor(x.astype(dtype))


@pytest.mark.parametrize("use_partial_conv", [True, False], ids=["pconv", "sft"])
@pytest.mark.parametrize("size", [(20, 20), (13, 19)], ids=["20x20", "13x19"])
def test_forward_matches_reference_composition(size, use_partial_conv):
    # outputs within 1e-12 (float64) and 2e-5 relative (float32); 13x19 is not
    # a multiple of 4, so the reflect-pad and crop path runs
    for dtype, rtol in ((np.float64, 1e-12), (np.float32, 2e-5)):
        net = oracle_net(use_partial_conv, dtype, seed=30)
        x = oracle_input(*size, dtype, seed=31)
        got, ref = net.forward(x), reference_forward(net, x)
        assert got.dtype == dtype and got.shape == ref.shape
        scale = np.abs(ref.data).max()
        np.testing.assert_allclose(got.data, ref.data, rtol=rtol, atol=rtol * scale)


@pytest.mark.parametrize("use_partial_conv", [True, False], ids=["pconv", "sft"])
@pytest.mark.parametrize("size", [(20, 20), (13, 19)], ids=["20x20", "13x19"])
def test_weight_gradients_match_reference_composition(size, use_partial_conv):
    # every weight and bias gradient within 1e-10 (float64) of the reference's,
    # relative to that tensor's largest gradient
    net = oracle_net(use_partial_conv, np.float64, seed=32)
    for t in net.weights.values():
        t.requires_grad = True
    x = oracle_input(*size, np.float64, seed=33)
    target = np.random.default_rng(34).random(x.shape)
    grads = []
    for fwd in (net.forward, lambda x: reference_forward(net, x)):
        for t in net.weights.values():
            t.zero_grad()
        y = fwd(x)
        T.backward(T.mean_all(T.abs_(T.sub(T.mul(y, y), Tensor(target)))))
        grads.append({k: t.grad for k, t in net.weights.items()})
    for name, ref in grads[1].items():
        assert grads[0][name] is not None, name
        scale = max(np.abs(ref).max(), 1e-30)
        np.testing.assert_allclose(grads[0][name], ref, rtol=0, atol=1e-10 * scale,
                                   err_msg=name)


@pytest.mark.parametrize("band", ["default", "1px", "partial"])
@pytest.mark.parametrize("use_partial_conv", [True, False], ids=["pconv", "sft"])
@pytest.mark.parametrize("size", [(3, 3), (13, 19)], ids=["3x3", "13x19"])
def test_banded_pointwise_ops_match_reference_composition(monkeypatch, size,
                                                          use_partial_conv, band):
    # the global net and every SFT branch run as banded _pointwise_mlp ops:
    # the output, the input gradient and every weight and bias gradient
    # within 1e-12 (float64) and 1e-5 (float32) of the reference's, relative
    # to each one's largest value.  The SFT blocks of the encoder run only
    # without partial convs.  "partial" gives the widest op (32 channels,
    # enc1/dec1's sft1) 3-pixel bands, dec0's 6 and the global net's 12:
    # at 13x19 every op's last band is partial
    for dtype in (np.float64, np.float32):
        if band != "default":
            monkeypatch.setattr(T, "_MLP_BYTES",
                                1 if band == "1px" else 3 * 32 * np.dtype(dtype).itemsize)
        net = oracle_net(use_partial_conv, dtype, seed=40)
        for t in net.weights.values():
            t.requires_grad = True
        x0 = oracle_input(*size, dtype, seed=41)
        gy = Tensor(np.random.default_rng(42).normal(0, 1, x0.shape).astype(dtype))
        results = []
        for fwd in (net.forward, lambda x: reference_forward(net, x)):
            for t in net.weights.values():
                t.zero_grad()
            x = Tensor(x0.data.copy(), requires_grad=True)
            y = fwd(x)
            T.backward(T.sum_all(T.mul(y, gy)))
            results.append({"output": y.data, "input": x.grad,
                            **{k: t.grad for k, t in net.weights.items()}})
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for name, ref in results[1].items():
            got = results[0][name]
            assert got is not None and got.dtype == dtype, name
            scale = max(np.abs(ref).max(), 1e-30)
            np.testing.assert_allclose(got, ref, rtol=0, atol=tol * scale, err_msg=name)
